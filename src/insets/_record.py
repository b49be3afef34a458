"""The base of the package's immutable result records.

A record is what a frozen dataclass would give, without importing
``dataclasses`` (and with it ``inspect``, ``ast``, ``dis`` and ``tokenize``,
most of the library's import time once): its fields are the names its class
annotates, in order, and a field's class attribute is its default. Records
compare equal field by field within one class, hash by their fields and have
the dataclass ``repr``. They are not tuples, as ``NamedTuple`` records would
be: they do not unpack, index or compare with plain tuples, and code that
tells a process result ``(code, stdout, ...)`` from a library result by
type, as ``perfbench/worker.py`` does, still tells them apart.
``vars(record)`` is a dict of the fields, and
``type(record)(**{**vars(record), "field": value})`` a changed copy.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args: object, **kwargs: object) -> None:
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, {len(args)} given")
        values = dict(zip(self._fields, args))
        for field, value in kwargs.items():
            if field not in self._fields or field in values:
                raise TypeError(f"{name} got an unexpected or repeated field {field!r}")
            values[field] = value
        missing = [f for f in self._fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name} is missing field(s) {', '.join(missing)}")
        vars(self).update((f, values[f] if f in values else self._defaults[f]) for f in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))
