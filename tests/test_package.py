import ast
import importlib
import json
import pkgutil
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import insets
from insets import cli, oeis


def test_every_export_resolves_to_its_submodule_object():
    for name in insets.__all__:
        value = getattr(insets, name)
        if name != "__version__":
            source = importlib.import_module(f"insets.{insets._MODULE_OF[name]}")
            assert value is getattr(source, name), name
            assert vars(insets)[name] is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from insets import *", namespace)
    assert set(insets.__all__) <= set(namespace)
    assert namespace["inset"](1, 3, 2) == 18


def test_dir_lists_every_export_before_it_is_resolved():
    # a fresh interpreter, since other tests here resolve every name
    code = "import insets; print(sorted(set(insets.__all__) - set(dir(insets))))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_dir_lists_every_export():
    assert set(insets.__all__) <= set(dir(insets))


def test_submodule_star_import_binds_exactly_its_exports():
    # no imported helper (math, add, annotations, ...) leaks through
    for module, names in insets._EXPORTS.items():
        namespace = {}
        exec(f"from insets.{module} import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(names), module


def test_unknown_name_is_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'insets'.*'no_such_name'"):
        insets.no_such_name
    assert not hasattr(insets, "no_such_name")


def test_version_is_eager():
    assert insets.__version__ == "0.1.0"
    assert "__version__" in vars(insets)


# Runs the public API once small, records the length of every module-level
# dict, list and set of each insets module, runs it again larger, and prints
# both records with each lru_cache's (currsize, maxsize).
_STATE_PROBE = """
import importlib, json, pkgutil
import insets
from insets import chebyshev, core, identities, registry, series, words

modules = [insets, *(importlib.import_module(f"insets.{info.name}")
                     for info in pkgutil.iter_modules(insets.__path__) if info.name != "__main__")]


def exercise(grid, size, count, word, order):
    for m in range(grid + 1):
        for n in range(grid + 1):
            for k in range(m + n + 1):
                core.inset_dp(m, n, k)
    identities.verify_all(size, size)
    for entry in registry.list_entries():
        registry.generate(entry.key, count)
    words.enumerate_words(*word)
    words.count_bruteforce(*word)
    series.gf_in_m(2, 3, order)
    chebyshev.polynomial(2, order)


def lengths():
    return {f"{module.__name__}.{attr}": len(value)
            for module in modules for attr, value in vars(module).items()
            if isinstance(value, (dict, list, set)) and attr != "__builtins__"}


exercise(2, 1, 2, (1, 1, 1), 4)
before = lengths()
exercise(20, 12, 200, (6, 6, 5), 64)
caches = {f"{module.__name__}.{attr}": value.cache_info()[2:]
          for module in modules for attr, value in vars(module).items()
          if hasattr(value, "cache_info")}
print(json.dumps({"before": before, "after": lengths(), "caches": caches}))
"""


def test_no_module_reads_the_environment():
    # every input comes from arguments, so a shell variable changes no output
    read = set()
    for path in sorted(Path(insets.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            read.update((path.name, name) for name in names
                        if name in {"environ", "environb", "getenv", "getenvb"})
    assert not read


def test_a_fixtures_variable_changes_nothing(tmp_path, monkeypatch, capsys):
    # an empty directory named by the variable would fail every fixture read
    # that consulted it
    assert cli.main(["crosscheck", "all", "--fixtures", ""]) == 0
    packaged = capsys.readouterr()
    monkeypatch.setenv("INSETS_FIXTURES", str(tmp_path))
    assert cli.main(["crosscheck", "all"]) == 0
    assert capsys.readouterr() == packaged
    assert oeis.load("A008288") == oeis.load("A008288", "")


def test_no_module_level_state_grows():
    # a fresh interpreter, so no earlier test has already filled a memo
    result = subprocess.run(
        [sys.executable, "-c", _STATE_PROBE], capture_output=True, text=True, check=True
    )
    state = json.loads(result.stdout)
    assert state["before"], "no module-level container found"
    assert state["after"] == state["before"]
    assert state["caches"], "no lru_cache found"
    for name, (maxsize, currsize) in state["caches"].items():
        assert currsize <= maxsize, name


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation string in its module,
    # so a name the module does not bind fails here, not in a caller
    checked = 0
    for info in pkgutil.iter_modules(insets.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        source = importlib.import_module(f"insets.{info.name}")
        for value in vars(source).values():
            if not isinstance(value, (type, types.FunctionType)):
                continue
            if value.__module__ != source.__name__:
                continue
            methods = vars(value).values() if isinstance(value, type) else ()
            for item in (value, *methods):
                if isinstance(item, (type, types.FunctionType)):
                    typing.get_type_hints(item)
                    checked += 1
    assert checked >= 100
