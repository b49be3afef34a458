"""Exact inset numbers, the ternary words they count, and verification tools.

The inset number inset(m, n, k) counts ternary words of length m + n with
exactly k letters equal to 2 and no 0 among the first m letters.  This
package computes those numbers by several independent exact routes,
enumerates the words, machine-checks the identities and generating
functions they satisfy, and serves a catalog of named integer sequences
cross-checked against committed b-file fixtures.

The names below are resolved on first access (PEP 562), so ``import insets``
and the CLI load only the submodules a caller actually uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "chebyshev": ("chebyshev_oracle", "coeff", "polynomial"),
    "core": (
        "binomial",
        "inset",
        "inset_alternating",
        "inset_binomial_sum",
        "inset_dp",
        "inset_power_sum",
        "inset_row",
        "trapeze_table",
    ),
    "errors": (
        "BFileFormatError",
        "CapExceededError",
        "FixtureError",
        "FixtureNotFoundError",
        "NonUnitConstantTermError",
    ),
    "identities": ("IDENTITY_NAMES", "Counterexample", "GridReport", "verify", "verify_all"),
    "oeis": ("BFile", "CacheConfig", "bfile_name", "default_config", "load", "parse_bfile"),
    "oracles": ("delannoy_paths", "lattice_points", "weak_compositions_with_zeros"),
    "registry": (
        "SequenceEntry",
        "SequenceSlice",
        "ValidationReport",
        "generate",
        "get_entry",
        "list_entries",
        "validate",
    ),
    "series": (
        "gf_in_k",
        "gf_in_m",
        "gf_in_n",
        "poly_mul",
        "poly_pow",
        "poly_trim",
        "series_div",
    ),
    "words": ("count_bruteforce", "enumerate_words", "is_satisfying", "iter_words"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["__version__", *_MODULE_OF])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
