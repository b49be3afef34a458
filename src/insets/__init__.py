"""Exact inset numbers, the ternary words they count, and verification tools.

The inset number inset(m, n, k) counts ternary words of length m + n with
exactly k letters equal to 2 and no 0 among the first m letters.  This
package computes those numbers by several independent exact routes,
enumerates the words, machine-checks the identities and generating
functions they satisfy, and serves a catalog of named integer sequences
cross-checked against committed b-file fixtures.
"""

from .chebyshev import chebyshev_oracle, coeff, polynomial
from .core import (
    binomial,
    inset,
    inset_alternating,
    inset_binomial_sum,
    inset_dp,
    inset_power_sum,
    trapeze_table,
)
from .errors import (
    BFileFormatError,
    CapExceededError,
    FixtureError,
    FixtureNotFoundError,
    NonUnitConstantTermError,
)
from .identities import IDENTITY_NAMES, Counterexample, GridReport, verify, verify_all
from .oeis import BFile, CacheConfig, bfile_name, default_config, load, parse_bfile
from .oracles import delannoy_paths, lattice_points, weak_compositions_with_zeros
from .registry import (
    SequenceEntry,
    SequenceSlice,
    ValidationReport,
    generate,
    get_entry,
    list_entries,
    validate,
)
from .series import gf_in_k, gf_in_m, gf_in_n, poly_mul, poly_pow, poly_trim, series_div
from .words import count_bruteforce, enumerate_words, is_satisfying, iter_words

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "BFileFormatError",
    "CacheConfig",
    "CapExceededError",
    "Counterexample",
    "FixtureError",
    "FixtureNotFoundError",
    "GridReport",
    "IDENTITY_NAMES",
    "NonUnitConstantTermError",
    "SequenceEntry",
    "SequenceSlice",
    "ValidationReport",
    "__version__",
    "bfile_name",
    "binomial",
    "chebyshev_oracle",
    "coeff",
    "count_bruteforce",
    "default_config",
    "delannoy_paths",
    "enumerate_words",
    "generate",
    "get_entry",
    "gf_in_k",
    "gf_in_m",
    "gf_in_n",
    "inset",
    "inset_alternating",
    "inset_binomial_sum",
    "inset_dp",
    "inset_power_sum",
    "is_satisfying",
    "iter_words",
    "lattice_points",
    "list_entries",
    "load",
    "parse_bfile",
    "poly_mul",
    "poly_pow",
    "poly_trim",
    "polynomial",
    "series_div",
    "trapeze_table",
    "validate",
    "verify",
    "verify_all",
    "weak_compositions_with_zeros",
]
