"""Independent routes: brute-force counters and exact polynomial arithmetic.

These validate the combinatorial interpretations of inset numbers without
touching any inset formula: a lattice-path dynamic program, plain nested
enumeration of integer points, and exhaustive generation of weak
compositions.  Oracle code favors being obviously correct over being fast.

Integer polynomials are coefficient lists, index = degree, trailing zeros
trimmed (the zero polynomial is the empty list).  ``series_div`` is
truncated division by a denominator with constant term +-1, which keeps the
quotient integral.  Dividing the ``poly_pow`` expansions of a generating
function's numerator and denominator is the independent route the builders
of :mod:`insets.series` are tested against.
"""

from __future__ import annotations

import itertools

from . import _EXPORTS
from .errors import CapExceededError, NonUnitConstantTermError

__all__ = _EXPORTS["oracles"]

PATH_CAP = 64
LATTICE_DIM_CAP = 8
LATTICE_RADIUS_CAP = 12
COMPOSITION_CAP = 16


def delannoy_paths(m: int, n: int) -> int:
    """Lattice paths (0,0) -> (m,n) with east, north, and diagonal steps."""
    if m < 0 or n < 0:
        raise ValueError("corner must be nonnegative")
    if m > PATH_CAP or n > PATH_CAP:
        raise CapExceededError(f"path corner exceeds cap {PATH_CAP}")
    prev = [1] * (n + 1)
    for _ in range(m):
        cur = [1] * (n + 1)
        for j in range(1, n + 1):
            cur[j] = cur[j - 1] + prev[j] + prev[j - 1]
        prev = cur
    return prev[n]


def lattice_points(dim: int, radius: int, mode: str = "ball") -> int:
    """Integer points with |x_1| + ... + |x_dim| <= radius (ball) or = radius (sphere).

    Plain iteration over the whole bounding box, no pruning.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if mode not in ("ball", "sphere"):
        raise ValueError(f"mode must be 'ball' or 'sphere', got {mode!r}")
    if dim > LATTICE_DIM_CAP or radius > LATTICE_RADIUS_CAP:
        raise CapExceededError(
            f"lattice query exceeds caps dim<={LATTICE_DIM_CAP}, radius<={LATTICE_RADIUS_CAP}"
        )
    count = 0
    axis = range(-radius, radius + 1)
    for point in itertools.product(axis, repeat=dim):
        s = sum(map(abs, point))
        if (s <= radius) if mode == "ball" else (s == radius):
            count += 1
    return count


def _weak_compositions(length: int, total: int):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _weak_compositions(length - 1, total - first):
            yield (first,) + rest


def weak_compositions_with_zeros(total: int, zeros: int) -> int:
    """Weak compositions of ``total`` containing exactly ``zeros`` zero parts.

    All lengths from ``zeros`` to ``total + zeros`` are admitted; the only
    composition of 0 with z zeros is the all-zero sequence of length z, and
    the empty composition is the single composition of 0 with no zeros.
    """
    if total < 0 or zeros < 0:
        raise ValueError("arguments must be nonnegative")
    if total + zeros > COMPOSITION_CAP:
        raise CapExceededError(f"total + zeros exceeds cap {COMPOSITION_CAP}")
    count = 0
    for length in range(zeros, total + zeros + 1):
        count += sum(
            1 for comp in _weak_compositions(length, total) if comp.count(0) == zeros
        )
    return count


def poly_trim(coeffs: list[int]) -> list[int]:
    """Canonical form: strip trailing zero coefficients."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return list(coeffs[:end])


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_pow(base: list[int], e: int) -> list[int]:
    """Exact polynomial power; e = 0 gives the constant 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = [1]
    sq = poly_trim(base)
    while e:
        if e & 1:
            result = poly_mul(result, sq)
        e >>= 1
        if e:
            sq = poly_mul(sq, sq)
    return result


def series_div(num: list[int], den: list[int], order: int) -> list[int]:
    """Quotient q with num = den * q (mod x^(order+1)).

    Requires den to have constant term +1 or -1 so the quotient stays
    integral.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not den or den[0] not in (1, -1):
        raise NonUnitConstantTermError(
            "series division requires a denominator with constant term +1 or -1"
        )
    lead = den[0]
    out = [0] * (order + 1)
    for i in range(order + 1):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out[i] = acc * lead  # divide by +-1
    return out
