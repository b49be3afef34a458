"""Generalized Chebyshev polynomials built from inset numbers.

For each free-block size m the polynomial P(m, n) has coefficients

    c(m, n, k) = (-1)^((n-k)/2) * inset(m, (n+k)/2 - m, (n-k)/2)

when n and k have the same parity, and 0 otherwise.  The magnitude of a
nonzero coefficient therefore counts ternary words of length (n+k)/2 with
(n-k)/2 letters equal to 2 and a zero-free prefix of length m.

m = 0 reproduces the Chebyshev polynomials of the second kind and m = 1
those of the first kind; both are checked against the classical three-term
recurrence.  Every m has a classical form: since inset(m, N, K) is the
coefficient of z^K in (1+z)^m (2+z)^N, summing over n gives

    sum_n P(m, n) t^n = (t (x - t))^m / (1 - 2xt + t^2),

so P(m, n) = sum_j (-1)^j C(m, j) x^(m-j) U_(n-m-j)(x) over j = 0..m,
taking U_N = 0 for N < 0 (extending by U_(-N) = -U_(N-2) instead gives
other polynomials).  At m = 1 this is x U_(n-1) - U_(n-2) = T_n.
"""

from __future__ import annotations

from . import _EXPORTS
from .core import inset

__all__ = _EXPORTS["chebyshev"]

ORACLE_CAP = 64


def coeff(m: int, n: int, k: int) -> int:
    """Signed coefficient of x^k in P(m, n); 0 on parity mismatch.

    When (n+k)/2 < m the underlying word constraint is empty and the
    coefficient is 0, which keeps coefficient vectors total.
    """
    if m < 0 or n < 0 or k < 0:
        raise ValueError("coefficient index must be nonnegative")
    if (n - k) % 2 or k > n:
        return 0
    half_sum = (n + k) // 2
    if half_sum < m:
        return 0
    magnitude = inset(m, half_sum - m, (n - k) // 2)
    return -magnitude if ((n - k) // 2) % 2 else magnitude


def polynomial(m: int, n: int) -> list[int]:
    """Full coefficient vector of P(m, n), powers 0..n."""
    if m < 0 or n < 0:
        raise ValueError("polynomial index must be nonnegative")
    return [coeff(m, n, k) for k in range(n + 1)]


def chebyshev_oracle(kind: str, n: int) -> list[int]:
    """Coefficients of the classical Chebyshev polynomial T_n or U_n.

    Computed independently via the three-term recurrence
    next = 2x * cur - prev from T0 = 1, T1 = x (resp. U0 = 1, U1 = 2x).
    ``kind`` is "first" or "second".
    """
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    if not 0 <= n <= ORACLE_CAP:
        raise ValueError(f"oracle degree must be in 0..{ORACLE_CAP}")
    prev = [1]
    cur = [0, 1] if kind == "first" else [0, 2]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur
