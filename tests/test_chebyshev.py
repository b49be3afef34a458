import pytest

from insets.chebyshev import chebyshev_oracle, coeff, polynomial


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        ("second", 0, [1]),
        ("second", 1, [0, 2]),
        ("second", 2, [-1, 0, 4]),
        ("first", 0, [1]),
        ("first", 1, [0, 1]),
        ("first", 4, [1, 0, -8, 0, 8]),
    ],
)
def test_oracle_textbook_vectors(kind, n, expected):
    assert chebyshev_oracle(kind, n) == expected


def test_oracle_rejects_bad_kind():
    with pytest.raises(ValueError):
        chebyshev_oracle("third", 3)


def test_oracle_degree_cap():
    with pytest.raises(ValueError):
        chebyshev_oracle("first", 65)


@pytest.mark.parametrize(
    "fn,args",
    [(coeff, (-1, 2, 0)), (coeff, (0, -1, 0)), (coeff, (0, 2, -1)),
     (polynomial, (-1, 2)), (polynomial, (0, -1))],
)
def test_negative_indices_are_refused(fn, args):
    with pytest.raises(ValueError, match="nonnegative"):
        fn(*args)


@pytest.mark.parametrize(
    "m,n,k,expected",
    [
        (0, 4, 2, -12),
        (1, 4, 2, -8),
        (0, 3, 0, 0),  # opposite parity
        (0, 0, 0, 1),
        (2, 2, 0, 0),  # word constraint empty: (n+k)/2 < m
    ],
)
def test_coefficients(m, n, k, expected):
    assert coeff(m, n, k) == expected


def test_parity_zeros():
    for n in range(13):
        for k in range(n + 1):
            if (n - k) % 2:
                for m in range(4):
                    assert coeff(m, n, k) == 0


def test_leading_coefficients():
    for n in range(1, 17):
        assert coeff(0, n, n) == 2**n
        assert coeff(1, n, n) == 2 ** (n - 1)


def test_sign_rule():
    for n in range(0, 9, 2):
        for k in range(0, n + 1, 2):
            value = coeff(0, n, k)
            if value:
                expected_sign = -1 if ((n - k) // 2) % 2 else 1
                assert (value > 0) == (expected_sign > 0)


def test_rows_follow_the_three_term_recurrence_past_2m():
    # P(m, n) = 2x P(m, n-1) - P(m, n-2) coefficient by coefficient once
    # n >= 2m + 1; below that, coefficients with (n+k)/2 < m are 0
    def recurs(m, n):
        shifted = [0, *(2 * c for c in polynomial(m, n - 1))]
        before = polynomial(m, n - 2) + [0, 0]
        return polynomial(m, n) == [a - b for a, b in zip(shifted, before)]

    for m in range(7):
        for n in range(max(2, 2 * m + 1), 60):
            assert recurs(m, n), (m, n)
    for m in range(1, 7):
        assert not recurs(m, 2 * m), m


def test_every_m_is_a_binomial_combination_of_second_kind_polynomials():
    # P(m, n) = sum_j (-1)^j C(m, j) x^(m-j) U_(n-m-j)(x) with U_N = 0 for
    # N < 0, i.e. sum_n P(m, n) t^n = (t (x - t))^m / (1 - 2xt + t^2), built
    # from the three-term recurrence alone
    for m in range(9):
        for n in range(65):
            expected = [0] * (n + 1)
            weight = 1  # (-1)^j C(m, j)
            for j in range(min(m, n - m) + 1):
                u = chebyshev_oracle("second", n - m - j)
                for power, c in enumerate(u, m - j):
                    expected[power] += weight * c
                weight = -weight * (m - j) // (j + 1)
            assert polynomial(m, n) == expected, (m, n)
