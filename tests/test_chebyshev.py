import pytest

from insets.chebyshev import chebyshev_oracle, coeff, polynomial
from insets.words import enumerate_words


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


def test_second_kind_reproduced():
    for n in range(17):
        assert polynomial(0, n) == chebyshev_oracle("second", n), n


def test_first_kind_reproduced():
    for n in range(1, 17):
        assert polynomial(1, n) == chebyshev_oracle("first", n), n


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


def test_polynomial_examples():
    assert polynomial(0, 2) == [-1, 0, 4]
    assert polynomial(1, 4) == [1, 0, -8, 0, 8]
    assert polynomial(0, 0) == [1]


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


def test_magnitudes_count_words():
    for m in range(4):
        for n in range(13):
            for k in range(n % 2, n + 1, 2):
                half_sum = (n + k) // 2
                if half_sum < m:
                    continue
                count = len(enumerate_words(m, half_sum - m, (n - k) // 2))
                assert abs(coeff(m, n, k)) == count, (m, n, k)


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
