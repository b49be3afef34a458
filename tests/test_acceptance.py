"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything runs offline against the committed fixtures; all value
comparisons are exact.  Stated runtime budgets are asserted with
wall-clock measurements around the relevant work.
"""

import json
import subprocess
import sys
import time

from insets import chebyshev, identities, oeis, registry, series
from insets.core import (
    inset,
    inset_alternating,
    inset_binomial_sum,
    inset_dp,
    inset_power_sum,
)
from insets.oracles import (
    delannoy_paths,
    lattice_points,
    weak_compositions_with_zeros,
)
from insets.words import count_bruteforce, enumerate_words


def _report(criterion: int, label: str, checker) -> None:
    try:
        checker()
    except BaseException:
        print(f"ACCEPTANCE {criterion} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {criterion} PASS: {label}")


def test_criterion_1_published_values():
    def check():
        start = time.perf_counter()
        assert inset(1, 3, 2) == 18
        assert inset(1, 3, 3) == 7
        assert inset(2, 3, 4) == 8
        assert inset(2, 2, 2) == 13
        assert inset(3, 2, 3) == 19
        assert inset(0, 0, 0) == 1
        assert set(enumerate_words(0, 3, 2)) == {
            "221", "212", "122", "220", "202", "022",
        }
        assert set(enumerate_words(1, 3, 2)) == {
            "1022", "1122", "1202", "1212", "1220", "1221", "2200", "2211",
            "2210", "2201", "2020", "2121", "2021", "2120", "2002", "2112",
            "2012", "2102",
        }
        assert set(enumerate_words(1, 3, 3)) == {
            "1222", "2122", "2022", "2212", "2202", "2221", "2220",
        }
        assert set(enumerate_words(2, 3, 4)) == {
            "12222", "21222", "22122", "22212", "22221", "22220", "22202",
            "22022",
        }
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    _report(1, "published values and word lists reproduced exactly", check)


def test_criterion_2_four_method_agreement():
    def check():
        start = time.perf_counter()
        for m in range(13):
            for n in range(13):
                for k in range(m + 2 * n + 3):
                    reference = inset_binomial_sum(m, n, k)
                    assert inset_alternating(m, n, k) == reference, (m, n, k)
                    assert inset_power_sum(m, n, k) == reference, (m, n, k)
                    assert inset_dp(m, n, k) == reference, (m, n, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"

    _report(2, "four evaluation methods agree on the full grid", check)


def test_criterion_3_bijection():
    def check():
        start = time.perf_counter()
        for total in range(13):
            for m in range(total + 1):
                n = total - m
                for k in range(total + 1):
                    expected = inset(m, n, k)
                    assert len(enumerate_words(m, n, k)) == expected, (m, n, k)
                    assert count_bruteforce(m, n, k) == expected, (m, n, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"

    _report(3, "enumeration, brute force, and formulas agree (m+n <= 12)", check)


def test_criterion_4_identity_suite():
    def check():
        start = time.perf_counter()
        reports = identities.verify_all(12, 12)
        assert len(reports) == 13
        for report in reports:
            assert report.passed, (report.identity, report.counterexample)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"

        def off_by_one(m, n, k):
            return inset(m, n, k) + (1 if (m, n, k) == (2, 1, 1) else 0)

        faulty = identities.verify("pascal", 10, 10, inset_fn=off_by_one)
        assert not faulty.passed
        assert faulty.counterexample.params == (2, 1, 1)

    _report(4, "all 13 identities pass and an injected fault is caught", check)


def test_criterion_5_generating_functions():
    def check():
        order = 30
        for a in range(11):
            for b in range(11):
                by_m = series.gf_in_m(a, b, order)  # a = n, b = k
                for m in range(max(0, a - b), order + 1):
                    assert by_m[m] == inset(m + b - a, a, b), ("m", a, b, m)
                by_n = series.gf_in_n(a, b, order)  # a = m, b = k
                for n in range(order + 1):
                    if n + b >= a:
                        assert by_n[n] == inset(a, n + b - a, b), ("n", a, b, n)
                by_k = series.gf_in_k(a, b, order)  # a = m, b = n
                for k in range(order + 1):
                    assert by_k[k] == inset(a + k, b, k), ("k", a, b, k)

    _report(5, "three generating-function coefficient laws hold to order 30", check)


def test_criterion_6_chebyshev():
    def check():
        for n in range(17):
            assert chebyshev.polynomial(0, n) == chebyshev.chebyshev_oracle("second", n)
        for n in range(1, 17):
            assert chebyshev.polynomial(1, n) == chebyshev.chebyshev_oracle("first", n)
        assert abs(chebyshev.coeff(0, 4, 2)) == 12
        assert abs(chebyshev.coeff(1, 4, 2)) == 8
        for m in range(4):
            for n in range(13):
                for k in range(n % 2, n + 1, 2):
                    half_sum = (n + k) // 2
                    if half_sum < m:
                        continue
                    words = enumerate_words(m, half_sum - m, (n - k) // 2)
                    assert abs(chebyshev.coeff(m, n, k)) == len(words), (m, n, k)

    _report(6, "Chebyshev specializations and coefficient word counts", check)


def test_criterion_7_oracles():
    def check():
        for m in range(11):
            for n in range(11):
                assert delannoy_paths(m, n) == inset(m, n, n), (m, n)
        for dim in range(1, 6):
            for radius in range(9):
                assert lattice_points(dim, radius, "ball") == inset(radius, dim, dim)
                if radius >= 1:
                    assert lattice_points(dim, radius, "sphere") == inset(
                        radius - 1, dim, dim - 1
                    )
        assert weak_compositions_with_zeros(2, 2) == 9
        # resolved correspondence on the oracle grid (see decisions ledger):
        # wc(m, k) = inset(k+1, m-1, k); the transposed indexing printed in
        # the source material fails at (m, k) = (3, 2)
        for m in range(1, 9):
            for k in range(1, 7):
                assert weak_compositions_with_zeros(m, k) == inset(
                    k + 1, m - 1, k
                ), (m, k)

    _report(7, "path, lattice, and composition oracles match inset values", check)


def test_criterion_8_sequence_registry():
    def check():
        cfg = oeis.default_config()
        for entry in registry.list_entries():
            fixture = oeis.load(entry.fixture_id, cfg)
            report = registry.validate(entry.key, fixture)
            assert report.validated, (entry.key, report)
            assert report.agreed >= 15

        cats = [1]
        for i in range(12):
            cats.append(sum(cats[j] * cats[i - j] for j in range(i + 1)))
        for k in range(13):
            value = inset(2 * k, 1, k)
            assert value % (3 * k + 2) == 0
            assert value // (3 * k + 2) == cats[k]

        fib = [registry.fibonacci_by_insets(m) for m in range(21)]
        assert fib[3] == 8  # F_6
        for m in range(2, 21):
            assert fib[m] == fib[m - 1] + fib[m - 2]

    _report(8, "all catalog entries validate; Catalan and Fibonacci laws hold", check)


def test_criterion_9_cli_contract():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "insets", *args],
            capture_output=True,
            text=True,
        )

    def check():
        exact = [
            (("compute", "1", "3", "2"), "18\n"),
            (("compute", "0", "0", "0"), "1\n"),
            (("compute", "2", "3", "9"), "0\n"),
            (("seq", "odd_numbers", "4"), "1 3 5 7\n"),
            (("seq", "fibonacci", "4"), "2 3 5 8\n"),
            (("poly", "1", "4"), "1 0 -8 0 8\n"),
            (("poly", "0", "2"), "-1 0 4\n"),
            (("poly", "0", "0"), "1\n"),
            (("series", "k", "0", "0", "5"), "1 1 1 1 1 1\n"),
            (("series", "n", "0", "0", "5"), "1 2 4 8 16 32\n"),
            (("crosscheck", "delannoy"), "validated offset=0\n"),
        ]
        for args, expected in exact:
            result = run(*args)
            assert result.returncode == 0, (args, result.stderr)
            assert result.stdout == expected, (args, result.stdout)

        words = run("words", "0", "3", "2")
        lines = words.stdout.splitlines()
        assert set(lines[:-1]) == {"022", "122", "202", "212", "220", "221"}
        assert lines[-1] == "count 6" and words.returncode == 0
        assert len(run("words", "2", "3", "4").stdout.splitlines()) == 9

        verify_all = run("verify", "all", "8", "8")
        assert verify_all.returncode == 0
        assert len(verify_all.stdout.splitlines()) == 13
        assert all(l.startswith("PASS ") for l in verify_all.stdout.splitlines())
        assert run("verify", "pascal", "10", "10").stdout == "PASS pascal\n"
        checked = run("series", "m", "3", "2", "10", "--check")
        assert checked.returncode == 0
        assert checked.stdout.splitlines()[-1] == "PASS"

        # exit-status mapping: 0 ok, 1 verification failure, 2 usage, 3 fixture
        assert run("verify", "bogus", "2", "2").returncode == 2
        assert run("compute", "1").returncode == 2
        assert run("crosscheck", "delannoy", "--fixtures", "/nonexistent").returncode == 3
        doc = json.loads(run("compute", "1", "3", "2", "--format", "json").stdout)
        assert doc == {"m": 1, "n": 3, "k": 2, "value": "18"}

    _report(9, "CLI invocations byte-exact with documented exit statuses", check)
