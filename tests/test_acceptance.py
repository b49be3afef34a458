"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything runs offline against the committed fixtures; all value
comparisons are exact.  Stated runtime budgets are asserted with
wall-clock measurements around the relevant work.
"""

import hashlib
import time
from pathlib import Path

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
                for k in range(total + 2):
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
            for k in range(7):
                assert weak_compositions_with_zeros(m, k) == inset(
                    k + 1, m - 1, k
                ), (m, k)

    _report(7, "path, lattice, and composition oracles match inset values", check)


def test_criterion_8_sequence_registry():
    def check():
        for entry in registry.list_entries():
            fixture = oeis.load(entry.fixture_id)
            report = registry.validate(entry.key, fixture)
            assert report.validated, (entry.key, report)
            assert -4 <= report.offset <= 4
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


def test_criterion_9_cli_contract(run_insets, tmp_path):
    corpus = (Path(__file__).parent / "golden" / "outputs.tsv").read_text(encoding="utf-8")

    def check():
        # one corpus line of each subcommand that exits 0, through a real
        # `python -m insets`: exit status, stdout length, sha256 of stdout and
        # of stderr.  tests/test_golden.py replays every line in process
        first = {}
        for fields in (line.split("\t") for line in corpus.splitlines()):
            if fields[1] == "0":
                first.setdefault(fields[0].split()[0], fields)
        for argv, *expected in first.values():
            result = run_insets(*argv.split())
            got = [str(result.returncode), str(len(result.stdout))] + [
                hashlib.sha256(data).hexdigest() for data in (result.stdout, result.stderr)
            ]
            assert got == expected, argv

        # exit-status mapping: 1 verification failure, 2 usage, 3 fixture
        bad = "\n".join(f"{i} {2 * i + 2}" for i in range(30))  # off by one everywhere
        (tmp_path / "b005408.txt").write_text(bad, encoding="utf-8")
        assert run_insets("crosscheck", "odd_numbers", "--fixtures", str(tmp_path)).returncode == 1
        assert run_insets("verify", "bogus", "2", "2").returncode == 2
        assert run_insets("compute", "1").returncode == 2
        void = str(tmp_path / "void")
        assert run_insets("crosscheck", "delannoy", "--fixtures", void).returncode == 3

    _report(9, "CLI invocations byte-exact with documented exit statuses", check)
