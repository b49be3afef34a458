#!/usr/bin/env python3
"""Regenerate the committed sequence fixtures.

Every fixture is produced here from a route that does not go through the
package: closed-form polynomials, classical recurrences (Fibonacci, Catalan,
two-boundary Pascal), a lattice-path dynamic program for the Delannoy
family, a direct word-counting automaton for word-defined sequences, and a
brute-force triangle count for the multipartite-graph entry.  The test
suite then plays the package's formula route against these files.

Fixtures follow the b-file layout ("index value" per line, '#' comments).
The package only reads them and never fetches one: to compare a fixture
with oeis.org, download that sequence's b-file by hand and diff the two.

Usage: python tools/make_fixtures.py [output_dir]
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "src" / "insets" / "fixtures"


def exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    assert r == 0, (a, b)
    return q


def word_count(m: int, n: int, k: int) -> int:
    """Words over {0,1,2} of length m+n, k twos, zero-free m-prefix.

    Position-by-position automaton; state = number of 2s used so far.
    """
    if m < 0 or n < 0 or k < 0:
        return 0
    counts = [1]
    for _ in range(m):  # digits 1 or 2
        counts = [(counts[t] if t < len(counts) else 0)
                  + (counts[t - 1] if 0 < t <= len(counts) else 0)
                  for t in range(len(counts) + 1)]
    for _ in range(n):  # digits 0, 1, or 2
        counts = [2 * (counts[t] if t < len(counts) else 0)
                  + (counts[t - 1] if 0 < t <= len(counts) else 0)
                  for t in range(len(counts) + 1)]
    return counts[k] if k < len(counts) else 0


def delannoy(m: int, n: int) -> int:
    prev = [1] * (n + 1)
    for _ in range(m):
        cur = [1] * (n + 1)
        for j in range(1, n + 1):
            cur[j] = cur[j - 1] + prev[j] + prev[j - 1]
        prev = cur
    return prev[n]


def catalan_numbers(count: int) -> list[int]:
    cats = [1]
    while len(cats) < count:
        cats.append(sum(cats[j] * cats[len(cats) - 1 - j] for j in range(len(cats))))
    return cats


def fibonacci_numbers(count: int) -> list[int]:
    fib = [0, 1]
    while len(fib) < count:
        fib.append(fib[-1] + fib[-2])
    return fib[:count]


def multipartite_triangles(vertices: int) -> int:
    """Triangles in the complete multipartite graph with parts (2, 2, 1, ..., 1)."""
    assert vertices >= 4
    parts = [0, 0, 1, 1] + list(range(2, vertices - 2))
    return sum(
        1
        for a, b, c in combinations(range(vertices), 3)
        if parts[a] != parts[b] and parts[a] != parts[c] and parts[b] != parts[c]
    )


def antidiagonals(cells: int):
    d = 0
    emitted = 0
    while emitted < cells:
        for j in range(d + 1):
            if emitted == cells:
                return
            yield d, j
            emitted += 1
        d += 1


def sulanke_word(n: int, k: int) -> int:
    if (n + k) % 2 == 0:
        h = (n + k) // 2
        return word_count(h, h, k)
    return word_count((n + k - 1) // 2, (n + k + 1) // 2, k)


def two_boundary_pascal_rows(min_terms: int) -> list[int]:
    out = [1]
    row = [2, 1]
    while len(out) < min_terms:
        out.extend(row)
        row = [
            (row[k - 1] if k > 0 else 0) + (row[k] if k < len(row) else 0)
            for k in range(len(row) + 1)
        ]
    return out


def cell_table_values(min_terms: int) -> list[int]:
    out: list[int] = []
    n = 0
    while len(out) < min_terms:
        d_lo = (2 * n + 2) // 3
        d_hi = (3 * n + 4) // 4
        for d in range(d_lo, d_hi + 1):
            out.append(word_count(2, n - d + 2, 3 * d - 2 * n))
        n += 1
    return out


def build_all() -> dict[str, tuple[str, int, list[int]]]:
    """fixture id -> (provenance note, first index, values)."""
    n48 = range(48)
    cats = catalan_numbers(48)
    fixtures: dict[str, tuple[str, int, list[int]]] = {
        "A005408": ("odd numbers 2*i + 1", 0, [2 * i + 1 for i in n48]),
        "A000290": ("squares i^2", 0, [i * i for i in n48]),
        "A000330": (
            "square pyramidal i*(i+1)*(2i+1)/6",
            0,
            [exact_div(i * (i + 1) * (2 * i + 1), 6) for i in n48],
        ),
        "A002415": (
            "4-dimensional pyramidal i^2*(i^2-1)/12",
            0,
            [exact_div(i * i * (i * i - 1), 12) for i in n48],
        ),
        "A001844": ("centered squares 2i^2 + 2i + 1", 0, [2 * i * i + 2 * i + 1 for i in n48]),
        "A005900": (
            "octahedral i*(2i^2+1)/3",
            0,
            [exact_div(i * (2 * i * i + 1), 3) for i in n48],
        ),
        "A006325": (
            "4-dimensional centered polygonal i*(i-1)*(i^2-i+1)/6",
            0,
            [exact_div(i * (i - 1) * (i * i - i + 1), 6) for i in n48],
        ),
        "A001105": ("2*i^2", 0, [2 * i * i for i in n48]),
        "A058331": ("2*i^2 + 1", 0, [2 * i * i + 1 for i in n48]),
        "A072819": (
            "2*i^2*(i^2-1)/3",
            0,
            [exact_div(2 * i * i * (i * i - 1), 3) for i in n48],
        ),
        "A167667": ("3*i*2^(i-1)", 0, [exact_div(3 * i * (1 << i), 2) for i in n48]),
        "A002492": (
            "sum of first i even squares, 2*i*(i+1)*(2i+1)/3",
            0,
            [exact_div(2 * i * (i + 1) * (2 * i + 1), 3) for i in n48],
        ),
        "A001793": (
            "i*(i+3)*2^(i-3), from i = 1",
            1,
            [exact_div(i * (i + 3) * (1 << i), 8) for i in range(1, 49)],
        ),
        "A033455": (
            "self-convolution of the squares",
            0,
            [sum(j * j * (i - j) * (i - j) for j in range(i + 1)) for i in n48],
        ),
        "A051960": ("(3i+2)*Catalan(i)", 0, [(3 * i + 2) * cats[i] for i in n48]),
        "A000045": ("Fibonacci recurrence", 0, fibonacci_numbers(48)),
        "A000297": (
            "brute-force triangle count in complete multipartite graphs, parts (2,2,1,...)",
            0,
            [multipartite_triangles(i + 4) for i in n48],
        ),
        "A008288": (
            "lattice-path DP, square array by antidiagonals",
            0,
            [delannoy(j, d - j) for d, j in antidiagonals(48)],
        ),
        "A001850": ("lattice-path DP, central diagonal", 0, [delannoy(i, i) for i in range(40)]),
        "A001845": ("lattice-path DP, 3-dimensional ball counts", 0, [delannoy(i, 3) for i in n48]),
        "A001846": ("lattice-path DP, 4-dimensional ball counts", 0, [delannoy(i, 4) for i in n48]),
        "A001847": ("lattice-path DP, 5-dimensional ball counts", 0, [delannoy(i, 5) for i in n48]),
        "A005899": (
            "shell counts from 3-dimensional ball differences",
            0,
            [1] + [delannoy(i, 3) - delannoy(i - 1, 3) for i in range(1, 48)],
        ),
        "A008412": (
            "shell counts from 4-dimensional ball differences",
            0,
            [1] + [delannoy(i, 4) - delannoy(i - 1, 4) for i in range(1, 48)],
        ),
        "A008413": (
            "shell counts from 5-dimensional ball differences",
            0,
            [1] + [delannoy(i, 5) - delannoy(i - 1, 5) for i in range(1, 48)],
        ),
        "A002002": (
            "(D(i+1,i+1) - D(i,i))/2 via lattice-path DP",
            0,
            [exact_div(delannoy(i + 1, i + 1) - delannoy(i, i), 2) for i in range(30)],
        ),
        "A002003": (
            "(D(i,i) + D(i+1,i+1))/2 via lattice-path DP",
            0,
            [exact_div(delannoy(i, i) + delannoy(i + 1, i + 1), 2) for i in range(30)],
        ),
        "A181675": (
            "lattice-path DP, i-dimensional ball of radius i^2",
            0,
            [delannoy(i * i, i) for i in range(24)],
        ),
        "A049600": (
            "word automaton, square array m+n blocks with m twos, by antidiagonals",
            0,
            [word_count(j, d - j, j) for d, j in antidiagonals(45)],
        ),
        "A064861": (
            "word automaton, parity-split grid by antidiagonals",
            0,
            [sulanke_word(d - j, j) for d, j in antidiagonals(66)],
        ),
        "A176479": (
            "word automaton, length 2i with i twos and zero-free (i+1)-prefix, from i = 1",
            0,
            [word_count(i + 1, i - 1, i) for i in range(1, 31)],
        ),
        "A058396": (
            "word automaton, length n+3 with two twos and zero-free 3-prefix",
            0,
            [word_count(3, i, 2) for i in n48],
        ),
        "A029653": (
            "Pascal recurrence with boundaries 2 and 1, rows concatenated",
            0,
            two_boundary_pascal_rows(55),
        ),
        "braun_hough_cells": (
            "word automaton over the valid cells of the cell-count table, rows by n",
            0,
            cell_table_values(44),
        ),
    }
    return fixtures


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    for fixture_id, (note, first, values) in sorted(build_all().items()):
        name = f"b{fixture_id[1:]}.txt" if fixture_id.startswith("A") else f"{fixture_id}.txt"
        lines = [f"# {fixture_id}: {note}"]
        lines += [f"{first + i} {v}" for i, v in enumerate(values)]
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {name} ({len(values)} terms)")


if __name__ == "__main__":
    main()
