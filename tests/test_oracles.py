import ast
from pathlib import Path

import pytest

from insets import chebyshev, core, words
from insets.errors import CapExceededError
from insets.oracles import (
    delannoy_paths,
    lattice_points,
    weak_compositions_with_zeros,
)


@pytest.mark.parametrize(
    "m,n,expected",
    [(2, 2, 13), (5, 0, 1), (0, 7, 1), (1, 1, 3), (3, 3, 63)],
)
def test_delannoy_values(m, n, expected):
    assert delannoy_paths(m, n) == expected


def test_delannoy_symmetry():
    for m in range(9):
        for n in range(9):
            assert delannoy_paths(m, n) == delannoy_paths(n, m)


def test_delannoy_cap():
    with pytest.raises(CapExceededError):
        delannoy_paths(65, 2)


@pytest.mark.parametrize("corner", [(-1, 2), (2, -1)])
def test_delannoy_refuses_a_negative_corner(corner):
    with pytest.raises(ValueError, match="nonnegative"):
        delannoy_paths(*corner)


@pytest.mark.parametrize(
    "dim,radius,mode,expected",
    [
        (2, 1, "ball", 5),
        (3, 1, "sphere", 6),
        (3, 1, "ball", 7),
        (1, 0, "ball", 1),
        (4, 0, "sphere", 1),
        (1, 3, "sphere", 2),
    ],
)
def test_lattice_values(dim, radius, mode, expected):
    assert lattice_points(dim, radius, mode) == expected


def test_lattice_shells_partition_ball():
    for dim in range(1, 4):
        total = sum(lattice_points(dim, r, "sphere") for r in range(5))
        assert total == lattice_points(dim, 4, "ball")


def test_lattice_argument_errors():
    with pytest.raises(ValueError):
        lattice_points(0, 2)
    with pytest.raises(ValueError):
        lattice_points(2, -1)
    with pytest.raises(ValueError):
        lattice_points(2, 2, "shell")


def test_lattice_caps():
    with pytest.raises(CapExceededError):
        lattice_points(9, 1)
    with pytest.raises(CapExceededError):
        lattice_points(2, 13)


@pytest.mark.parametrize(
    "total,zeros,expected",
    [
        (2, 2, 9),
        (0, 0, 1),
        (0, 3, 1),
        (3, 1, 12),  # frozen regression value, fixed by this oracle
        (1, 1, 2),
        (2, 1, 5),
    ],
)
def test_weak_composition_values(total, zeros, expected):
    assert weak_compositions_with_zeros(total, zeros) == expected


def test_weak_composition_cap():
    with pytest.raises(CapExceededError):
        weak_compositions_with_zeros(10, 7)
    with pytest.raises(ValueError):
        weak_compositions_with_zeros(-1, 0)


# The reference routes outside insets.oracles, by module.  Each stands apart
# from the fast paths it is checked against only while it reaches none of
# them, in its own body or through a function of its own module.
_REFERENCE_ROUTES = [
    (core, ("inset_alternating", "inset_power_sum", "inset_binomial_sum", "inset_dp")),
    (words, ("count_bruteforce", "_counts_by_twos")),
    (chebyshev, ("chebyshev_oracle",)),
]
_FAST_PATHS = {
    "inset", "inset_row", "_binomial_product", "trapeze_table", "iter_words",
    "coeff", "polynomial", "_gf", "gf_in_m", "gf_in_n", "gf_in_k",
}


@pytest.mark.parametrize(
    "module,routes", _REFERENCE_ROUTES, ids=[m.__name__ for m, _ in _REFERENCE_ROUTES]
)
def test_reference_routes_reach_no_fast_path(module, routes):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, pending = set(), list(routes)
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        nodes = list(ast.walk(functions[name]))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        assert names.isdisjoint(_FAST_PATHS), (name, sorted(names & _FAST_PATHS))
        pending.extend(names & functions.keys())
