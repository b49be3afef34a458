"""Seeded inputs for the benchmark's workloads, and how each input is run.

An input is a pair ``[kind, args]``.  ``kind`` names the layer and the call
(``core.inset``, ``cli.seq``, ...), ``args`` are plain JSON values.  The
seed picks every parameter; the same seed always gives the same list.  The
catalog keys, identity names and fixture lengths are written out here so
that a later change to the library cannot silently change a workload.

Ranges are narrow and sampled by strata, so the work per run hardly moves
from seed to seed: each class of call has a fixed count, and a range is cut
into as many equal slices as there are calls, one value per slice.
"""

from __future__ import annotations

import random

IDENTITY_NAMES = (
    "pascal", "vertical", "doubling", "alternating_shift", "horizontal_full",
    "horizontal_tail", "telescoping", "zeros_placement", "binomial_sum",
    "convolution", "shifted_window", "parity_shift", "first_row",
)

# (key, fixture id, terms in the committed fixture)
CATALOG = (
    ("odd_numbers", "A005408", 48), ("squares", "A000290", 48),
    ("square_pyramidal", "A000330", 48), ("pyramidal_4d", "A002415", 48),
    ("centered_square", "A001844", 48), ("octahedral", "A005900", 48),
    ("centered_octahedral", "A001845", 48), ("centered_polygonal_4d", "A006325", 48),
    ("dyck_pyramid_weight", "A001793", 48), ("bishop_moves", "A002492", 48),
    ("squares_convolution", "A033455", 48), ("delannoy", "A008288", 48),
    ("central_delannoy", "A001850", 40), ("asymmetric_delannoy", "A049600", 45),
    ("catalan_scaled", "A051960", 48), ("fibonacci", "A000045", 48),
    ("sulanke_even", "A064861", 66), ("sulanke_odd", "A064861", 66),
    ("crystal_ball_Z1", "A005408", 48), ("crystal_ball_Z2", "A001844", 48),
    ("crystal_ball_Z3", "A001845", 48), ("crystal_ball_Z4", "A001846", 48),
    ("crystal_ball_Z5", "A001847", 48), ("coordination_Z3", "A005899", 48),
    ("coordination_Z4", "A008412", 48), ("coordination_Z5", "A008413", 48),
    ("lucas_triangle", "A029653", 55), ("weak_comp_2zeros", "A058396", 48),
    ("turan_triangles", "A000297", 48), ("octahedron_surface", "A005899", 48),
    ("ccc_cliques", "A167667", 48), ("schroeder_peaks", "A002002", 30),
    ("partial_self_maps", "A002003", 30), ("dyck_central_peak", "A001105", 48),
    ("even_squares_sum", "A002492", 48), ("walk_variance", "A072819", 48),
    ("hyperbola_regions", "A058331", 48), ("dyck_two_levels", "A176479", 30),
    ("lee_sphere", "A181675", 24), ("braun_hough_cells", "braun_hough_cells", 45),
)

# full listings with m + n = 16 and 374k..398k words each
LISTINGS_16 = ((5, 11, 9), (6, 10, 4), (7, 9, 5), (7, 9, 8))
# the prefix listings, one with m + n = 17 and one with m + n = 18, 1.12M and
# 1.26M words; the seed picks only --limit and --format, because the listing
# cost of (m, n, k) varies up to 2.5x among lists of the same length
PREFIXES_17_18 = ((6, 11, 9), (10, 8, 8))

CLI_SUBCOMMANDS = ("compute", "table", "words", "verify", "series", "poly", "seq", "crosscheck")
FORMATS = ("plain", "json", "csv")

WORKLOADS = {
    "cli-session": {
        "why": "how people use the tool: one client running small insets commands, "
               "where interpreter start, import, argparse and output dominate",
        "loop": "closed loop, one client, sequential `python -m insets` subprocesses",
        "latency": "cli.",
        "ranges": {
            "per_subcommand": "4 of each of the 8 subcommands per round, formats "
                              "plain/json/csv in turn",
            "compute": "m, n <= 200, k <= min(200, m+n)",
            "table": "n in [4, 8], m_max in [20, 40]",
            "verify": "2 x all on the 8 x 8 grid + 2 x one identity, grids in [4, 8]",
            "series": "which m|n|k 4 each, --check, a, b in [0, 30], order in [50, 100]",
            "poly": "m in [0, 3], n in [20, 60]",
            "seq": "any catalog key, count in [20, min(60, fixture terms - 4)]",
            "crosscheck": "1 x all + 3 x one key",
            "words": "full listings, m + n in [6, 8]",
            "words_prefix": "2 prefix listings per round (6% of 34): words 6 11 9 and "
                            "words 10 8 8, 1.12M and 1.26M words, --limit in [1, 10]",
        },
    },
    # big-values and verify-suite share one workload: on a shared machine
    # whose speed drifts for tens of seconds, the figures steady only
    # when a run spans about a minute, and the time the benchmark may take
    # allows two workloads of that length, not three
    "library": {
        "why": "the library in-process with cold caches: big-values, then verify-suite, "
               "in one round",
        "loop": "in-process, fresh worker per round so every cache starts cold",
        "latency": "core.inset",
        "ranges": {
            "big-values": {
                "why": "big-integer work in core dominates: a few cold, large inset values, "
                       "Chebyshev polynomials, series, tables and sequences",
                "core.inset": "40 distinct calls, m, n in [600, 900] with m + n near 1500, "
                              "k/(m+n) in [0.35, 0.50]",
                "chebyshev.polynomial": "m = 0..3, degree in [300, 450]",
                "series.gf": "gf_in_m, gf_in_n, gf_in_k at order 512, parameters in "
                             "[100, 300], the largest to gf_in_k",
                "core.trapeze_table": "8 tables, n in [40, 80], m_max in [200, 300]",
                "registry.generate": "central_delannoy 280..300 terms, fibonacci 150..170, "
                                     "delannoy and sulanke_even 3600..4000, lee_sphere 40..60",
            },
            "verify-suite": {
                "why": "the library checking itself: many small repeated memo hits in core, "
                       "full word listings, fixture validation and the brute-force oracles",
                "identities.verify": "all 13 identities once each on the fixed 18 x 18 grid",
                "registry.validate": "all 40 entries on fixtures read with oeis.load",
                "words.enumerate": "2 full listings with m + n = 16, 374k..398k words",
                "words.bruteforce": "2 scans with m + n = 12",
                "chebyshev.oracle": "first and second kind twice each, degree in [40, 64]",
                "oracles": "4 each of delannoy_paths, lattice_points, "
                           "weak_compositions_with_zeros",
                "series.gf": "6 low-order expansions, order in [16, 32], parameters in [0, 12]",
            },
        },
    },
}

# which end-to-end metric each layer's metrics should move, and on which
# workload; a layer's metrics are the per-layer names of BENCHMARK.json that
# start with "<layer>."
LAYER_MAP = (
    {"layer": "core", "moves": ["wall_s", "cpu_s"], "workload": "library (big-values)",
     "note": "prediction: no change on cli-session"},
    {"layer": "chebyshev", "moves": ["wall_s"], "workload": "library (big-values)"},
    {"layer": "series", "moves": ["wall_s"], "workload": "library (big-values)"},
    {"layer": "registry", "moves": ["wall_s"],
     "workload": "library (generate in big-values, validate in verify-suite)"},
    {"layer": "oeis", "moves": ["latency_p50_s"], "workload": "cli-session",
     "note": "measured in-process in verify-suite; paid by every crosscheck invocation"},
    {"layer": "identities", "moves": ["wall_s", "peak_rss_mb"],
     "workload": "library (verify-suite)"},
    {"layer": "words", "moves": ["wall_s", "peak_rss_mb"], "workload": "library (verify-suite)",
     "note": "must not rise when cli-session gains from streaming"},
    {"layer": "oracles", "moves": [], "workload": "library (verify-suite)",
     "note": "should stay flat; these are checks"},
    {"layer": "cli", "moves": ["latency_p50_s (import and output)",
                               "wall_s and peak_rss_mb (prefix listings)"],
     "workload": "cli-session"},
)


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of ``count`` equal slices of [lo, hi], shuffled."""
    width = (hi - lo + 1) / count
    out = [lo + int(width * i + rng.random() * width) for i in range(count)]
    rng.shuffle(out)
    return out


def _formats(rng: random.Random, count: int) -> list[str]:
    out = [FORMATS[i % len(FORMATS)] for i in range(count)]
    rng.shuffle(out)
    return out


def _cli_inputs(rng: random.Random, tiny: bool) -> list[list]:
    per = 1 if tiny else 4
    ops: list[list] = []

    def add(sub: str, argvs: list[list]) -> None:
        for argv, fmt in zip(argvs, _formats(rng, len(argvs))):
            ops.append([f"cli.{sub}", [sub, *map(str, argv), "--format", fmt]])

    compute = []
    for _ in range(per):
        m, n = rng.randint(0, 200), rng.randint(0, 200)
        compute.append([m, n, rng.randint(0, min(200, m + n))])
    add("compute", compute)
    add("table", [[rng.randint(4, 8), rng.randint(20, 40)] for _ in range(per)])

    words = []
    for _ in range(per):
        total = rng.randint(6, 8)
        m = rng.randint(0, total)
        words.append([m, total - m, rng.randint(0, total)])
    add("words", words)

    alls = max(1, per // 4)
    lo, hi = (4, 8) if not tiny else (2, 3)
    # `verify all` is the slowest small command: with two of them on the
    # largest grid, right after the two prefix listings, the 90th percentile
    # of 34 calls falls between the two and no seeded call can take its place
    verify_alls = max(1, per // 2)
    grids = [[hi, hi]] * verify_alls + [[rng.randint(lo, hi), rng.randint(lo, hi)]
                                        for _ in range(per - verify_alls)]
    names = ["all"] * verify_alls + [rng.choice(IDENTITY_NAMES)
                                     for _ in range(per - verify_alls)]
    add("verify", [[name, *grid] for name, grid in zip(names, grids)])

    which = [("m", "n", "k")[i % 3] for i in range(per)]
    add("series", [[w, rng.randint(0, 30), rng.randint(0, 30), rng.randint(50, 100), "--check"]
                   for w in which])
    add("poly", [[rng.randint(0, 3), rng.randint(20, 60)] for _ in range(per)])

    seq = []
    for _ in range(per):
        key, _, terms = rng.choice(CATALOG)
        cap = min(60, terms - 4)
        seq.append([key, rng.randint(min(20, cap), cap)])
    add("seq", seq)

    keys = ["all"] * alls + [rng.choice(CATALOG)[0] for _ in range(per - alls)]
    add("crosscheck", [[key] for key in keys])

    if tiny:
        prefixes = [[4, 4, 3, "--limit", rng.randint(1, 10)]]
    else:
        prefixes = [[*p, "--limit", rng.randint(1, 10)] for p in PREFIXES_17_18]
    for argv, fmt in zip(prefixes, _formats(rng, len(prefixes))):
        ops.append(["cli.words_prefix", ["words", *map(str, argv), "--format", fmt]])

    rng.shuffle(ops)
    return ops


def _big_values_inputs(rng: random.Random, tiny: bool) -> list[list]:
    ops: list[list] = []
    calls, lo, hi = (4, 30, 60) if tiny else (40, 600, 900)
    seen = set()
    # slices are paired in a fixed order (m rising, n falling, so m + n stays
    # near lo + hi), so every seed times nearly the same spread of costs
    ms = sorted(_strata(rng, lo, hi, calls))
    ns = sorted(_strata(rng, lo, hi, calls), reverse=True)
    for m, n, pct in zip(ms, ns, sorted(_strata(rng, 35, 50, calls))):
        k = (m + n) * pct // 100
        while (m, n, k) in seen:
            k += 1
        seen.add((m, n, k))
        ops.append(["core.inset", [m, n, k]])
    dlo, dhi = (20, 30) if tiny else (300, 450)
    for m, d in zip(range(4), _strata(rng, dlo, dhi, 4)):
        ops.append(["chebyshev.polynomial", [m, d]])
    plo, phi, order = (5, 10, 32) if tiny else (100, 300, 512)
    # gf_in_k takes the largest parameters, so it always lands among the slow
    # calls and the 90th percentile stays inside the inset calls
    for which, a, b in zip("mnk", sorted(_strata(rng, plo, phi, 3)),
                           sorted(_strata(rng, plo, phi, 3))):
        ops.append(["series.gf", [which, a, b, order]])
    nlo, nhi, mlo, mhi = (4, 8, 10, 20) if tiny else (40, 80, 200, 300)
    tables = 4 if tiny else 8
    for n, m_max in zip(_strata(rng, nlo, nhi, tables), _strata(rng, mlo, mhi, tables)):
        ops.append(["core.trapeze_table", [n, m_max]])
    counts = {
        "central_delannoy": (10, 20) if tiny else (280, 300),
        "fibonacci": (10, 20) if tiny else (150, 170),
        "delannoy": (30, 60) if tiny else (3600, 4000),
        "sulanke_even": (30, 60) if tiny else (3600, 4000),
        "lee_sphere": (5, 10) if tiny else (40, 60),
    }
    for key, (clo, chi) in counts.items():
        ops.append(["registry.generate", [key, rng.randint(clo, chi)]])
    return ops


def _verify_suite_inputs(rng: random.Random, tiny: bool) -> list[list]:
    grid = 4 if tiny else 18
    ops: list[list] = [["identities.verify", [name, grid, grid]] for name in IDENTITY_NAMES]
    for key, fixture_id, _ in CATALOG:
        ops.append(["oeis.load", [fixture_id]])
        ops.append(["registry.validate", [key, fixture_id]])
    listings = [(4, 4, 3), (3, 5, 4)] if tiny else rng.sample(LISTINGS_16, 2)
    ops += [["words.enumerate", list(w)] for w in listings]
    span = 6 if tiny else 12
    for m in rng.sample(range(2, span - 1), 2):
        ops.append(["words.bruteforce", [m, span - m, rng.randint(0, span)]])
    for kind, n in zip(("first", "second", "first", "second"), _strata(rng, 40, 64, 4)):
        ops.append(["chebyshev.oracle", [kind, n]])
    for m, n in zip(_strata(rng, 30, 64, 4), _strata(rng, 30, 64, 4)):
        ops.append(["oracles.delannoy_paths", [m, n]])
    for i, (dim, radius) in enumerate(zip(_strata(rng, 2, 4, 4), _strata(rng, 4, 8, 4))):
        ops.append(["oracles.lattice_points", [dim, radius, ("ball", "sphere")[i % 2]]])
    for zeros, total in zip(_strata(rng, 1, 3, 4), _strata(rng, 3, 6, 4)):
        ops.append(["oracles.weak_compositions_with_zeros", [total, zeros]])
    for which, a, b, order in zip("mnkmnk", _strata(rng, 0, 12, 6), _strata(rng, 0, 12, 6),
                                  _strata(rng, 16, 32, 6)):
        ops.append(["series.gf", [which, a, b, order]])
    return ops


_MAKERS = {
    "cli-session": _cli_inputs,
    "library": lambda rng, tiny: _big_values_inputs(rng, tiny) + _verify_suite_inputs(rng, tiny),
}


def make_inputs(workload: str, seed: int, tiny: bool = False) -> list[list]:
    """The workload's fixed job for ``seed``: a list of ``[kind, args]``."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"), tiny)


def is_cli(workload: str) -> bool:
    return workload == "cli-session"


def latency_kind(workload: str, kind: str) -> bool:
    """Whether the calls of ``kind`` give the workload's latency figures: every
    CLI invocation, or the in-process call that does the workload's main work."""
    return kind.startswith(WORKLOADS[workload]["latency"])
