"""Compare the benchmark's result sets for a parent commit and a change.

Usage, from the root of a checkout:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run records as ``run.py`` writes them to
``.perfbench_out/runs/``; only untraced records count.  Runs of a workload
pair up in seed order, so two sets run on the same seeds pair by seed.  For
every workload and end-to-end metric of ``BENCHMARK.json`` one row gives each
side's median and quartiles, how many pairs the change won (ties count for
neither) and a verdict:

* ``improved``: the change won at least 9 of every 10 pairs and the medians
  differ by more than the parent's interquartile spread;
* ``unresolved``: either side's spread is wider than the metric's bound and
  not every run of the change reads better than every run of the parent;
* ``regressed``: the change's median is worse than the parent's by more than
  the bound;
* ``no worse``: otherwise, within the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load_runs(directory: Path) -> dict[tuple[str, int], dict[str, float]]:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        prov = record["provenance"]
        if not prov["trace"]:
            runs[prov["workload"], prov["seed"]] = {
                name: m["value"] for name, m in record["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    wins = sum(better(c, p) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if pairs and wins >= 0.9 * len(pairs) and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "improved", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all(better(c, p) for c in change for p in parent):
        return "unresolved", wins
    worse = (cm - pm) if lower_is_better else (pm - cm)
    if pm and worse / abs(pm) > bound:
        return "regressed", wins
    return "no worse", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    print(f"{'workload':<13} {'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>7}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [[side[key] for key in sorted(side) if key[0] == workload]
                for side in (parent, change)]
        if not all(runs):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(p[name], c[name]) for p, c in zip(*runs)]
            p = [x for x, _ in pairs]
            c = [y for _, y in pairs]
            result, wins = verdict(p, c, pairs, metric["bound"], metric["better"] == "lower")
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(f"{workload:<13} {name:<14} {f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':<34} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':<34} {f'{wins}/{len(pairs)}':>7}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
