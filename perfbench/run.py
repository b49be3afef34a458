"""Benchmark of the insets library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py`` for their parameter ranges and reasons):
``cli-session`` and ``library``, whose round runs the ``big-values`` job and
then the ``verify-suite`` job in one process.  Every round runs the
workload's fixed job in a fresh worker process, so the ``inset`` memo and
the other module caches start cold, as they do for a user.  Rounds repeat
while they fit in ``--seconds``, at least three times.  Every figure is a
median: ``setup_s`` over every worker start, ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` over the untraced rounds.  ``latency_p50_s`` and
``latency_p90_s`` are taken over the job's timed calls, each call's time
being its median over the untraced rounds: each CLI invocation on
``cli-session`` and each ``inset`` call of the big-values part on
``library``.  The record keeps every round.

The metric names and units are those of ``BENCHMARK.json``: with
``--trace 0`` the last stdout line reports its ``end_to_end`` metrics, with
``--trace 1`` its ``per_layer`` ones.  Traced runs alternate untraced and
traced rounds; the traced ones record a span around every call into a layer
and give the per-layer metrics, and ``trace.overhead_s`` is the median traced
minus the median untraced ``wall_s``.  Every output is checked after the timed
job; ``failed`` counts failed calls and failed checks.  Each run also writes
a record with its provenance to ``.perfbench_out/runs/`` (``runs-tiny/`` for
``--tiny``) and, when traced, its spans to ``.perfbench_out/trace/``;
``compare.py`` reads the records.

Exit status: 0 with a result line, 2 without one when the checkout holds no
``src/insets`` package to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 20
ROUND_TIMEOUT_S = 170.0
# no round may end later than this into the 180 s a run may take
RUN_BUDGET_S = 120.0
MIN_ROUNDS = 3
LAYER_SPANS = {  # per-layer metric -> span name whose summed time it reports
    "core.inset.s": "core.inset",
    "core.trapeze_table.s": "core.trapeze_table",
    "chebyshev.polynomial.s": "chebyshev.polynomial",
    "chebyshev.oracle.s": "chebyshev.oracle",
    "series.gf.s": "series.gf",
    "registry.generate.s": "registry.generate",
    "registry.validate.s": "registry.validate",
    "oeis.load.s": "oeis.load",
    "identities.verify.s": "identities.verify",
    "words.enumerate.s": "words.enumerate",
    "words.bruteforce.s": "words.bruteforce",
    "oracles.s": "layer:oracles",
    "check.s": "check",
}
PROBE_SPANS = {"cli.interpreter_s": "probe.interpreter", "cli.import_s": "probe.import"}


def units(spec: dict, section: str) -> dict[str, str]:
    """The metrics of a ``BENCHMARK.json`` section with their units, in order."""
    return {m["name"]: m["unit"] for m in spec[section]}


def provenance(root: Path, args: argparse.Namespace, spec: dict) -> dict:
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    work = workloads.WORKLOADS[args.workload]
    return {
        "commit": commit or "unknown", "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "why": work["why"], "loop": work["loop"], "latency": work["latency"],
        "ranges": work["ranges"],
        "layer_map": [{**row, "metrics": [n for n in units(spec, "per_layer")
                                           if n.split(".", 1)[0] == row["layer"]]}
                      for row in workloads.LAYER_MAP],
    }


def spawn(cfg: dict, root: Path) -> tuple[dict | None, float, str]:
    """Run one worker; its result, the moment it was spawned, and any error."""
    # the worker and its CLI children import this checkout's insets, never fetch
    env = dict(os.environ, PYTHONPATH=str(root / "src"), INSETS_OFFLINE="1")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, spawned, f"worker timed out after {ROUND_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, spawned, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned, ""


def measure(args: argparse.Namespace, root: Path, spec: dict) -> dict:
    base = {"root": str(root), "workload": args.workload, "seed": args.seed,
            "tiny": args.tiny, "fault": args.inject_fault, "setup_only": False, "trace": False}
    ops = workloads.make_inputs(args.workload, args.seed, args.tiny)
    n_ops = len(ops)
    setups, errors = [], []
    for _ in range(SETUP_PROBES):
        res, spawned, err = spawn({**base, "setup_only": True}, root)
        if res is None:
            errors.append(err)
        else:
            setups.append(res["ready"] - spawned)

    rounds: list[dict] = []
    verified: dict[str, str] = {}
    attempted, failures = 0, []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        trace_file = (root / OUT_DIR / "trace"
                      / f"{args.workload}-seed{args.seed}-round{len(rounds)}.jsonl")
        res, spawned, err = spawn({**base, "trace": traced, "trace_file": str(trace_file),
                                   "verified": verified}, root)
        if res is None:
            attempted += n_ops
            failures += [f"round {len(rounds)}: {err}"] * n_ops
            errors.append(err)
            break
        res["traced"] = traced
        setups.append(res["ready"] - spawned)
        attempted += res["attempted"]
        failures += res["failures"]
        rounds.append(res)
        digests = res.pop("digests")
        if not verified:
            verified = {str(i): d for i, d in enumerate(digests) if d}
        now = time.monotonic()
        # at least three rounds: a traced run needs an untraced one beside
        # it, and cli-session's latency figures rest on 100 invocations.
        # Past that, no round starts that would end after --seconds, taking
        # the next round to last as long as this one.
        if (len(rounds) >= MIN_ROUNDS
                and now - start + now - spawned > min(args.seconds, RUN_BUDGET_S)):
            break

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    metrics: dict[str, float] = {}
    samples: dict[str, str] = {}
    if plain and setups:
        # A shared 2-core VM was seen to switch between speed regimes up to
        # ~1.4x apart for seconds to minutes at a time.  Every figure is a
        # median over the run, which one fast or slow spell moves little;
        # a best of a few rounds depends on whether a fast spell came by.
        latency = [statistics.median(r["times"][i] for r in plain)
                   for i, (kind, _) in enumerate(ops)
                   if workloads.latency_kind(args.workload, kind)]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "latency_p50_s": statistics.median(latency),
            "latency_p90_s": statistics.quantiles(latency, n=10)[8],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        median_of = f"median of {len(plain)} rounds"
        samples = {name: median_of for name in metrics}
        samples["setup_s"] = f"median of {len(setups)}"
        samples["latency_p50_s"] = samples["latency_p90_s"] = (
            f"{len(latency)} calls, each the median of {len(plain)} rounds")
    return {"metrics": metrics, "samples": samples,
            "layer": layer_metrics(traced, plain, spec) if traced and plain else {},
            "attempted": attempted, "failures": failures, "errors": errors, "setups": setups,
            "rounds": [{k: r[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "times")}
                       for r in rounds]}


def layer_metrics(traced: list[dict], plain: list[dict], spec: dict) -> dict[str, float]:
    """Per-layer metrics: times are medians over traced rounds, counts repeat exactly."""

    def med(get) -> float:
        return statistics.median(get(r["layer"]) for r in traced)

    def span(name: str, field: str):
        return lambda lay: lay["spans"].get(name, {}).get(field, 0.0)

    def probe(name: str):
        return lambda lay: (lay["spans"][name]["s"] / lay["spans"][name]["n"]
                            if name in lay["spans"] else 0.0)

    out: dict[str, float] = {}
    for name, unit in units(spec, "per_layer").items():
        if name == "trace.overhead_s":
            out[name] = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in plain))
        elif name in LAYER_SPANS:
            out[name] = med(span(LAYER_SPANS[name], "s"))
        elif name.endswith(".self_s"):
            out[name] = med(span("layer:" + name.removesuffix(".self_s"), "self_s"))
        elif name in PROBE_SPANS:
            out[name] = med(probe(PROBE_SPANS[name]))
        elif unit in ("s", "MB"):
            out[name] = med(lambda lay: lay.get(name, 0.0))
        else:
            out[name] = traced[0]["layer"].get(name, 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="shift one expected value, to show the checks count it")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "insets" / "__init__.py").is_file():
        print(f"error: no src/insets package under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    # the build step: byte-compile once so no timed round pays for it
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = measure(args, root, spec)
    failed = len(result["failures"])
    attempted = max(result["attempted"], 1)
    section, values = ("per_layer", result["layer"]) if args.trace else ("end_to_end",
                                                                        result["metrics"])
    expected = units(spec, section)
    metrics = {n: {"value": v, "unit": expected[n]} for n, v in values.items()}
    record = {"provenance": provenance(root, args, spec), **result, "failed": failed,
              "failed_frac": failed / attempted, "metrics": metrics}
    runs = "runs-tiny" if args.tiny else "runs"
    out = root / OUT_DIR / runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    for line in result["failures"][:20] + result["errors"][:5]:
        print(f"FAIL {line}")
    for name, m in metrics.items():
        note = result["samples"].get(name)
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}"
              + (f" ({note})" if note else ""))
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    correct = failed == 0 and set(metrics) == set(expected)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
