"""Smoke test of the benchmark itself, at tiny sizes.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload untraced and traced and asserts that each reports
exactly the metrics ``BENCHMARK.json`` names, with no failure; that a
deliberately wrong expected value is counted in ``failed``; that
``compare.py`` reads the records; and that ``run.py`` refuses, without a
result line, in a directory holding only the benchmark.  Exits 1 on the
first broken assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out") / "smoke"


def run(args: list[str], cwd: Path = Path(".")) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout


def bench(workload: str, seed: int, trace: int, *extra: str) -> dict:
    rc, out = run([str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", str(trace), "--tiny", *extra])
    if rc != 0:
        raise AssertionError(f"{workload} trace={trace} exited {rc}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    shutil.rmtree(OUT, ignore_errors=True)
    shutil.rmtree(Path(".perfbench_out") / "runs-tiny", ignore_errors=True)
    for trace in (0, 1):
        for w in spec["workloads"]:
            result = bench(w["name"], 1, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert set(result["metrics"]) == names[trace], (
                w["name"], trace, names[trace] ^ set(result["metrics"]))
            assert result["correct"] and result["failed"] == 0, (w["name"], result["failed"])
            print(f"ok   {w['name']} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} calls checked")

    for side in ("parent", "change"):
        shutil.copytree(Path(".perfbench_out") / "runs-tiny", OUT / side)
    rc, out = run([str(HERE / "compare.py"), str(OUT / "parent"), str(OUT / "change")])
    rows = [line for line in out.splitlines()[1:] if line.strip()]
    assert rc == 0 and len(rows) >= len(names[0]) * len(spec["workloads"]), out
    print(f"ok   compare: {len(rows)} rows")

    for w in spec["workloads"]:
        result = bench(w["name"], 1, 0, "--inject-fault")
        assert result["failed"] >= 1 and not result["correct"], (w["name"], result)
        print(f"ok   {w['name']}: a wrong expected value counts as "
              f"{result['failed']} failed of {result['attempted']}")

    bare = OUT / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    rc, out = run([*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                   "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert rc != 0 and not out.strip(), (rc, out)
    print(f"ok   without the program: exit {rc}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
