"""One round of a workload in a fresh process, so every cache starts cold.

Run by ``run.py`` as ``python worker.py '<json config>'``.  The worker
imports ``insets``, builds the seeded inputs, reports the moment it is ready
(set-up ends there), runs the fixed job while timing every call into a
layer, then checks every output outside the timed region.  An output whose
digest equals that of an output an earlier round of the same run already
checked needs no second check; traced rounds check everything again.  The
checks are costly: on a 2-core VM they took 6.9 s against a 3.7 s job for
the verify-suite part of ``library`` and 2.9 s against a 6.3 s job for its
big-values part, so checking every round would halve the rounds a run can
time.  Its last stdout line is
one JSON object for ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import insets  # noqa: F401  (import cost belongs to set-up)
from insets import chebyshev, core, identities, oeis, oracles, registry, series, words

import checks
import spans
import workloads

CLI_TIMEOUT_S = 120.0
PROBES = 5


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_cli(argv: list[str], root: Path) -> tuple[int, bytes, str, float]:
    """One CLI child: exit code, stdout, stderr and its own peak RSS in MB."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=root,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[object, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + CLI_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map() and time.monotonic() < deadline:
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
        timed_out = bool(sel.get_map())
    if timed_out:
        proc.kill()
    # wait4 rather than wait: it returns this child's own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stderr = b"".join(chunks[proc.stderr]).decode("utf-8", "replace")
    if timed_out:
        stderr = f"timed out after {CLI_TIMEOUT_S} s"
    return proc.returncode, b"".join(chunks[proc.stdout]), stderr, usage.ru_maxrss / 1024


def _calls(root: Path) -> dict:
    """Each input kind mapped to the library call it times."""
    loaded: dict[str, oeis.BFile] = {}

    def load(fixture_id: str) -> oeis.BFile:
        loaded[fixture_id] = oeis.load(fixture_id)
        return loaded[fixture_id]

    gf = {"m": series.gf_in_m, "n": series.gf_in_n, "k": series.gf_in_k}
    calls = {
        "core.inset": core.inset,
        "core.trapeze_table": core.trapeze_table,
        "chebyshev.polynomial": chebyshev.polynomial,
        "chebyshev.oracle": chebyshev.chebyshev_oracle,
        "series.gf": lambda which, a, b, order: gf[which](a, b, order),
        "registry.generate": registry.generate,
        "registry.validate": lambda key, fixture_id: registry.validate(key, loaded[fixture_id]),
        "oeis.load": load,
        "identities.verify": identities.verify,
        "words.enumerate": words.enumerate_words,
        "words.bruteforce": words.count_bruteforce,
        "oracles.delannoy_paths": oracles.delannoy_paths,
        "oracles.lattice_points": oracles.lattice_points,
        "oracles.weak_compositions_with_zeros": oracles.weak_compositions_with_zeros,
    }
    for sub in (*workloads.CLI_SUBCOMMANDS, "words_prefix"):
        calls[f"cli.{sub}"] = lambda *argv: run_cli(["-m", "insets", *argv], root)
    return calls


def _work(kind: str, out: object) -> dict[str, int]:
    """Work counts of one call, for the traced run; ``identities.cells``, the
    values the grids read, is counted while checking."""
    if kind == "core.inset":
        return {"core.inset.calls": 1, "core.inset.result_bits": out.bit_length()}
    if kind == "core.trapeze_table":
        return {"core.trapeze_table.cells": sum(map(len, out))}
    if kind == "chebyshev.polynomial":
        return {"chebyshev.polynomial.coeffs": len(out)}
    if kind == "series.gf":
        return {"series.gf.coeffs": len(out)}
    if kind == "registry.generate":
        return {"registry.generate.terms": len(out.values)}
    if kind == "registry.validate":
        return {"registry.validate.terms": out.agreed}
    if kind == "oeis.load":
        return {"oeis.load.entries": len(out)}
    if kind == "words.enumerate":
        return {"words.enumerate.words": len(out)}
    if kind.startswith("oracles."):
        return {"oracles.calls": 1}
    if kind.startswith("cli."):
        return {"cli.stdout_bytes": len(out[1])}
    return {}


def main(cfg: dict) -> dict:
    root = Path(cfg["root"])
    ops = workloads.make_inputs(cfg["workload"], cfg["seed"], cfg["tiny"])
    calls = _calls(root)
    ready = time.monotonic()
    if cfg["setup_only"]:
        return {"ready": ready}

    tracer = spans.Tracer() if cfg["trace"] else None
    results, times = [], []
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    if tracer:
        tracer.begin("job")
    for i, (kind, args) in enumerate(ops):
        if tracer:
            tracer.begin(kind, op=i)
        t0 = time.perf_counter()
        try:
            out = calls[kind](*args)
        except Exception as exc:  # a failed call is counted, not fatal
            out = exc
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end()
        results.append(out)
    if tracer:
        tracer.end()
    wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0
    if workloads.is_cli(cfg["workload"]):
        rss = [out[3] for out in results if isinstance(out, tuple)]
        peak_rss = max(rss, default=0.0)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer: dict[str, float] = {}
    if tracer:
        by_kind: dict[str, list[float]] = {}
        for (kind, args), out, t in zip(ops, results, times):
            by_kind.setdefault(kind, []).append(t)
            if kind == "identities.verify":
                layer[f"identities.{args[0]}.s"] = layer.get(f"identities.{args[0]}.s", 0.0) + t
            if kind == "cli.words_prefix" and isinstance(out, tuple):
                layer["cli.words_prefix.peak_rss_mb"] = max(
                    layer.get("cli.words_prefix.peak_rss_mb", 0.0), out[3])
            if not isinstance(out, Exception):
                for name, value in _work(kind, out).items():
                    layer[name] = layer.get(name, 0) + value
        for kind, kind_times in by_kind.items():
            if kind.startswith("cli."):
                layer[f"{kind}.p50_s"] = statistics.median(kind_times)
        if workloads.is_cli(cfg["workload"]):
            for name, argv in (("probe.interpreter", ["-c", "pass"]),
                               ("probe.import", ["-c", "import insets.cli"])):
                for _ in range(PROBES):
                    tracer.begin(name)
                    run_cli(argv, root)
                    tracer.end()

    checker = checks.Checker(root / "src" / "insets" / "fixtures")
    failures, digests = [], []
    verified = cfg.get("verified") or {}
    if tracer:
        tracer.begin("check")
    for i, ((kind, args), out) in enumerate(zip(ops, results)):
        checker.bump = 1 if cfg["fault"] and i == 0 else 0
        if isinstance(out, Exception):
            failures.append(f"{kind} {args}: {type(out).__name__}: {out}")
            digests.append(None)
            continue
        digest = _digest(out)
        # the same input gave an output already checked by an independent route
        if not tracer and verified.get(str(i)) == digest:
            digests.append(digest)
            continue
        try:
            checker.check(kind, args, out)
            digests.append(digest)
        except Exception as exc:  # a failed check is counted, not fatal
            failures.append(f"{kind} {args}: {type(exc).__name__}: {exc}")
            digests.append(None)
    if tracer:
        tracer.end()
        tracer.write(Path(cfg["trace_file"]))
        layer["spans"] = spans.aggregate(tracer.spans)
        layer["check.mismatches"] = len(failures)
        layer.update(checker.work)

    return {
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss,
        "times": times, "attempted": len(ops), "failures": failures, "layer": layer,
        "digests": digests,
    }


def _digest(out: object) -> str:
    if isinstance(out, tuple):  # a CLI child: exit code and stdout
        out = out[:2]
    return hashlib.sha256(repr(out).encode()).hexdigest()


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
