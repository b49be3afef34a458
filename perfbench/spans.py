"""Spans kept in memory, written out at exit, and aggregated per layer.

A span is ``[id, name, start, end, parent, op]``: the layer call it times
(``core.inset``, ``cli.seq``, ...), its ``perf_counter`` interval, the id of
the span that caused it, and the index of the workload input it belongs to.
The layer of a span is its name up to the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, op: int | None = None) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, op])
        self._open.append(sid)
        return sid

    def end(self) -> None:
        self.spans[self._open.pop()][3] = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name and per layer: summed time ``s``, self time and count."""
    own = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "n": 0})
    for sid, name, start, end, _, _ in spans:
        for key in (name, "layer:" + name.split(".", 1)[0]):
            agg[key]["s"] += end - start
            agg[key]["self_s"] += own[sid]
            agg[key]["n"] += 1
    return dict(agg)
