"""Aggregation of the span files written by bench/tracer.py.

Self time is a span's duration minus the time covered by its children in the
same process.  A span whose parent lives in another process (a sweep cell in
a forked pool worker) is a root of its own process: its time runs in
parallel with the parent and is not subtracted from it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import ROOT

SOLVE = "flow.solve_helmholtz"
STENCIL = "grid.laplacian_stencil"
CELL = "cli._sweep_cell"
SWEEP = "cli.cmd_sweep"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    bytes: int = 0


@dataclass
class Trace:
    stats: dict[str, Stat] = field(default_factory=lambda: defaultdict(Stat))
    item_roots: list[float] = field(default_factory=list)  # durations of the per-item root spans
    cells: list[float] = field(default_factory=list)  # durations of sweep cell spans
    sweeps: list[float] = field(default_factory=list)  # durations of cmd_sweep spans
    stencil_in_solve: int = 0
    traced_s: float = 0.0  # sum of root durations over all processes
    problems: list[str] = field(default_factory=list)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())


def load(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def analyse(spans: list[dict]) -> Trace:
    tr = Trace()
    by_pid: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_pid[s["pid"]].append(s)
    for pid, group in by_pid.items():
        ids = {s["id"]: s for s in group}
        covered = defaultdict(float)
        roots = []
        for s in group:
            parent = s["parent"]
            if parent is not None and parent[0] == pid:
                if parent[1] not in ids:
                    tr.problems.append(f"pid {pid}: span {s['name']} has no parent span {parent[1]}")
                    continue
                covered[parent[1]] += s["end"] - s["start"]
                if s["name"] == STENCIL and ids[parent[1]]["name"] == SOLVE:
                    tr.stencil_in_solve += 1
            else:
                roots.append(s)
        self_sum = 0.0
        for s in group:
            dur = s["end"] - s["start"]
            self_s = dur - covered[s["id"]]
            if self_s < -1e-9:
                tr.problems.append(f"pid {pid}: children of {s['name']} cover more than its {dur:.9f} s")
            self_sum += self_s
            st = tr.stats[s["name"]]
            st.calls += 1
            st.self_s += self_s
            st.total_s += dur
            st.bytes += s["bytes"]
            if s["name"] == CELL:
                tr.cells.append(dur)
            elif s["name"] == SWEEP:
                tr.sweeps.append(dur)
        root_sum = sum(s["end"] - s["start"] for s in roots)
        tr.traced_s += root_sum
        tr.item_roots.extend(s["end"] - s["start"] for s in roots if s["name"] == ROOT)
        if abs(self_sum - root_sum) > 1e-9 * max(1.0, len(group)):
            tr.problems.append(f"pid {pid}: self times sum to {self_sum:.9f} s, roots span {root_sum:.9f} s")
    return tr
