"""Span tracer for one hflow CLI invocation, recorded from outside the package.

Run as

    PYTHONPATH=src python bench/tracer.py TRACE_DIR ITEM_ID -- <hflow arguments>

It wraps every public function of the seven hflow modules and rebinds each
wrapper under every name that bound the original, in every module namespace
and in the package namespace: `from .grid import laplacian_stencil` makes
`flow.laplacian_stencil` a second binding, and the hottest calls go through
such bindings.  It then runs `hflow.cli.main` inside a root span named
`item`.

A span records its name, start, end, parent span and item id.  Spans stay in
memory and are appended to TRACE_DIR/spans-<pid>.jsonl whenever the
outermost open span of the process closes.  Sweep pool workers are forked
with the wrappers in place but exit without running atexit hooks; each cell
(`cli._sweep_cell`) is the outermost span of its worker, so its spans are
written when the cell returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

MODULES = ("grid", "fields", "functionals", "nehari", "flow", "classify", "cli")
# private functions wrapped as well: the per-cell entry point of sweep
PRIVATE = {"cli._sweep_cell"}
ROOT = "item"


def _laplacian_bytes(values, h):
    # computed, not measured: the input array read once and the output written once
    return 2 * values.nbytes


COMPUTED_BYTES = {"grid.laplacian_stencil": _laplacian_bytes}


class Tracer:
    def __init__(self, out_dir: Path, item: str):
        self.out_dir = Path(out_dir)
        self.item = item
        self.pid = os.getpid()
        self.seq = 0
        self.stack: list[int] = []
        self.done: list[tuple] = []
        self.fork_parent = None  # (pid, span id) open in the parent when this process was forked
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.fork_parent = [self.pid, self.stack[-1]] if self.stack else None
        self.pid = os.getpid()
        self.stack = []
        self.done = []

    def wrap(self, name: str, fn):
        count_bytes = COMPUTED_BYTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.seq += 1
            sid = self.seq
            parent = [self.pid, self.stack[-1]] if self.stack else self.fork_parent
            nbytes = count_bytes(*args, **kwargs) if count_bytes else 0
            self.stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.done.append((sid, parent, name, start, end, nbytes))
                if not self.stack:
                    self.flush()

        return traced

    def flush(self):
        if not self.done:
            return
        lines = [
            json.dumps(
                {"pid": self.pid, "id": sid, "parent": parent, "name": name, "start": start,
                 "end": end, "item": self.item, "bytes": nbytes}
            )
            for sid, parent, name, start, end, nbytes in self.done
        ]
        self.done = []
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _namespaces():
    mods = {m: importlib.import_module(f"hflow.{m}") for m in MODULES}
    return mods, [importlib.import_module("hflow"), *mods.values()]


def traceable(mods) -> dict:
    """{original function: span name} for every function the tracer wraps."""
    out = {}
    for m, mod in mods.items():
        for attr, obj in vars(mod).items():
            name = f"{m}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and (not attr.startswith("_") or name in PRIVATE)
            ):
                out[obj] = name
    return out


def install(tracer: Tracer) -> dict:
    """Wrap every traceable function and rebind it under every binding; returns {name: wrapper}."""
    mods, spaces = _namespaces()
    names = traceable(mods)
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    for ns in spaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(ns, attr, wrappers[obj])
    return {names[fn]: traced for fn, traced in wrappers.items()}


def unwrapped_bindings(wrappers: dict) -> list[str]:
    """Names in the hflow namespaces still bound to a function that has a wrapper."""
    originals = {traced.__wrapped__ for traced in wrappers.values()}
    _, spaces = _namespaces()
    return [
        f"{ns.__name__}.{attr}"
        for ns in spaces
        for attr, obj in vars(ns).items()
        if inspect.isfunction(obj) and obj in originals
    ]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_DIR ITEM_ID -- <hflow arguments>", file=sys.stderr)
        return 1
    trace_dir, item, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(Path(trace_dir), item)
    missed = unwrapped_bindings(install(tracer))
    if missed:
        print(f"tracer left unwrapped bindings: {', '.join(missed)}", file=sys.stderr)
        return 1
    cli = importlib.import_module("hflow.cli")
    return tracer.wrap(ROOT, cli.main)(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
