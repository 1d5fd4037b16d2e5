"""Benchmark of the hflow CLI on four seeded workloads.

    python3 bench/run.py --workload {decay,blowup,lemmas,sweep} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout.  The package is imported from
src/, as the tier-1 tests do; nothing is built or installed.  Each item of a
workload (see bench/workloads.py) runs in a fresh interpreter as
`python -m hflow.cli <command> --config <generated file>`, the way a user
runs `hflow`, so import cost and anything built lazily are paid per item.
Items of a pass run one after another (a closed loop with one client).

--trace 0  repeats untraced passes for S seconds and reports
           wall_s       median wall time of one pass (sum of its item walls)
           setup_s      median time for a fresh interpreter to import
                        hflow.cli and exit, after one untimed start
           peak_rss_mb  median over passes of the largest item resident set
           Times of single-process items are rescaled to a fixed machine
           speed by a reference kernel timed between the items (see
           REF_SHARE); the measured seconds are in the detail record.
--trace 1  alternates untraced and traced passes (bench/tracer.py wraps every
           public function of the seven modules) and reports per-layer
           metrics: calls and self time per function, derived flow, grid
           and sweep ratios, verdict counts and the tracing overhead.

Every item's artifacts are checked (bench/artifacts.py) and its fingerprint
(theorem codes, statuses, stop reasons, accepted/rejected steps) must repeat
in every pass.  The next-to-last stdout line is a JSON detail record
(quartiles, per-item times, fingerprint, machine); the last line is the
result {"correct", "attempted", "failed", "metrics"}.  All scratch files go
to .bench_work/ in the checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import artifacts
import spans
import workloads
from tracer import MODULES

CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK_ROOT = CHECKOUT / ".bench_work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 9

# On a shared 2-vCPU Xeon VM the machine's speed switched between a fast and a
# throttled state (up to 2x slower) every few seconds under sustained load
# (CPU frequency and pinning were not controlled).  A fixed numpy kernel in
# the style of the package, independent of the code under test, is timed
# between the untraced items for about REF_SHARE of each item's wall time (and
# once after each set-up sample, for setup_s), and the times of single-process
# items are rescaled by REF_NOMINAL_S / (mean kernel time).  The mean, not the
# median, because the kernel times are bimodal and an item's time grows with
# the share of throttled time.  Over ten seeds this cut the spread of wall_s
# (IQR / median) from 0.27 to 0.13 on decay, 0.16 to 0.075 on blowup and 0.20
# to 0.072 on lemmas.  A sweep item runs on every core at once and is not
# rescaled: the one-core kernel raised its spread from 0.09 to 0.16.
REF_SHARE = 0.15
REF_NOMINAL_S = 0.07  # about the kernel's time on the unthrottled machine: the unit of the rescaled times
# The kernel runs in a helper interpreter: every item is spawned from this
# process and its ru_maxrss would include this process's resident set.
REF_HELPER = """
import json, sys, time
import numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}), flush=True)
rng = np.random.default_rng(0)
fields = ((rng.random((3, 63, 63)), 250), (rng.random((3, 127, 127)), 50))
for _ in sys.stdin:
    start = time.perf_counter()
    for v, reps in fields:
        for _ in range(reps):
            p = np.pad(v, ((0, 0), (1, 1), (1, 1)))
            ux = p[:, 2:, 1:-1] - p[:, :-2, 1:-1]
            uy = p[:, 1:-1, 2:] - p[:, 1:-1, :-2]
            w = np.stack([ux[1] * uy[2] - ux[2] * uy[1], ux[2] * uy[0] - ux[0] * uy[2], ux[0] * uy[1] - ux[1] * uy[0]])
            float(np.sum(v * w)) + float(np.sum(ux * ux))
    print(time.perf_counter() - start, flush=True)
"""

FUNCTIONS = (
    "flow.solve_helmholtz",
    "grid.laplacian_stencil",
    "grid.gradient",
    "grid.wedge",
    "grid.h1_seminorm_sq",
    "functionals.report",
    "functionals.volume_integral",
    "functionals.energy_E",
    "functionals.nehari_D_delta",
    "functionals.isoperimetric_gap",
    "nehari.estimate_d",
    "nehari.fibering_coeffs",
    "nehari.golden_section_peak",
    "nehari.sample_lambda_Lambda",
    "nehari.optimal_bubble",
    "fields.random_bandlimited",
    "classify.classify_initial",
    "classify.blowup_report",
    "classify.check_e54",
    "cli.load_config",
    "cli.build_initial_condition",
    "cli.write_trajectory_csv",
    "cli.write_json",
)
THEOREMS = ("t21", "t22", "t31", "t32", "t51.1", "t51.2", "t52", "none")
STATUSES = ("decayed-to-zero", "reached-horizon", "blowup-suspected")
STOP_REASONS = ("gradient-threshold", "dt-collapse", "none")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    [(f"{f}.calls", "count", "lower") for f in FUNCTIONS]
    + [(f"{f}.self_s", "s", "lower") for f in FUNCTIONS]
    + [
        ("flow.solve_helmholtz.ms_per_call", "ms", "lower"),
        ("flow.stencil_per_solve", "count", "lower"),
        ("flow.run.self_s", "s", "lower"),
        ("flow.us_per_step", "us", "lower"),
        ("flow.steps_accepted", "count", "lower"),
        ("flow.steps_rejected", "count", "lower"),
        ("flow.accept_ratio", "ratio", "higher"),
        ("flow.solve_subtree_share", "ratio", "lower"),
        ("flow.energy_residual_rel", "ratio", "lower"),
        ("grid.laplacian_stencil.bytes_computed", "B", "lower"),
        ("cli.bytes_written", "B", "lower"),
        ("cli.sweep.imbalance", "ratio", "lower"),
        ("cli.sweep.busy_share", "ratio", "higher"),
    ]
    + [(f"layer.{m}.self_s", "s", "lower") for m in MODULES]
    + [
        ("item.outside_trace_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("failed_share", "ratio", "lower"),
    ]
    + [(f"classify.theorem.{c}", "count", "higher") for c in THEOREMS]
    + [(f"flow.status.{s}", "count", "higher") for s in STATUSES]
    + [(f"flow.stop_reason.{r}", "count", "higher") for r in STOP_REASONS]
)
UNITS = dict(END_TO_END, **{name: unit for name, unit, _ in PER_LAYER})
# per-layer values that are counts of deterministic work: taken from the
# first traced pass and required to repeat in every other one
COUNTED = {name for name, unit, _ in PER_LAYER if unit in ("count", "B")} | {"flow.energy_residual_rel"}


class RefKernel:
    """Helper interpreter that times REF_HELPER's kernel once per request."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", REF_HELPER], cwd=CHECKOUT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.info = json.loads(self.proc.stdout.readline())

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float
    item_walls: list[float]
    results: list[artifacts.ItemResult]
    bytes_written: int
    trace: spans.Trace | None = None

    @property
    def runs(self) -> list[artifacts.RunInfo]:
        return [r for res in self.results for r in res.runs]

    def fingerprint(self) -> list[dict]:
        return [res.fingerprint() for res in self.results]


class Runner:
    def __init__(self, items: list[workloads.Item], work: Path):
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.items = items
        self.ref_samples: list[float] = []
        self.kernel: RefKernel | None = None
        self.names = [f"{k}-{item.name}" for k, item in enumerate(self.items)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.configs = []
        for name, item in zip(self.names, self.items):
            path = work / "configs" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(item.config, indent=2) + "\n", encoding="utf-8")
            self.configs.append(path)

    def spawn(self, argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
        """(wall s, exit code, max RSS MB) of one child process, killed at the run deadline."""
        with open(stderr_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=CHECKOUT, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def setup_times(self, samples: int) -> tuple[list[float], list[float]]:
        """Import times of `samples` fresh interpreters and kernel times taken between them."""
        argv = [sys.executable, "-c", "import hflow.cli"]
        times, kernel = [], []
        for k in range(samples + 1):
            wall, rc, _ = self.spawn(argv, self.work / "stderr-setup.txt")
            if rc != 0:
                err = (self.work / "stderr-setup.txt").read_text(encoding="utf-8").strip()
                raise RuntimeError(f"importing hflow.cli failed with exit code {rc}: {err}")
            if k:  # the first start writes the bytecode caches
                times.append(wall)
                kernel.append(self.kernel_time())
        return times, kernel

    def kernel_time(self) -> float:
        if self.kernel is None:
            self.kernel = RefKernel(self.env)
        return self.kernel.time()

    def sample_speed(self, seconds: float) -> None:
        """Time the reference kernel for about `seconds`, at least once."""
        end = time.perf_counter() + seconds
        self.ref_samples.append(self.kernel_time())
        while time.perf_counter() < end:
            self.ref_samples.append(self.kernel_time())

    def close(self) -> None:
        if self.kernel is not None:
            self.kernel.close()

    def run_pass(self, traced: bool) -> Pass:
        out_root = self.work / "out"
        trace_dir = self.work / "spans"
        for d in (out_root, trace_dir):
            shutil.rmtree(d, ignore_errors=True)
        walls, rss, results = [], [], []
        for name, item, cfg in zip(self.names, self.items, self.configs):
            out = out_root / name
            args = [item.command, "--config", str(cfg), "--out", str(out)]
            if traced:
                argv = [sys.executable, str(TRACER), str(trace_dir), name, "--", *args]
            else:
                argv = [sys.executable, "-m", "hflow.cli", *args]
            stderr_path = self.work / f"stderr-{name}.txt"
            wall, rc, mb = self.spawn(argv, stderr_path)
            walls.append(wall)
            rss.append(mb)
            res = artifacts.check_item(item.command, item.config, rc, out)
            if rc != 0:
                tail = stderr_path.read_text(encoding="utf-8").strip().splitlines()[-1:]
                res.failures.extend(f"{name}: {line}" for line in tail)
            results.append(res)
            if not traced:
                self.sample_speed(REF_SHARE * wall)
        written = sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file())
        trace = spans.analyse(spans.load(trace_dir)) if traced else None
        return Pass(sum(walls), max(rss), walls, results, written, trace)

    def another_fits(self, window_start: float, seconds: int, round_s: float) -> bool:
        """Whether a round as long as the last one still ends inside the measuring window."""
        now = time.perf_counter()
        return now + round_s <= window_start + seconds and now + 1.5 * round_s < self.deadline


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def check_passes(passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): item failures and fingerprints that did not repeat."""
    attempted = sum(len(p.results) for p in passes)
    failed = sum(1 for p in passes for res in p.results if res.failures)
    problems = [f for p in passes for res in p.results for f in res.failures]
    first = passes[0].fingerprint()
    for k, p in enumerate(passes[1:], start=1):
        if p.fingerprint() != first:
            problems.append(f"pass {k} fingerprint differs from pass 0")
    return attempted, failed, problems


def self_test(p: Pass, runner: Runner) -> list[str]:
    """Consistency of one traced pass with its artifacts."""
    tr = p.trace
    problems = list(tr.problems)
    solves = tr.stat(spans.SOLVE).calls
    accepted = sum(r.accepted for r in p.runs)
    rejected = sum(r.rejected for r in p.runs)
    if solves != accepted + rejected:
        problems.append(f"traced solves {solves} != accepted {accepted} + rejected {rejected}")
    if len(tr.item_roots) != len(runner.items):
        problems.append(f"{len(tr.item_roots)} item root spans for {len(runner.items)} items")
    cells = sum(len(res.runs) for item, res in zip(runner.items, p.results) if item.command == "sweep")
    if len(tr.cells) != cells:
        problems.append(f"{len(tr.cells)} sweep cell spans for {cells} cells")
    return problems


def layer_metrics(p: Pass, runner: Runner) -> dict[str, float]:
    tr = p.trace
    stat = tr.stat
    runs = p.runs
    m: dict[str, float] = {}
    for f in FUNCTIONS:
        m[f"{f}.calls"] = stat(f).calls
        m[f"{f}.self_s"] = stat(f).self_s
    solve = stat(spans.SOLVE)
    accepted = sum(r.accepted for r in runs)
    m["flow.solve_helmholtz.ms_per_call"] = 1e3 * solve.total_s / solve.calls if solve.calls else 0.0
    m["flow.stencil_per_solve"] = tr.stencil_in_solve / solve.calls if solve.calls else 0.0
    m["flow.run.self_s"] = stat("flow.run").self_s
    m["flow.us_per_step"] = 1e6 * stat("flow.run").total_s / accepted if accepted else 0.0
    m["flow.steps_accepted"] = accepted
    m["flow.steps_rejected"] = solve.calls - accepted
    m["flow.accept_ratio"] = accepted / solve.calls if solve.calls else 0.0
    m["flow.solve_subtree_share"] = solve.total_s / tr.traced_s if tr.traced_s else 0.0
    settled = [r.energy_residual_rel for r in runs if r.status in artifacts.SETTLED]
    m["flow.energy_residual_rel"] = max(settled, default=0.0)
    m["grid.laplacian_stencil.bytes_computed"] = stat(spans.STENCIL).bytes
    m["cli.bytes_written"] = p.bytes_written
    cells = tr.cells
    m["cli.sweep.imbalance"] = max(cells) / statistics.fmean(cells) if cells else 0.0
    workers = sum(it.processes for it in runner.items if it.command == "sweep")
    sweep_wall = sum(tr.sweeps)
    m["cli.sweep.busy_share"] = sum(cells) / (workers * sweep_wall) if cells and sweep_wall else 0.0
    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = sum(s.self_s for name, s in tr.stats.items() if name.startswith(mod + "."))
    m["item.outside_trace_s"] = p.wall_s - sum(tr.item_roots)
    m["trace.wall_s"] = p.wall_s
    m["failed_share"] = sum(1 for res in p.results if res.failures) / len(p.results)
    for c in THEOREMS:
        m[f"classify.theorem.{c}"] = sum(r.theorem == c for r in runs)
    for s in STATUSES:
        m[f"flow.status.{s}"] = sum(r.status == s for r in runs)
    for reason in STOP_REASONS:
        m[f"flow.stop_reason.{reason}"] = sum((r.stop_reason or "none") == reason for r in runs)
    return m


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine(seed: int, numpy_info: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        **numpy_info,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "commit": git_commit(),
        "seed": seed,
        "note": "CPU frequency scaling and core pinning were not controlled",
    }


def git_commit() -> str:
    head = CHECKOUT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (CHECKOUT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure(runner: Runner, seconds: int, trace: bool) -> tuple[dict, dict, int, int, list[str]]:
    untraced, traced = [], []
    detail: dict = {}
    if trace:
        runner.setup_times(0)
    else:
        setup, setup_kernel = runner.setup_times(SETUP_SAMPLES)
        detail.update(setup_s_samples=setup, setup_kernel_s=setup_kernel)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(runner.run_pass(traced=False))
        if trace:
            traced.append(runner.run_pass(traced=True))
        if not runner.another_fits(start, seconds, time.perf_counter() - round_start):
            break
    attempted, failed, problems = check_passes(untraced + traced)
    walls = [p.wall_s for p in untraced]
    speed = REF_NOMINAL_S / statistics.fmean(runner.ref_samples)
    # the kernel runs on one core, so it rescales only items that do
    factors = [speed if it.processes == 1 else 1.0 for it in runner.items]
    rescaled = [sum(w * f for w, f in zip(p.item_walls, factors)) for p in untraced]
    q, mq = quartiles(rescaled), quartiles(walls)
    detail.update(
        wall_s={"median": q[1], "q1": q[0], "q3": q[2], "n": len(walls)},
        measured_wall_s={"median": mq[1], "q1": mq[0], "q3": mq[2], "n": len(walls)},
        ref_kernel_s=runner.ref_samples,
        rescale=speed,
        item_wall_s={n: [p.item_walls[k] for p in untraced] for k, n in enumerate(runner.names)},
        items={n: {"command": it.command, "config": it.config} for n, it in zip(runner.names, runner.items)},
        fingerprint=dict(zip(runner.names, untraced[0].fingerprint())),
    )
    if not trace:
        metrics = {
            "wall_s": statistics.median(rescaled),
            "setup_s": statistics.median(setup) * REF_NOMINAL_S / statistics.fmean(setup_kernel),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in untraced),
        }
        return metrics, detail, attempted, failed, problems

    per_pass = [layer_metrics(p, runner) for p in traced]
    for p in traced:
        problems.extend(self_test(p, runner))
    metrics = {}
    for name, _, _ in PER_LAYER:
        values = [m[name] for m in per_pass if name in m]
        if name in COUNTED:
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        elif values:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
    first = traced[0].trace
    detail["functions"] = [
        {"name": name, "calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
        for name, s in sorted(first.stats.items(), key=lambda kv: -kv[1].self_s)
    ]
    return metrics, detail, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hflow" / "cli.py").is_file():
        print(f"error: no hflow sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = None
    try:
        runner = Runner(workloads.items_for(args.workload, args.seed, nproc()), work)
        metrics, detail, attempted, failed, problems = measure(runner, args.seconds, bool(args.trace))
        detail["machine"] = machine(args.seed, runner.kernel.info)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    detail.update(workload=args.workload, trace=args.trace, problems=problems)
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
