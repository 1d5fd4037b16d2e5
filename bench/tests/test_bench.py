"""Self-tests of the benchmark: wrapping, span accounting and artifact checks.

Run from the repository root with `python -m pytest -q bench/tests`.  The
traced passes use small grids and short horizons so the whole file runs in
seconds.
"""

import json
import subprocess
import sys

import pytest

import artifacts
import run
import workloads
from conftest import BENCH, REPO
from workloads import Item, simulate_config


def _short(cfg: dict, t_end: float) -> dict:
    cfg["time"]["t_end"] = t_end
    return cfg


def _bubble(eps=0.25):
    return {"type": "bubble", "center": [0.5, 0.5], "eps": eps}


SMALL_DECAY = Item("decay", "simulate", _short(simulate_config(15, {"direction": _bubble(), "lambda_multiple": 0.05}), 0.05))
SMALL_BLOWUP = Item("blowup", "simulate", simulate_config(31, {"direction": _bubble(), "lambda_multiple": 1.6}))
SMALL_LEMMAS = Item("lemmas", "verify-lemmas", {"grid": {"n": 15}, "seed": 3, "corpus": {"count": 3}})
SMALL_DEPTH = Item("depth", "compute-well-depth", {"grid": {"n": 15}})
SMALL_SWEEP_CFG = _short(simulate_config(15, {"direction": _bubble()}), 0.05)
SMALL_SWEEP_CFG["sweep"] = {"lambda_multiples": [0.3, 1.6], "max_workers": 2}
SMALL_SWEEP = Item("sweep", "sweep", SMALL_SWEEP_CFG)


def _traced_pass(items, tmp_path):
    runner = run.Runner(items, tmp_path)
    return runner, runner.run_pass(traced=True)


def test_every_binding_is_wrapped():
    code = (
        "import tracer; w = tracer.install(tracer.Tracer('unused', 'x'));"
        "import hflow.flow as f, hflow.functionals as fn, hflow.nehari as ne;"
        "assert tracer.unwrapped_bindings(w) == [], tracer.unwrapped_bindings(w);"
        "assert len(w) > 60 and all(hasattr(g, '__wrapped__') for g in"
        " (f.laplacian_stencil, fn.gradient, fn.wedge, fn.dot, fn.integrate, fn.h1_seminorm_sq,"
        "  ne.h1_seminorm_sq, ne.random_bandlimited))"
    )
    env = {"PYTHONPATH": f"{BENCH}:{REPO / 'src'}", "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_traced_flow_pass_matches_artifacts(tmp_path):
    runner, p = _traced_pass([SMALL_DECAY, SMALL_BLOWUP, SMALL_SWEEP], tmp_path)
    assert [res.failures for res in p.results] == [[], [], []]
    assert run.self_test(p, runner) == []
    solves = p.trace.stat("flow.solve_helmholtz").calls
    accepted = sum(r.accepted for r in p.runs)
    rejected = sum(r.rejected for r in p.runs)
    assert rejected > 0  # the blow-up run halves dt
    assert solves == accepted + rejected
    assert len(p.trace.cells) == 2
    metrics = run.layer_metrics(p, runner)
    assert metrics["flow.steps_rejected"] == rejected
    assert metrics["flow.stencil_per_solve"] > 1
    assert 0.0 < metrics["cli.sweep.busy_share"] <= 1.0


def test_lemmas_pass_makes_no_solve(tmp_path):
    runner, p = _traced_pass([SMALL_LEMMAS, SMALL_DEPTH], tmp_path)
    assert run.self_test(p, runner) == []
    assert p.trace.stat("flow.solve_helmholtz").calls == 0
    assert p.trace.stat("grid.gradient").calls > 0


def test_self_times_add_up_to_item_wall(tmp_path):
    _, p = _traced_pass([SMALL_DECAY], tmp_path)
    (root,) = p.trace.item_roots
    total_self = sum(s.self_s for s in p.trace.stats.values())
    assert total_self == pytest.approx(root, rel=1e-9)
    assert root < p.wall_s


def _write_run(out, verdict_over=None, energy_residual="0.5"):
    out.mkdir(parents=True)
    verdict = {
        "verdict": {"applicable_theorem": "t21", "expected_outcome": "global-decay"},
        "run": {"status": "decayed-to-zero", "stop_reason": None},
    }
    verdict.update(verdict_over or {})
    (out / "verdict.json").write_text(json.dumps(verdict))
    rows = ["t,dt,E,energy_residual", "0,0.0005,2,0", "0.0005,0.0005,1.5,0.1", f"0.00075,0.00025,1,{energy_residual}"]
    (out / "trajectory.csv").write_text("\n".join(rows) + "\n")


def test_artifact_checks_pass_a_valid_run(tmp_path):
    _write_run(tmp_path / "ok")
    res = artifacts.check_item("simulate", simulate_config(15, {}), 0, tmp_path / "ok")
    assert res.failures == []
    (info,) = res.runs
    assert (info.accepted, info.rejected) == (2, 1)
    assert info.energy_residual_rel == 0.25


@pytest.mark.parametrize(
    "case, expected",
    [
        ("exit", "exit code 1"),
        ("missing", "missing verdict.json"),
        ("nan-json", "non-finite NaN"),
        ("nan-csv", "non-finite"),
        ("contradiction", "contradicted"),
    ],
)
def test_artifact_checks_flag_failures(tmp_path, case, expected):
    out = tmp_path / case
    rc = 1 if case == "exit" else 0
    if case == "nan-json":
        out.mkdir()
        (out / "verdict.json").write_text('{"verdict": NaN}')
        (out / "trajectory.csv").write_text("t,dt,E,energy_residual\n0,1,1,0\n")
    elif case == "nan-csv":
        _write_run(out, energy_residual="nan")
    elif case == "contradiction":
        _write_run(out, {"run": {"status": "blowup-suspected", "stop_reason": "gradient-threshold"}})
    elif case == "exit":
        _write_run(out)
    res = artifacts.check_item("simulate", simulate_config(15, {}), rc, out)
    assert any(expected in f for f in res.failures), res.failures


def test_lemma_report_must_pass(tmp_path):
    (tmp_path / "lemma_report.json").write_text(json.dumps({"all_passed": False, "checks": {"a": {"passed": False}}}))
    res = artifacts.check_item("verify-lemmas", {}, 0, tmp_path)
    assert res.failures and res.lemmas_passed is False


def test_dt_collapse_counts_every_halving():
    halvings = artifacts.rejected_attempts([5e-4], {"dt0": 5e-4, "dt_min": 1e-10}, "blowup-suspected", "dt-collapse")
    assert 5e-4 / 2**halvings < 1e-10 <= 5e-4 / 2 ** (halvings - 1)


def test_items_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.items_for(name, 5, 2) == workloads.items_for(name, 5, 2)
        assert workloads.items_for(name, 5, 2) != workloads.items_for(name, 6, 2)
    sweep = workloads.items_for("sweep", 1, 3)[0].config["sweep"]
    assert sweep["max_workers"] == 3 and len(sweep["lambda_multiples"]) == 4


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "decay", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert out.returncode != 0 and out.stdout == ""
