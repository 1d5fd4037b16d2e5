"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math

import numpy as np
import pytest

from hflow.classify import (
    blowup_report,
    check_e54,
    check_sign_persistence,
    classify_initial,
    delta_window,
)
from hflow.cli import load_config, main, trajectory_columns
from hflow.fields import random_bandlimited
from hflow.flow import BLOWUP_SUSPECTED, DECAYED_TO_ZERO, REACHED_HORIZON, FlowParams, run
from hflow.functionals import (
    a_of_delta,
    energy_E,
    isoperimetric_gap,
    nehari_D,
    r_of_delta,
)
from hflow.grid import (
    h1_seminorm_sq,
    lattice_gradient,
    lattice_integrate,
    lattice_wedge,
    make_grid,
    sample_on_lattice,
)
from hflow.nehari import (
    d_of_delta,
    estimate_d,
    fibering_coeffs,
    golden_section_peak,
    lambda_star,
    optimal_bubble,
    project_nehari_delta,
)
from conftest import poly_xyxy

WELL_LIMIT = 4.0 * math.pi / 3.0
DELTA_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.45)


def _ok(num, text):
    print(f"[acceptance] criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def wp63(g63):
    return estimate_d(1.0, g63)


@pytest.fixture(scope="module")
def wp127(g127):
    return estimate_d(1.0, g127)


@pytest.fixture(scope="module")
def preset_t21():
    return load_config("presets/t21.json")


def _preset_u0(cfg, g):
    from hflow.cli import build_initial_condition

    return build_initial_condition(cfg, g, float(cfg["physics"]["H"]))


def _lattice_coeffs(g):
    vals = sample_on_lattice(poly_xyxy, g)
    gx, gy = lattice_gradient(vals, g.h)
    a = lattice_integrate((gx * gx).sum(0) + (gy * gy).sum(0), g.h)
    b = lattice_integrate((vals * lattice_wedge(gx, gy)).sum(0), g.h)
    return a, b


def test_criterion_01_operator_quadrature_oracle():
    errs = {}
    for n in (63, 127):
        a, b = _lattice_coeffs(make_grid(n))
        errs[n] = (abs(a - 8.0 / 3.0) / (8.0 / 3.0), abs(b + 0.25) / 0.25)
    ea63, eb63 = errs[63]
    ea127, eb127 = errs[127]
    assert ea63 < 1e-3 and eb63 < 1e-3
    # second-order convergence: errors shrink by 4 +- 0.8 when n doubles
    # (the volume integrand is bilinear, hence integrated exactly: both
    # errors at machine zero also qualifies)
    assert 3.2 <= ea63 / ea127 <= 4.8
    assert eb127 < 1e-13 or 3.2 <= eb63 / eb127 <= 4.8
    _ok(1, f"A err {ea63:.2e} -> {ea127:.2e} (ratio {ea63 / ea127:.2f}), B err {eb63:.2e}")


def test_criterion_02_isoperimetric_suite(g127):
    worst = math.inf
    for seed in range(50):
        u = random_bandlimited(g127, seed=seed)
        a = h1_seminorm_sq(u)
        gap = isoperimetric_gap(u)
        worst = min(worst, gap / a)
        assert gap >= -1e-3 * a
    _ok(2, f"50 fields at n=127, worst gap/dirichlet = {worst:+.2e} >= -1e-3")


def test_criterion_03_well_depth_curve(g127, wp127):
    H = 1.0
    _, best = optimal_bubble(g127, H)
    c = fibering_coeffs(best, H)
    d1 = wp127.d
    measured_by_delta = {}
    for delta in DELTA_GRID:
        lam = project_nehari_delta(c, delta)
        measured = energy_E(best.scaled(lam), H)
        expected = d_of_delta(delta, d1)
        assert abs(measured - expected) <= 0.02 * expected
        lower = a_of_delta(delta) * r_of_delta(delta, H) ** 2
        assert measured >= lower * 0.98
        measured_by_delta[delta] = measured
    assert max(measured_by_delta, key=measured_by_delta.get) == 1.0
    _ok(3, f"curve matches (3-2s)s^2*d within 2% on {DELTA_GRID}, max at delta=1")


def test_criterion_04_depth_value_and_scale_monotonicity(wp127, g127):
    d = wp127.d
    assert 0.98 * WELL_LIMIT <= d <= 1.25 * WELL_LIMIT
    rows = wp127.family_table  # ordered by increasing eps from the 4h floor
    fibers = [r["fiber_energy"] for r in rows]
    assert all(f is not None for f in fibers)
    for smaller, larger in zip(fibers, fibers[1:]):
        assert smaller <= larger * (1.0 + 1e-9)
    eps_floor = 4.0 * g127.h
    assert float(rows[0]["label"].split("=")[1]) == pytest.approx(eps_floor)
    _ok(4, f"d = {d:.5f} in [{0.98 * WELL_LIMIT:.5f}, {1.25 * WELL_LIMIT:.5f}], monotone to eps = 4h")


def test_criterion_05_energy_identity_refinement(preset_t21, g63):
    u0, _ = _preset_u0(preset_t21, g63)
    totals = []
    for dt0 in (5e-4, 2.5e-4, 1.25e-4):
        p = FlowParams(H=1.0, dt0=dt0, t_end=0.1, record_every=10**9)
        tr = run(u0, p)
        totals.append(tr.energy_residual[-1])
    r1, r2 = totals[0] / totals[1], totals[1] / totals[2]
    assert 1.7 <= r1 <= 2.3
    assert 1.7 <= r2 <= 2.3
    _ok(5, f"cumulative residual {totals[0]:.3e} halves at ratios {r1:.2f}, {r2:.2f}")


def test_criterion_06_global_decay(preset_t21, g63, wp63):
    H = 1.0
    u0, desc = _preset_u0(preset_t21, g63)
    assert energy_E(u0, H) < wp63.d and nehari_D(u0, H) > 0.0
    verdict = classify_initial(u0, wp63)
    assert verdict.applicable_theorem == "t21"
    d1, d2 = delta_window(u0, wp63)
    deltas = tuple(preset_t21["monitors"]["delta_list"])
    assert all(d1 < x < d2 for x in deltas)

    p = FlowParams(H=H, dt0=5e-4, t_end=1.0, record_every=5)
    tr = run(u0, p, delta_list=deltas)
    assert tr.status in (DECAYED_TO_ZERO, REACHED_HORIZON)
    assert np.all(tr.D > 0.0)
    assert all(rep.persistent and rep.sign >= 0 for rep in check_sign_persistence(tr))
    envelope = tr.l2_sq[0] * np.exp(-2.0 * (1.0 - d1) * tr.t)
    assert np.all(tr.l2_sq <= envelope * (1.0 + 1e-12))
    assert np.all(tr.h1_sq < 6.0 * wp63.d * 1.05)
    _ok(
        6,
        f"{tr.status} at t={tr.t[-1]:.3f}: D>0, sign persistence on {deltas}, "
        f"decay bound with delta1={d1:.4f}, h1 < 6d+5%",
    )


def test_criterion_07_blowup(g63, wp63):
    H = 1.0
    cfg = load_config("presets/t22.json")
    u0, _ = _preset_u0(cfg, g63)
    assert energy_E(u0, H) <= 0.0 and nehari_D(u0, H) < 0.0
    p = FlowParams(H=H, dt0=5e-4, t_end=1.0, record_every=5)
    deltas = tuple(cfg["monitors"]["delta_list"])
    tr = run(u0, p, delta_list=deltas)
    assert tr.status == BLOWUP_SUSPECTED
    assert tr.t[-1] < 1.0
    rep = blowup_report(tr)
    assert rep.gradient_max > 1e4 * tr.h1_sq[0]
    tail_start = int(math.ceil(0.8 * len(tr)))
    assert np.all(tr.concavity[tail_start:] > 0.0)
    assert all(r.persistent and r.sign == -1 for r in check_sign_persistence(tr))
    _ok(
        7,
        f"blowup-suspected at t={tr.t[-1]:.4f} ({tr.stop_reason}), "
        f"gradient x{rep.gradient_max / tr.h1_sq[0]:.1e}, concavity > 0 on final 20%",
    )


def test_criterion_08_fibering_map(g63):
    H = 1.0
    done = 0
    seed = 0
    worst = 0.0
    while done < 20:
        u = random_bandlimited(g63, seed=seed)
        seed += 1
        c = fibering_coeffs(u, H)
        if c.B > 0.0:
            u = u.scaled(-1.0)
            c = fibering_coeffs(u, H)
        if c.B >= 0.0:
            continue
        lam = lambda_star(c)
        lam_gs = golden_section_peak(u, H, 0.0, 4.0 * lam, tol=1e-9 * lam)
        worst = max(worst, abs(lam_gs - lam) / lam)
        assert abs(lam_gs - lam) / lam <= 1e-6
        assert nehari_D(u.scaled(0.5 * lam), H) > 0.0
        assert abs(nehari_D(u.scaled(lam), H)) <= 1e-8 * c.A * lam * lam
        assert nehari_D(u.scaled(2.0 * lam), H) < 0.0
        done += 1
    _ok(8, f"20 directions: golden-section matches lambda* (worst rel err {worst:.1e})")


def test_criterion_09_high_energy_condition(g63):
    cfg = load_config("presets/t52.json")
    H = float(cfg["physics"]["H"])
    u0, desc = _preset_u0(cfg, g63)
    ok, meas = check_e54(u0, H)
    assert ok
    assert meas["energy"] > estimate_d(H, g63).d
    assert meas["identity_residual_rel"] <= 1e-12
    assert meas["nehari"] < 0.0
    p = FlowParams(H=H, dt0=5e-4, t_end=1.0, record_every=5)
    tr = run(u0, p)
    assert tr.status == BLOWUP_SUSPECTED
    _ok(
        9,
        f"e54 field at H={H:g} (amplitude {desc['amplitude']:.3f}) accepted, identity residual "
        f"{meas['identity_residual_rel']:.1e}, run blowup-suspected at t={tr.t[-1]:.4f}",
    )


def test_criterion_10_determinism_and_schema(tmp_path):
    cfg = load_config("presets/t21.json")
    cfg["time"]["t_end"] = 0.05
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "trajectory.csv").read_bytes()
    assert b1 == (out2 / "trajectory.csv").read_bytes()
    # schema: exact column list, all cells parse as finite floats
    lines = b1.decode("utf-8").splitlines()
    header = lines[0].split(",")
    assert header == trajectory_columns(cfg["monitors"]["delta_list"])
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(data))
    assert data.shape[1] == len(header)
    _ok(10, f"byte-identical CSV ({len(b1)} bytes), schema of {len(header)} columns validated")
