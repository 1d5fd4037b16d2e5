import math

import numpy as np
import pytest

from hflow import flow
from hflow.fields import discrete_laplacian_eigenvalue, eigenmode, random_bandlimited
from hflow.flow import (
    BLOWUP_SUSPECTED,
    DECAYED_TO_ZERO,
    REACHED_HORIZON,
    FlowParams,
    RELATIVE_INCREMENT_CAP,
    SOLVE_RESIDUAL_BOUND,
    SolverError,
    TrajectoryRecord,
    _State,
    _Workspace,
    energy_identity_residuals,
    run,
    solve_helmholtz,
)
from hflow.functionals import nehari_D_delta, report, volume_integral, volume_VH
from hflow.grid import (
    GridSpec,
    VectorField,
    derivs,
    h1_forward_sq,
    l2_norm_sq,
    laplacian_stencil,
    lattice_wedge,
    make_grid,
)
from hflow.nehari import bubble_direction, fibering_coeffs, lambda_star


def test_flow_params_validation():
    FlowParams(H=1.0, dt0=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        FlowParams(H=1.0, dt0=1e-3, t_end=1.0, dt_min=1e-2)
    with pytest.raises(ValueError):
        FlowParams(H=-1.0, dt0=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        FlowParams(H=1.0, dt0=1e-3, t_end=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dt0 must be finite"):
            FlowParams(H=1.0, dt0=bad, t_end=1.0)
        with pytest.raises(ValueError, match="H must be finite"):
            FlowParams(H=bad, dt0=1e-3, t_end=1.0)


def _dense_sine_matrix(n):
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * np.outer(j, j) / (n + 1))


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (15, 15), (16, 9), (9, 31), (63, 63)])
def test_sine_transform_matches_dense_sine_matrix(nx, ny):
    rng = np.random.default_rng(1000 * nx + ny)
    x = rng.standard_normal((3, nx, ny))
    x_before = x.copy()
    ws = _Workspace(GridSpec(nx=nx, ny=ny, h=1.0 / (max(nx, ny) + 1)))
    fast, back = np.empty(x.shape), np.empty(x.shape)
    ws.sine_transform(x, fast)
    dense = _dense_sine_matrix(nx) @ x @ _dense_sine_matrix(ny)
    assert np.array_equal(x, x_before)
    assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))
    # the orthonormal DST-I is its own inverse
    ws.sine_transform(fast, back)
    assert np.max(np.abs(back - x)) <= 1e-13 * np.max(np.abs(x))


@pytest.mark.parametrize("n", [15, 31, 63])
def test_state_matches_reference_functionals(n):
    rng = np.random.default_rng(n)
    g = make_grid(n)
    ws = _Workspace(g)  # shared: what one state leaves in the buffers must not leak into the next
    for _ in range(3):
        H = float(rng.uniform(0.1, 10.0))
        seed, kmax = int(rng.integers(1 << 20)), int(rng.integers(1, 12))
        u = random_bandlimited(g, seed, kmax, h1_norm=float(rng.uniform(0.1, 10.0)))
        s = _State(u, H, ws)
        rep = report(u, H)
        vol = volume_integral(u)
        # a sum with cancellation is compared on the scale of its terms
        scale = rep.dirichlet + 2.0 * H * abs(vol)
        assert s.u is u
        assert np.array_equal(s.wedge, lattice_wedge(*derivs(u.values, g.h)[:2]))
        assert s.l2 == pytest.approx(l2_norm_sq(u), rel=1e-12)
        assert s.h1 == pytest.approx(rep.dirichlet, rel=1e-12)
        assert s.h1_fwd == pytest.approx(h1_forward_sq(u), rel=1e-12)
        assert s.vol == pytest.approx(vol, abs=1e-12 * scale)
        assert s.D == pytest.approx(rep.nehari, abs=1e-12 * scale)
        assert s.E_fwd == pytest.approx(0.5 * h1_forward_sq(u) + volume_VH(u, H), abs=1e-12 * scale)


@pytest.mark.parametrize(
    "g", [make_grid(15), make_grid(31), make_grid(63), make_grid(127), GridSpec(15, 9, 1.0 / 16)], ids=str
)
def test_state_spectral_energies_match_field_sums(g):
    # |u|_2^2 and the forward form are read off the sine spectrum: of the solve that made the
    # state, or of one forward transform for a state without one
    rng = np.random.default_rng(g.nx * g.ny)
    ws = _Workspace(g)
    h2 = g.h * g.h
    for k in range(4):
        H = float(rng.uniform(0.1, 10.0))
        dt = 10.0 ** rng.uniform(-6.0, -1.0)
        if k % 2:
            rhs = VectorField(g, rng.standard_normal((3, g.nx, g.ny)))
        else:
            rhs = random_bandlimited(g, int(rng.integers(1 << 20)), int(rng.integers(1, 12)))
        w = solve_helmholtz(rhs, dt, _workspace=ws)
        for s in (_State(w, H, ws, ws.energies), _State(w, H, ws), _State(rhs, H, ws)):
            v = s.u.values
            assert s.l2 == pytest.approx(h2 * float(np.sum(v * v)), rel=1e-13, abs=0.0)
            assert s.h1_fwd == pytest.approx(h1_forward_sq(s.u), rel=1e-13, abs=0.0)


def test_solve_helmholtz_zero_rhs(g31):
    w = solve_helmholtz(VectorField.zeros(g31), dt=0.1)
    assert not w.values.any()


def test_solve_helmholtz_eigenmode(g31):
    dt = 0.1
    u = eigenmode(g31, kx=2, ky=1, component=2, amplitude=0.9)
    mu = discrete_laplacian_eigenvalue(g31, 2, 1)
    w = solve_helmholtz(u, dt)
    assert np.allclose(w.values, u.values / (1.0 + dt * mu), rtol=1e-9)


def test_solve_helmholtz_residual_bound(g31):
    rng = np.random.default_rng(0)
    rhs = VectorField(g31, rng.standard_normal((3, 31, 31)))
    dt = 0.05
    w = solve_helmholtz(rhs, dt)
    resid = (w.values - dt * laplacian_stencil(w.values, w.grid.h)) - rhs.values
    for k in range(3):
        assert np.linalg.norm(resid[k]) <= SOLVE_RESIDUAL_BOUND * np.linalg.norm(rhs.values[k]) * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [1, 15, 31, 63, 127])
def test_solve_helmholtz_random_residual(n):
    rng = np.random.default_rng(n)
    g = GridSpec(nx=n, ny=n, h=1.0 / (n + 1))
    for _ in range(4):
        dt = 10.0 ** rng.uniform(-6.0, -1.0)
        rhs = VectorField(g, rng.standard_normal((3, n, n)))
        w = solve_helmholtz(rhs, dt)
        resid = (w.values - dt * laplacian_stencil(w.values, w.grid.h)) - rhs.values
        for k in range(3):
            assert np.linalg.norm(resid[k]) <= 1e-12 * np.linalg.norm(rhs.values[k])


@pytest.mark.parametrize(
    "g", [GridSpec(15, 9, 1.0 / 16), GridSpec(9, 31, 1.0 / 32), GridSpec(12, 12, 0.05)], ids=str
)
def test_solve_helmholtz_residual_off_unit_square(g):
    # the sine modes of an axis with m nodes have angles k pi / (m + 1) whatever the spacing h
    rng = np.random.default_rng(g.nx * g.ny)
    for dt in (1e-4, 1e-2):
        rhs = VectorField(g, rng.standard_normal((3, g.nx, g.ny)))
        w = solve_helmholtz(rhs, dt)
        resid = (w.values - dt * laplacian_stencil(w.values, w.grid.h)) - rhs.values
        for k in range(3):
            assert np.linalg.norm(resid[k]) <= 1e-12 * np.linalg.norm(rhs.values[k])


def _run_with_public_solve(u0, p):
    """Final state and accepted dts of `run` rebuilt from fresh solve_helmholtz calls, and the halvings."""
    g = u0.grid
    h2 = g.h ** 2
    u, t, dt, halvings, dts = u0.values, 0.0, p.dt0, 0, []
    while p.t_end - t > 1e-12 * max(p.t_end, 1.0):
        dt_step = min(dt, p.t_end - t)
        base = math.sqrt(h2 * float(np.sum(u * u)))
        wedge_u = lattice_wedge(*derivs(u, g.h)[:2])
        while True:
            rhs = VectorField(g, u - 2.0 * dt_step * p.H * wedge_u)
            w = solve_helmholtz(rhs, dt_step).values
            diff = math.sqrt(h2 * float(np.sum((w - u) ** 2)))
            if diff / base <= RELATIVE_INCREMENT_CAP:
                break
            dt *= 0.5
            halvings += 1
            dt_step = min(dt, p.t_end - t)
        u, t = w, t + dt_step
        dts.append(dt_step)
    return u, dts, halvings


@pytest.mark.parametrize("g", [make_grid(15), GridSpec(15, 9, 1.0 / 16)], ids=str)
@pytest.mark.parametrize("dt0, t_end, min_halvings", [(1e-3, 1e-3, 0), (0.05, 0.06, 3)])
def test_run_matches_public_solve_bitwise(g, dt0, t_end, min_halvings):
    # the run's workspace caches 1 + dt mu; a stale copy after a halving or the
    # shortened last step would change the final state
    u0 = VectorField(g, 0.5 * random_bandlimited(g, 5, kmax=4).values)
    p = FlowParams(H=1.0, dt0=dt0, t_end=t_end, record_every=1)
    tr = run(u0, p)
    ref, dts, halvings = _run_with_public_solve(u0, p)
    assert tr.status == REACHED_HORIZON
    assert halvings >= min_halvings
    assert list(tr.dt[1:]) == dts
    assert np.array_equal(tr.final_state.values, ref)


def test_solve_helmholtz_rejects_non_finite_rhs(g15):
    rhs = eigenmode(g15)
    rhs.values[1, 3, 4] = np.nan
    with pytest.raises(SolverError):
        solve_helmholtz(rhs, dt=1e-3)


def test_run_raises_on_solve_residual_miss(g15, monkeypatch):
    # no solve can meet 1e-17 in double precision; on a finite rhs that is a
    # numeric fault, not a rejection that halves dt down to a collapse
    monkeypatch.setattr(flow, "SOLVE_RESIDUAL_BOUND", 1e-17)
    p = FlowParams(H=1.0, dt0=1e-3, t_end=0.01)
    with pytest.raises(SolverError):
        run(eigenmode(g15), p)


def test_run_non_finite_rhs_is_rejected(g15):
    # 2 dt H (u_x ^ u_y) overflows for every dt above dt_min, so each attempt
    # fails the solve on a non-finite rhs and is rejected with dt halved
    u0 = bubble_direction(g15, 1.0, eps=0.25).scaled(100.0)
    p = FlowParams(H=1e308, dt0=1e-3, t_end=0.01, dt_min=1e-6)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = run(u0, p)
    assert tr.status == BLOWUP_SUSPECTED
    assert tr.stop_reason == "dt-collapse"
    assert tr.t[-1] == 0.0


def test_run_non_finite_candidate_is_rejected(g15, monkeypatch):
    # a solve that returns a NaN field without raising: the attempt is rejected and retried with dt halved
    real, calls = flow.solve_helmholtz, []

    def solve(rhs, dt, **kwargs):
        calls.append(dt)
        if len(calls) == 1:
            return VectorField(rhs.grid, np.full(rhs.values.shape, np.nan))
        return real(rhs, dt, **kwargs)

    monkeypatch.setattr(flow, "solve_helmholtz", solve)
    p = FlowParams(H=1.0, dt0=1e-3, t_end=0.01)
    tr = run(eigenmode(g15), p)
    assert calls[:2] == [p.dt0, p.dt0 / 2]
    assert tr.dt[1] == p.dt0 / 2
    assert tr.status == REACHED_HORIZON


def test_run_one_step_zero_fixed_point(g31):
    p = FlowParams(H=1.0, dt0=0.1, t_end=0.1)
    tr = run(VectorField.zeros(g31), p)
    assert tr.status == REACHED_HORIZON
    assert tr.t[-1] == pytest.approx(0.1)
    assert len(tr) == 2
    assert not tr.final_state.values.any()


def test_solve_helmholtz_single_node_oracle():
    # relaxed-precondition grid: one interior node, h = 1/2, mu = 16
    g = GridSpec(nx=1, ny=1, h=0.5)
    u = VectorField(g, np.full((3, 1, 1), 1.0))
    w = solve_helmholtz(u, dt=0.1)
    assert np.allclose(w.values, u.values / 2.6, rtol=1e-12)


def test_solve_helmholtz_heat_amplification(g31):
    dt = 2e-3
    u = eigenmode(g31, amplitude=1.3)
    mu = discrete_laplacian_eigenvalue(g31)
    w = solve_helmholtz(u, dt)
    assert np.allclose(w.values, u.values / (1.0 + dt * mu), rtol=1e-9)


def test_run_zero_datum(g31):
    p = FlowParams(H=1.0, dt0=1e-2, t_end=0.1)
    tr = run(VectorField.zeros(g31), p, delta_list=(0.5, 1.0))
    assert tr.status == REACHED_HORIZON
    for series in (tr.l2_sq, tr.h1_sq, tr.E, tr.D, tr.f, tr.concavity, tr.energy_residual):
        assert not np.asarray(series).any()
    assert not tr.D_delta.any()


def test_run_records_consistent_series(g31):
    u0 = bubble_direction(g31, 1.0, eps=0.25).scaled(0.1)
    p = FlowParams(H=1.0, dt0=1e-3, t_end=0.05, record_every=3)
    tr = run(u0, p, delta_list=(0.5, 1.25))
    assert np.all(np.diff(tr.t) > 0)
    assert np.all(np.diff(tr.f) >= 0)
    assert np.array_equal(tr.fprime, tr.l2_sq)
    assert np.array_equal(tr.fsecond, -2.0 * tr.D)
    assert np.allclose(tr.concavity, tr.f * tr.fsecond - 1.5 * tr.fprime**2, rtol=1e-13)
    # sample 0 reproduces the functionals of the initial datum
    rep = report(u0, 1.0)
    assert tr.l2_sq[0] == pytest.approx(rep.l2_sq, rel=1e-13)
    assert tr.h1_sq[0] == pytest.approx(rep.dirichlet, rel=1e-13)
    assert tr.D[0] == pytest.approx(rep.nehari, rel=1e-13)
    assert tr.D_delta[0, 0] == pytest.approx(nehari_D_delta(u0, 1.0, 0.5), rel=1e-13)
    assert tr.D_delta[0, 1] == pytest.approx(nehari_D_delta(u0, 1.0, 1.25), rel=1e-13)
    # the recorded energy is the scheme-compatible one
    assert tr.E[0] == pytest.approx(0.5 * h1_forward_sq(u0) + volume_VH(u0, 1.0), rel=1e-12)
    # 50 steps leave the last one off the record_every grid: the stop row is the final state
    assert tr.l2_sq[-1] == pytest.approx(l2_norm_sq(tr.final_state), rel=1e-13)


def test_run_determinism(g31):
    u0 = bubble_direction(g31, 1.0, eps=0.25).scaled(0.08)
    p = FlowParams(H=1.0, dt0=1e-3, t_end=0.05, record_every=2)
    tr1 = run(u0, p, delta_list=(0.75,))
    tr2 = run(u0, p, delta_list=(0.75,))
    for name in ("t", "dt", "l2_sq", "h1_sq", "E", "D", "f", "concavity", "energy_residual"):
        assert np.array_equal(getattr(tr1, name), getattr(tr2, name))
    assert np.array_equal(tr1.D_delta, tr2.D_delta)
    assert tr1.status == tr2.status
    # 50 steps at record_every = 2 end on a recorded step, which the stop row must not repeat
    assert np.all(np.diff(tr1.t) > 0)
    assert tr1.l2_sq[-1] == pytest.approx(l2_norm_sq(tr1.final_state), rel=1e-13)


def test_run_energy_dissipation_with_residual(g31):
    u0 = bubble_direction(g31, 1.0, eps=0.25).scaled(0.12)
    p = FlowParams(H=1.0, dt0=1e-3, t_end=0.1, record_every=1)
    tr = run(u0, p)
    # E(t_{k+1}) <= E(t_k) + residual_k at every recorded step
    for k in range(len(tr) - 1):
        resid = tr.energy_residual[k + 1] - tr.energy_residual[k]
        assert tr.E[k + 1] <= tr.E[k] + resid + 1e-15


def test_energy_residual_halves_with_dt_heat(g15):
    # pure heat eigenmode run: cumulative residual is O(dt0)
    u0 = eigenmode(g15, amplitude=1.0)
    totals = []
    for dt0 in (2e-3, 1e-3, 5e-4):
        p = FlowParams(H=0.0, dt0=dt0, t_end=0.1, record_every=10**9)
        tr = run(u0, p)
        totals.append(tr.energy_residual[-1])
    assert 1.7 <= totals[0] / totals[1] <= 2.3
    assert 1.7 <= totals[1] / totals[2] <= 2.3


def test_energy_residuals_per_interval(g15):
    u0 = eigenmode(g15, amplitude=1.0)
    p = FlowParams(H=0.0, dt0=1e-3, t_end=0.02, record_every=4)
    tr = run(u0, p)
    res = energy_identity_residuals(tr)
    assert len(res) == len(tr) - 1
    assert np.all(res >= 0.0)
    with pytest.raises(ValueError):
        energy_identity_residuals(
            TrajectoryRecord(
                params=p, delta_list=(), t=np.array([0.0]), dt=np.array([1e-3]),
                l2_sq=np.array([0.0]), h1_sq=np.array([0.0]), E=np.array([0.0]),
                D=np.array([0.0]), D_delta=np.zeros((1, 0)), f=np.array([0.0]),
                fprime=np.array([0.0]), fsecond=np.array([0.0]),
                concavity=np.array([0.0]), energy_residual=np.array([0.0]),
                status=REACHED_HORIZON,
            )
        )


def test_semigroup_consistency(g31):
    # runs at dt0 and dt0/2 differ at the horizon by O(dt0)
    u0 = bubble_direction(g31, 1.0, eps=0.25).scaled(0.15)
    ends = []
    for dt0 in (2e-3, 1e-3, 5e-4):
        p = FlowParams(H=1.0, dt0=dt0, t_end=0.1, record_every=10**9)
        ends.append(run(u0, p).final_state.values)
    h2 = g31.h * g31.h
    e1 = math.sqrt(h2 * float(np.sum((ends[0] - ends[1]) ** 2)))
    e2 = math.sqrt(h2 * float(np.sum((ends[1] - ends[2]) ** 2)))
    assert 1.7 <= e1 / e2 <= 2.3


def test_run_decay_floor(g15):
    u0 = eigenmode(g15, amplitude=1e-3)
    p = FlowParams(H=0.0, dt0=5e-3, t_end=10.0, decay_l2_floor=1e-10, record_every=20)
    tr = run(u0, p)
    assert tr.status == DECAYED_TO_ZERO
    assert tr.l2_sq[-1] < 1e-10
    assert tr.t[-1] < 10.0
    assert np.all(np.diff(tr.t) > 0)
    assert tr.l2_sq[-1] == pytest.approx(l2_norm_sq(tr.final_state), rel=1e-13)


def test_run_gradient_threshold_blowup(g31):
    u0 = bubble_direction(g31, 1.0, eps=0.25)
    c = fibering_coeffs(u0, 1.0)
    u0 = u0.scaled(1.6 * lambda_star(c))
    p = FlowParams(H=1.0, dt0=5e-4, t_end=1.0, blowup_gradient_factor=100.0, record_every=5)
    tr = run(u0, p)
    assert tr.status == BLOWUP_SUSPECTED
    assert tr.stop_reason == "gradient-threshold"
    assert tr.h1_sq[-1] > 100.0 * tr.h1_sq[0]
    assert tr.t[-1] < 1.0
    assert np.all(np.diff(tr.t) > 0)
    assert tr.l2_sq[-1] == pytest.approx(l2_norm_sq(tr.final_state), rel=1e-13)


def test_run_dt_collapse_blowup(g31):
    u0 = bubble_direction(g31, 1.0, eps=0.25)
    u0 = u0.scaled(1.6 * lambda_star(fibering_coeffs(u0, 1.0)))
    # a dt_min just below dt0 leaves no room to adapt once increments grow
    p = FlowParams(
        H=1.0, dt0=4e-3, t_end=1.0, dt_min=2e-3,
        blowup_gradient_factor=1e12, record_every=5,
    )
    tr = run(u0, p)
    assert tr.status == BLOWUP_SUSPECTED
    assert tr.stop_reason == "dt-collapse"
    assert np.all(np.diff(tr.t) > 0)
    assert tr.l2_sq[-1] == pytest.approx(l2_norm_sq(tr.final_state), rel=1e-13)


def test_run_adaptive_halving_still_completes(g31):
    # an aggressive dt0 is halved by the increment guard, then the run finishes
    u0 = bubble_direction(g31, 1.0, eps=0.25).scaled(0.3)
    p = FlowParams(H=1.0, dt0=0.05, t_end=0.2, record_every=1)
    tr = run(u0, p)
    assert tr.status in (REACHED_HORIZON, DECAYED_TO_ZERO)
    assert tr.dt[-1] < 0.05
