import math
import tracemalloc

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it on first use; loaded here, test_run_working_set_at_n127 does not trace it
import pytest

from hflow import flow, grid
from hflow.fields import discrete_laplacian_eigenvalue, eigenmode, random_bandlimited
from hflow.flow import (
    BLOWUP_SUSPECTED,
    DECAYED_TO_ZERO,
    REACHED_HORIZON,
    FlowParams,
    RELATIVE_INCREMENT_CAP,
    SOLVE_RESIDUAL_BOUND,
    SolverError,
    _State,
    _Workspace,
    run,
    solve_helmholtz,
    trajectory_columns,
)
from hflow.functionals import nehari_D, report
from hflow.grid import (
    VectorField,
    derivs,
    dirichlet_and_volume,
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
    # a float step count would record on a drifting grid, and a bool is not a count
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="record_every must be an integer"):
            FlowParams(H=1.0, dt0=1e-3, t_end=0.01, record_every=bad)
    assert FlowParams(H=1.0, dt0=1e-3, t_end=0.01, record_every=np.int64(2)).record_every == 2


def _dense_sine_matrix(n):
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * np.outer(j, j) / (n + 1))


@pytest.mark.parametrize("n", [3, 15, 16, 63])
def test_sine_transform_matches_dense_sine_matrix(n):
    rng = np.random.default_rng(1001 * n)
    x = rng.standard_normal((3, n, n))
    x_before = x.copy()
    ws = _Workspace(make_grid(n))
    # the passes' output over their gain sqrt(scale) is the orthonormal transform
    fast = ws._transform(x, np.empty(x.shape)) / math.sqrt(ws.scale)
    dense = _dense_sine_matrix(n) @ x @ _dense_sine_matrix(n)
    assert np.array_equal(x, x_before)
    assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))
    # the orthonormal DST-I is its own inverse
    back = ws._transform(fast, np.empty(x.shape)) / math.sqrt(ws.scale)
    assert np.max(np.abs(back - x)) <= 1e-13 * np.max(np.abs(x))


def _longdouble_sine_matrix(n):
    j = np.arange(1, n + 1, dtype=np.longdouble)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    return np.sqrt(np.longdouble(2.0) / (n + 1)) * np.sin(pi * np.outer(j, j) / (n + 1))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is float64 here")
@pytest.mark.parametrize("n", [3, 15, 16, 63])
def test_sine_transform_is_accurate_to_round_off(n):
    # against an extended-precision dense S_x X S_y: the FFT passes measure at most about 4e-16
    # of max|ref| on these grids, where a less accurate DST-I (the half-length one errs 4-10x
    # more) would show
    rng = np.random.default_rng(1001 * n)
    x = rng.standard_normal((3, n, n))
    ws = _Workspace(make_grid(n))
    fast = ws._transform(x, np.empty(x.shape)) / math.sqrt(ws.scale)
    ref = _longdouble_sine_matrix(n) @ x.astype(np.longdouble) @ _longdouble_sine_matrix(n)
    assert float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref))) <= 8e-16


def _two_pad_transform(a):
    """sqrt(scale) S_x S_y a with a pad per pass: the y pass along the last axis of a (3, n, 2n+2) pad, the x
    pass with axis=1 over a (3, 2n+2, n) pad."""
    n = a.shape[-1]
    ypad = np.zeros((3, n, 2 * n + 2))
    ypad[..., 1 : n + 1] = a
    xpad = np.zeros((3, 2 * n + 2, n))
    xpad[:, 1 : n + 1] = np.fft.rfft(ypad).imag[..., 1 : n + 1]
    return np.fft.rfft(xpad, axis=1).imag[:, 1 : n + 1]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("n", [3, 4, 9, 15, 16, 63, 103, 104, 127, 255])
def test_one_pad_transform_matches_two_pad_composition_bitwise(n):
    # the x pass along the last axis of the y pass's output transposed has the bits of the x pass
    # along axis 1, and so do the solve's w and the spectral energies read off its spectrum
    rng = np.random.default_rng(n)
    g = make_grid(n)
    ws = _Workspace(g)
    b = rng.standard_normal((3, n, n))
    dt = 1e-3
    assert _bits(ws._transform(b, np.empty(b.shape))) == _bits(_two_pad_transform(b))
    spec = np.divide(_two_pad_transform(b), (ws.mu * dt + 1.0) * ws.scale, out=np.empty((3, n, n)))
    w = _two_pad_transform(spec)
    weight = g.h * g.h * ws.scale
    sq = np.square(spec)
    energies = (weight * float(sq.sum()), weight * float((sq * ws.mu).sum()))
    assert _bits(solve_helmholtz(VectorField(g, b), dt, _workspace=ws).values) == _bits(w)
    assert _bits(ws.energies) == _bits(energies)


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
        vol = dirichlet_and_volume(u)[1]
        # a sum with cancellation is compared on the scale of its terms
        scale = rep.dirichlet + 2.0 * H * abs(vol)
        assert s.u is u
        assert np.array_equal(s.wedge, lattice_wedge(*derivs(u.values, g.h)[:2]))
        assert s.l2 == pytest.approx(l2_norm_sq(u), rel=1e-12)
        assert s.h1 == pytest.approx(rep.dirichlet, rel=1e-12)
        assert s.h1_fwd == pytest.approx(h1_forward_sq(u), rel=1e-12)
        assert s.vol == pytest.approx(vol, abs=1e-12 * scale)
        assert s.D == pytest.approx(rep.nehari, abs=1e-12 * scale)
        assert s.E_fwd == pytest.approx(0.5 * h1_forward_sq(u) + rep.volume, abs=1e-12 * scale)


@pytest.mark.parametrize(
    "g", [make_grid(9), make_grid(15), make_grid(31), make_grid(63), make_grid(127)], ids=str
)
def test_state_spectral_energies_match_field_sums(g):
    # |u|_2^2 and the forward form are read off the sine spectrum: of the solve that made the
    # state, or of the solve at dt = 0 for a state without one
    rng = np.random.default_rng(g.n * g.n)
    ws = _Workspace(g)
    h2 = g.h * g.h
    for k in range(4):
        H = float(rng.uniform(0.1, 10.0))
        dt = 10.0 ** rng.uniform(-6.0, -1.0)
        if k % 2:
            rhs = VectorField(g, rng.standard_normal((3, g.n, g.n)))
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


@pytest.mark.parametrize("n, ffts", [(9, 4), (127, 12)])
def test_solve_makes_four_real_ffts_and_one_neighbour_sum(monkeypatch, n, ffts):
    calls = []

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls.append((name, args, kwargs))
            return f(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "rfft", counting("rfft", np.fft.rfft))
    monkeypatch.setattr(flow, "_neighbour_sum", counting("neighbours", flow._neighbour_sum))
    monkeypatch.setattr(grid, "laplacian_stencil", counting("stencil", grid.laplacian_stencil))
    g = make_grid(n)
    ws = _Workspace(g)
    rhs = random_bandlimited(g, 3, kmax=4)
    for dt in (1e-3, 1e-3, 5e-4):
        calls.clear()
        solve_helmholtz(rhs, dt, _workspace=ws)
        # four calls when one takes all three components, four per component when three outgrow FFT_CALL_BYTES
        assert sorted(name for name, _, _ in calls) == ["neighbours"] + ["rfft"] * ffts
        # every pass runs along the last axis of the one pad, into the one FFT output; the residual's
        # neighbour sum goes into the kept scratch
        for name, args, kwargs in calls:
            if name == "rfft":
                assert len(args) == 1 and args[0] is ws.pad
                assert kwargs.keys() == {"out"} and kwargs["out"] is ws.out
            else:
                assert args[1] is ws.mid and not kwargs


@pytest.mark.parametrize("n", [15, 63, 127])
def test_checked_residual_is_the_stencils(n):
    # the solve's (1 + 4c) w - c N(w) - b, c = dt/h^2, against w - dt Lap_h(w) - b, on fields far from a solution
    rng = np.random.default_rng(100 + n)
    g = make_grid(n)
    ws = _Workspace(g)
    for log_dt in (-6.0, -3.0, -1.0):
        dt = 10.0**log_dt
        w = random_bandlimited(g, int(rng.integers(1 << 20)), kmax=6).values
        b = rng.standard_normal((3, n, n))
        expected = w - dt * laplacian_stencil(w, g.h) - b
        got = ws.residual(w, b, dt)
        assert got is ws.spec
        for k in range(3):
            assert np.linalg.norm(got[k] - expected[k]) <= 1e-12 * np.linalg.norm(expected[k])


def test_solve_helmholtz_residual_bound(g31):
    rng = np.random.default_rng(0)
    rhs = VectorField(g31, rng.standard_normal((3, 31, 31)))
    dt = 0.05
    w = solve_helmholtz(rhs, dt)
    resid = (w.values - dt * laplacian_stencil(w.values, w.grid.h)) - rhs.values
    for k in range(3):
        assert np.linalg.norm(resid[k]) <= SOLVE_RESIDUAL_BOUND * np.linalg.norm(rhs.values[k]) * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [3, 9, 12, 15, 31, 63, 127])
def test_solve_helmholtz_random_residual(n):
    rng = np.random.default_rng(n)
    g = make_grid(n)
    for _ in range(4):
        dt = 10.0 ** rng.uniform(-6.0, -1.0)
        rhs = VectorField(g, rng.standard_normal((3, n, n)))
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


@pytest.mark.parametrize("amplitude, status", [(0.5, REACHED_HORIZON), (3.0, BLOWUP_SUSPECTED)])
def test_run_working_set_at_n127(amplitude, status):
    # a run holds its workspace (about 2.0 grid arrays: a one-component pad and out, mu, den), the state's u and
    # wedge, one candidate and the derivative pass's one-component temporary, about 5.4 in all; a
    # three-component pad and out, a second wedge, a residual array or, in the blow-up run's retries after
    # rejected attempts, a rejected candidate beside the next would pass 6.0
    n = 127
    g = make_grid(n)
    u0 = random_bandlimited(g, 3, 6).scaled(amplitude)
    grid._scratch_for((3, n, n))
    p = FlowParams(H=1.0, dt0=5e-4, t_end=0.01, record_every=1)
    tracemalloc.start()
    try:
        tr = run(u0, p, (0.25,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.status == status and len(tr) > 2
    assert peak <= 6.0 * (3 * n * n * 8)


@pytest.mark.parametrize("g", [make_grid(9), make_grid(15), make_grid(16)], ids=str)
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


@pytest.mark.parametrize("dt", [math.nan, math.inf, -1.0, 0.0])
def test_solve_helmholtz_rejects_dt_that_is_not_finite_and_positive(g15, dt):
    with pytest.raises(ValueError, match="need finite dt > 0"):
        solve_helmholtz(eigenmode(g15), dt)


def test_run_raises_on_solve_residual_miss(g15, monkeypatch):
    # no solve can meet 1e-17 in double precision; on a finite rhs that is a
    # numeric fault, not a rejection that halves dt down to a collapse
    monkeypatch.setattr(flow, "SOLVE_RESIDUAL_BOUND", 1e-17)
    p = FlowParams(H=1.0, dt0=1e-3, t_end=0.01)
    with pytest.raises(SolverError):
        run(eigenmode(g15), p)


def test_wrong_but_finite_solve_raises(g15, monkeypatch):
    # a transform off by 1e-6 leaves w off by about 2e-6 relative, far above the residual bound; on a
    # finite datum run re-raises that at its first attempt instead of halving dt
    transform = _Workspace._transform
    monkeypatch.setattr(
        _Workspace, "_transform", lambda ws, a, out: np.multiply(transform(ws, a, out), 1.0 + 1e-6, out=out)
    )
    with pytest.raises(SolverError):
        solve_helmholtz(eigenmode(g15), 1e-3)
    dts = []

    def recording(rhs, dt, **kwargs):
        dts.append(dt)
        return solve_helmholtz(rhs, dt, **kwargs)

    monkeypatch.setattr(flow, "solve_helmholtz", recording)
    with pytest.raises(SolverError):
        run(eigenmode(g15), FlowParams(H=1.0, dt0=1e-3, t_end=0.01))
    assert dts == [1e-3]


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
    assert tr.D_delta[0, 0] == pytest.approx(nehari_D(u0, 1.0, 0.5), rel=1e-13)
    assert tr.D_delta[0, 1] == pytest.approx(nehari_D(u0, 1.0, 1.25), rel=1e-13)
    # the recorded energy is the scheme-compatible one
    assert tr.E[0] == pytest.approx(0.5 * h1_forward_sq(u0) + rep.volume, rel=1e-12)
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
    # the cumulative defect never decreases: each recorded interval adds a non-negative defect
    assert len(tr) > 2
    assert np.all(np.diff(tr.energy_residual) >= 0.0)


def test_series_name_each_recorded_column(g15):
    # series() pairs trajectory_columns with the row entries run recorded under them: fprime is recorded
    # as |u|_2^2, fsecond as -2 D, and D_delta at delta = 1 is D
    u0 = bubble_direction(g15, 1.0, eps=0.25).scaled(0.3)
    delta_list = (0.5, 1.0)
    tr = run(u0, FlowParams(H=1.0, dt0=1e-3, t_end=0.02, record_every=3), delta_list)
    series = dict(tr.series())
    assert list(series) == trajectory_columns(delta_list)
    assert len(tr) > 2 and all(len(col) == len(tr) for col in series.values())
    assert np.array_equal(series["fprime"], series["l2_sq"]) and np.array_equal(series["fsecond"], -2.0 * tr.D)
    assert np.array_equal(series["D_delta_1"], series["D"]) and np.array_equal(series["D_delta_0.5"], tr.D_delta[:, 0])
    assert series["energy_residual"] is tr.energy_residual and series["t"][0] == 0.0


@pytest.mark.parametrize("delta_list", [(0.25, 0.2500001), (0.25, 0.25)])
def test_run_rejects_deltas_that_share_a_column(g15, delta_list):
    # two deltas printed alike would write one CSV header name twice
    with pytest.raises(ValueError, match="share a D_delta column"):
        run(eigenmode(g15), FlowParams(H=1.0, dt0=1e-3, t_end=1e-3), delta_list)
    with pytest.raises(ValueError, match="share a D_delta column"):
        trajectory_columns(delta_list)


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
