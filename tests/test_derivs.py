"""The derivative kernel `grid.derivs` against the compositions it replaced.

Every routed function must give the same bits as the padded-gradient
compositions written out below, including the sign of zero, whether or not
it runs in the grid's kept scratch.
"""

import math
import sys
import threading

import numpy as np
import pytest

from hflow import flow, functionals, grid, nehari
from hflow.fields import random_bandlimited
from hflow.flow import _State, _Workspace, solve_helmholtz
from hflow.functionals import (
    ISOPERIMETRIC_CONST,
    energy_E,
    isoperimetric_gap,
    nehari_D,
    report,
)
from hflow.grid import (
    GridSpec,
    VectorField,
    derivs,
    dirichlet_and_volume,
    h1_forward_sq,
    h1_seminorm_sq,
    laplacian_stencil,
    make_grid,
)
from hflow.nehari import fibering_coeffs

# at n = 4, 9 and 20, 2h and h^2 are not powers of two: the kernels divide
GRIDS = [make_grid(n) for n in (3, 4, 7, 9, 15, 20, 31, 63)]
FIELDS = ("bandlimited", "white", "white-F", "zero", "negative-zero", "signed-zeros", "boundary-ring", "subnormal")


def _field(g: GridSpec, kind: str) -> np.ndarray:
    rng = np.random.default_rng(1001 * g.n)
    shape = (3, g.n, g.n)
    if kind == "bandlimited":
        return random_bandlimited(g, 101 * g.n, kmax=6).values
    if kind == "white":
        return rng.standard_normal(shape)
    if kind == "white-F":
        return np.asfortranarray(rng.standard_normal(shape))
    if kind == "zero":
        return np.zeros(shape)
    if kind == "negative-zero":
        return np.full(shape, -0.0)
    if kind == "signed-zeros":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    if kind == "subnormal":
        return rng.standard_normal(shape) * 1e-310
    ring = rng.standard_normal(shape)
    ring[:, 1:-1, 1:-1] = 0.0  # supported on the rows and columns next to the boundary
    return ring


# the compositions the kernels replaced: padded gradient, stencil and forward
# differences, stacked wedge, summed forms


def _ref_pad(v):
    p = np.zeros((3, v.shape[1] + 2, v.shape[2] + 2))
    p[:, 1:-1, 1:-1] = v
    return p


def _ref_gradient(v, h):
    p = _ref_pad(v)
    ux = (p[:, 2:, 1:-1] - p[:, :-2, 1:-1]) / (2.0 * h)
    uy = (p[:, 1:-1, 2:] - p[:, 1:-1, :-2]) / (2.0 * h)
    return ux, uy


def _ref_wedge(a, b):
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _ref_h1(ux, uy, h):
    return h**2 * float(np.sum(ux**2) + np.sum(uy**2))


def _ref_integrate_dot(a, b, h):
    return h**2 * float(np.sum(np.sum(a * b, axis=0)))


def _ref_laplacian(v, h):
    p = _ref_pad(v)
    out = p[:, 2:, 1:-1] + p[:, :-2, 1:-1]
    out += p[:, 1:-1, 2:]
    out += p[:, 1:-1, :-2]
    out -= 4.0 * v
    out /= h * h
    return out


def _ref_h1_forward(v, h):
    p = _ref_pad(v)
    dxf = (p[:, 1:, 1:-1] - p[:, :-1, 1:-1]) / h
    dyf = (p[:, 1:-1, 1:] - p[:, 1:-1, :-1]) / h
    return h * h * float(np.sum(dxf * dxf) + np.sum(dyf * dyf))


def _spectral_energies(v, g):
    """(w sum s^2, w sum mu s^2), w = h^2 scale, of the solve's spectrum s = T(v) / scale of v at dt = 0,
    in the order `_State` sums them: divided into a fresh C-ordered array, as `_State` divides into ws.spec."""
    ws = _Workspace(g)
    sq = np.square(ws._transform(v, np.empty(v.shape)) / ws.scale)
    weight = g.h * g.h * ws.scale
    return weight * float(np.sum(sq)), weight * float(np.sum(sq * ws.mu))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _same(got, want):
    assert _bits(got) == _bits(want), (got, want)


@pytest.mark.parametrize("kind", FIELDS)
@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.n}x{g.n}")
def test_routed_functions_match_padded_compositions_bitwise(g, kind):
    v = _field(g, kind)
    u = VectorField(g, v)
    h = g.h
    H = 1.0 + 0.37 * g.n
    ux, uy = _ref_gradient(v, h)
    w = _ref_wedge(ux, uy)
    h1 = _ref_h1(ux, uy, h)
    vol = _ref_integrate_dot(v, w, h)

    kx, ky, kw = derivs(v, h)
    for got, want in ((kx, ux), (ky, uy), (kw, w)):
        _same(got, want)
    _same(h1_seminorm_sq(u), h1)
    _same(dirichlet_and_volume(u)[1], vol)
    _same(energy_E(u, H), 0.5 * h1 + (2.0 / 3.0) * H * vol)
    _same(nehari_D(u, H), h1 + 2.0 * H * vol)
    _same(nehari_D(u, H, 0.75), 0.75 * h1 + 2.0 * H * vol)
    _same(isoperimetric_gap(u), h1 - ISOPERIMETRIC_CONST * abs(vol) ** (2.0 / 3.0))
    c = fibering_coeffs(u, H)
    _same(c.A, h1)
    _same(c.B, H * vol)
    _same(laplacian_stencil(v, h), _ref_laplacian(v, h))
    _same(h1_forward_sq(u), _ref_h1_forward(v, h))

    # report reduces the Dirichlet integral in the one order energy_E uses
    rep = report(u, H)
    volume = (2.0 / 3.0) * H * vol
    _same(rep.dirichlet, h1)
    _same(rep.volume, volume)
    _same(rep.energy, 0.5 * h1 + volume)
    _same(rep.energy, energy_E(u, H))
    _same(rep.nehari, h1 + 2.0 * H * vol)
    _same(rep.l2_sq, h**2 * float(np.sum(v * v)))

    # _State: |u|_2^2 and the forward form from the sine spectrum, the rest from the functionals' pass
    s = _State(u, H, _Workspace(g))
    s_l2, s_fwd = _spectral_energies(v, g)
    _same(s.wedge, w)
    _same(s.l2, s_l2)
    _same(s.h1, h1)
    _same(s.vol, vol)
    _same(s.h1_fwd, s_fwd)
    _same(s.E_fwd, 0.5 * s_fwd + (2.0 / 3.0) * H * vol)
    _same(s.D, h1 + 2.0 * H * vol)
    _same(s.D, rep.nehari)


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.n}x{g.n}")
def test_zero_field_gives_positive_zeros(g):
    u = VectorField.zeros(g)
    arrays = list(derivs(u.values, g.h)) + [_State(u, 2.0, _Workspace(g)).wedge]
    assert not any(np.signbit(a).any() for a in arrays)
    rep = report(u, 2.0)
    c = fibering_coeffs(u, 2.0)
    scalars = [
        h1_seminorm_sq(u), dirichlet_and_volume(u)[1], energy_E(u, 2.0), nehari_D(u, 2.0),
        nehari_D(u, 2.0, 0.5), isoperimetric_gap(u), c.A, c.B,
        rep.dirichlet, rep.volume, rep.energy, rep.nehari, rep.l2_sq,
    ]  # fmt: skip
    assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in scalars)


@pytest.mark.parametrize("shape", [(3, 2, 2), (3, 2, 5), (3, 9, 2), (3, 15, 9), (3, 9, 31)], ids=str)
@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 21])
def test_kernels_take_raw_arrays_of_two_or_more_nodes_per_axis(shape, h):
    # the kernels read only the array, so any axis of at least 2 nodes works, square or not
    rng = np.random.default_rng(sum(shape))
    for v in (rng.standard_normal(shape), np.where(rng.random(shape) < 0.5, -0.0, 0.0)):
        ux, uy = _ref_gradient(v, h)
        for got, want in zip(derivs(v, h), (ux, uy, _ref_wedge(ux, uy))):
            _same(got, want)
        _same(laplacian_stencil(v, h), _ref_laplacian(v, h))


def test_derivs_writes_into_given_buffers():
    g = make_grid(9)
    v = _field(g, "white")
    out = tuple(np.full(v.shape, np.nan) for _ in range(3))
    got = derivs(v, g.h, out=out)
    assert all(a is b for a, b in zip(got, out))
    for a, b in zip(got, derivs(v, g.h)):
        _same(a, b)


def test_each_entry_point_takes_one_derivative_pass(monkeypatch):
    # every central difference goes through grid.derivs, which the one central pass calls once
    calls, real = [], grid.derivs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (grid, functionals, nehari, flow):
        if hasattr(mod, "derivs"):
            monkeypatch.setattr(mod, "derivs", counting)
    g = make_grid(15)
    u = VectorField(g, _field(g, "bandlimited"))
    ws = _Workspace(g)
    entries = {
        "energy_E": lambda: energy_E(u, 1.0),
        "nehari_D": lambda: nehari_D(u, 1.0),
        "nehari_D at delta 0.5": lambda: nehari_D(u, 1.0, 0.5),
        "isoperimetric_gap": lambda: isoperimetric_gap(u),
        "dirichlet_and_volume": lambda: dirichlet_and_volume(u)[1],
        "fibering_coeffs": lambda: fibering_coeffs(u, 1.0),
        "report": lambda: report(u, 1.0),
        "_State": lambda: _State(u, 1.0, ws),
        "h1_seminorm_sq": lambda: h1_seminorm_sq(u),
    }
    counts = {}
    for name, f in entries.items():
        calls.clear()
        f()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(entries, 1)


# the kept per-thread scratch of the float-valued functions


def _scalars(u, H):
    c = fibering_coeffs(u, H)
    rep = report(u, H)
    return [
        h1_seminorm_sq(u), dirichlet_and_volume(u)[1], energy_E(u, H), nehari_D(u, H), nehari_D(u, H, 0.5),
        isoperimetric_gap(u), c.A, c.B, rep.dirichlet, rep.volume, rep.energy, rep.nehari, rep.l2_sq,
    ]  # fmt: skip


def _ref_scalars(v, g, H):
    ux, uy = _ref_gradient(v, g.h)
    h1 = _ref_h1(ux, uy, g.h)
    vol = _ref_integrate_dot(v, _ref_wedge(ux, uy), g.h)
    volume = (2.0 / 3.0) * H * vol
    return [
        h1, vol, 0.5 * h1 + volume, h1 + 2.0 * H * vol, 0.5 * h1 + 2.0 * H * vol,
        h1 - ISOPERIMETRIC_CONST * abs(vol) ** (2.0 / 3.0), h1, H * vol,
        h1, volume, 0.5 * h1 + volume, h1 + 2.0 * H * vol, g.h**2 * float(np.sum(v * v)),
    ]  # fmt: skip


def _flow_bits(u):
    """The bits of a solve of u and of every series, status and end state of a few flow steps from u."""
    tr = flow.run(u, flow.FlowParams(H=1.5, dt0=1e-4, t_end=5e-4), delta_list=(0.5,))
    arrays = [solve_helmholtz(u, 1e-3).values, *(s for _, s in tr.series()), tr.final_state.values]
    return [_bits(a) for a in arrays] + [tr.status, tr.stop_reason]


def _in_fresh_thread(f, *args):
    """f(*args) in a new thread, which starts without grid scratch."""
    out = []
    t = threading.Thread(target=lambda: out.append(f(*args)))
    t.start()
    t.join(timeout=60)
    return out[0]


INTERLEAVED = [make_grid(n) for n in (31, 9, 31, 7, 63, 9, 31, 3, 7, 31)]


def test_scratch_bitwise_across_interleaved_grid_shapes():
    # a shape change remakes the scratch; what one grid leaves in it must not reach the next,
    # and the flow's workspace, which borrows it, must get the bits of a thread with no history
    for k, g in enumerate(INTERLEAVED):
        for kind in FIELDS:
            v = _field(g, kind) * (1.0 + k)
            got = _scalars(VectorField(g, v), 1.5)
            assert all(type(x) is float for x in got)
            _same(got, _ref_scalars(v, g, 1.5))
            assert grid._scratch.bufs[0].shape == v.shape
            v_before = v.copy()
            assert _flow_bits(VectorField(g, v)) == _in_fresh_thread(_flow_bits, VectorField(g, v_before))
            _same(v, v_before)  # the run and the solve leave the caller's field as it was


def test_workspace_borrows_the_grid_scratch():
    # one owner of full-grid scratch: a run keeps no second set beside the grid's
    for g in (make_grid(31), make_grid(9)):
        ws = _Workspace(g)
        bufs = grid._scratch_for((3, g.n, g.n))
        assert all(a is b for a, b in zip((ws.mid, ws.spec, ws.rhs), bufs, strict=True))


def test_no_result_aliases_the_scratch():
    g = make_grid(9)
    u = VectorField(g, _field(g, "white"))
    energy_E(u, 1.0)
    scratch = grid._scratch.bufs
    arrays = [
        *derivs(u.values, g.h), laplacian_stencil(u.values, g.h),
        _State(u, 1.0, _Workspace(g)).wedge, solve_helmholtz(u, 0.01).values,
    ]  # fmt: skip
    assert not any(np.shares_memory(a, b) for a in arrays for b in scratch)
    kept = [a.copy() for a in arrays]
    energy_E(VectorField(g, _field(g, "bandlimited")), 1.0)  # rewrites the scratch
    assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))


def test_scratch_is_per_thread():
    # each thread keeps its own buffers: threads that evaluate on different grids at
    # once must each get the single-thread bits
    jobs = [(make_grid(n), kind) for n in (31, 9, 7, 63) for kind in ("white", "white-F", "bandlimited")]
    want = [_bits(_scalars(VectorField(g, _field(g, kind)), 1.5)) for g, kind in jobs]
    got = [None] * len(jobs)

    def work(k):
        g, kind = jobs[k]
        u = VectorField(g, _field(g, kind))
        got[k] = all(_bits(_scalars(u, 1.5)) == want[k] for _ in range(20))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [True] * len(jobs)
