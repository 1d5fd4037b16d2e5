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
    nehari_D_delta,
    report,
    volume_integral,
)
from hflow.grid import (
    GridSpec,
    VectorField,
    derivs,
    h1_forward_sq,
    h1_seminorm_sq,
    laplacian_stencil,
)
from hflow.nehari import fibering_coeffs

GRIDS = [GridSpec(n, n, 1.0 / (n + 1)) for n in (1, 2, 3, 15, 31, 63)] + [
    GridSpec(15, 9, 1.0 / 16),
    GridSpec(9, 31, 1.0 / 32),
    GridSpec(1, 5, 1.0 / 6),
]
FIELDS = ("bandlimited", "white", "white-F", "zero", "negative-zero", "signed-zeros", "boundary-ring")


def _field(g: GridSpec, kind: str) -> np.ndarray:
    rng = np.random.default_rng(1000 * g.nx + g.ny)
    shape = (3, g.nx, g.ny)
    if kind == "bandlimited":
        return random_bandlimited(g, 100 * g.nx + g.ny, kmax=6).values
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
    """(h^2 sum s^2, h^2 sum mu s^2) of the sine spectrum s of v, in the order `_State` sums them."""
    ws, spec = _Workspace(g), np.empty((3, g.nx, g.ny))
    ws.sine_transform(v, spec)
    sq = spec * spec
    return g.h * g.h * float(np.sum(sq)), g.h * g.h * float(np.sum(sq * ws.mu))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _same(got, want):
    assert _bits(got) == _bits(want), (got, want)


@pytest.mark.parametrize("kind", FIELDS)
@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_routed_functions_match_padded_compositions_bitwise(g, kind):
    v = _field(g, kind)
    u = VectorField(g, v)
    h = g.h
    H = 1.0 + 0.37 * g.nx
    ux, uy = _ref_gradient(v, h)
    w = _ref_wedge(ux, uy)
    h1 = _ref_h1(ux, uy, h)
    vol = _ref_integrate_dot(v, w, h)

    kx, ky, kw = derivs(v, h)
    for got, want in ((kx, ux), (ky, uy), (kw, w)):
        _same(got, want)
    _same(h1_seminorm_sq(u), h1)
    _same(volume_integral(u), vol)
    _same(energy_E(u, H), 0.5 * h1 + (2.0 / 3.0) * H * vol)
    _same(nehari_D(u, H), h1 + 2.0 * H * vol)
    _same(nehari_D_delta(u, H, 0.75), 0.75 * h1 + 2.0 * H * vol)
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

    # _State: |u|_2^2 and the forward form from the sine spectrum, the rest from the kernel
    s = _State(u, H, _Workspace(g))
    s_l2, s_fwd = _spectral_energies(v, g)
    s_vol = h * h * float(np.sum(v * w))
    _same(s.wedge, w)
    _same(s.l2, s_l2)
    _same(s.h1, h1)
    _same(s.vol, s_vol)
    _same(s.h1_fwd, s_fwd)
    _same(s.E_fwd, 0.5 * s_fwd + (2.0 / 3.0) * H * s_vol)
    _same(s.D, h1 + 2.0 * H * s_vol)


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_zero_field_gives_positive_zeros(g):
    u = VectorField.zeros(g)
    arrays = list(derivs(u.values, g.h)) + [_State(u, 2.0, _Workspace(g)).wedge]
    assert not any(np.signbit(a).any() for a in arrays)
    rep = report(u, 2.0)
    c = fibering_coeffs(u, 2.0)
    scalars = [
        h1_seminorm_sq(u), volume_integral(u), energy_E(u, 2.0), nehari_D(u, 2.0),
        nehari_D_delta(u, 2.0, 0.5), isoperimetric_gap(u), c.A, c.B,
        rep.dirichlet, rep.volume, rep.energy, rep.nehari, rep.l2_sq,
    ]  # fmt: skip
    assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in scalars)


def test_derivs_writes_into_given_buffers():
    g = GridSpec(15, 9, 1.0 / 16)
    v = _field(g, "white")
    out = tuple(np.full(v.shape, np.nan) for _ in range(3))
    got = derivs(v, g.h, out=out)
    assert all(a is b for a, b in zip(got, out))
    for a, b in zip(got, derivs(v, g.h)):
        _same(a, b)


def test_each_entry_point_takes_one_derivative_pass(monkeypatch):
    # every central difference goes through grid._differences; derivs adds the wedge to it
    calls = {"_differences": [], "derivs": []}

    def counting(name, real):
        def f(*args, **kwargs):
            calls[name].append(1)
            return real(*args, **kwargs)

        return f

    monkeypatch.setattr(grid, "_differences", counting("_differences", grid._differences))
    wrapped = counting("derivs", grid.derivs)
    for mod in (grid, functionals, nehari, flow):
        if hasattr(mod, "derivs"):
            monkeypatch.setattr(mod, "derivs", wrapped)
    g = GridSpec(15, 15, 1.0 / 16)
    u = VectorField(g, _field(g, "bandlimited"))
    ws = _Workspace(g)
    entries = {
        "energy_E": lambda: energy_E(u, 1.0),
        "nehari_D": lambda: nehari_D(u, 1.0),
        "nehari_D_delta": lambda: nehari_D_delta(u, 1.0, 0.5),
        "isoperimetric_gap": lambda: isoperimetric_gap(u),
        "volume_integral": lambda: volume_integral(u),
        "fibering_coeffs": lambda: fibering_coeffs(u, 1.0),
        "report": lambda: report(u, 1.0),
        "_State": lambda: _State(u, 1.0, ws),
        "h1_seminorm_sq": lambda: h1_seminorm_sq(u),
    }
    counts = {}
    for name, f in entries.items():
        for c in calls.values():
            c.clear()
        f()
        counts[name] = (len(calls["_differences"]), len(calls["derivs"]))
    assert counts == {name: (1, 0 if name == "h1_seminorm_sq" else 1) for name in entries}


# the kept per-thread scratch of the float-valued functions


def _scalars(u, H):
    c = fibering_coeffs(u, H)
    rep = report(u, H)
    return [
        h1_seminorm_sq(u), volume_integral(u), energy_E(u, H), nehari_D(u, H), nehari_D_delta(u, H, 0.5),
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


INTERLEAVED = [GRIDS[i] for i in (4, 6, 4, 7, 5, 6, 4, 8, 7, 4)]


def test_scratch_bitwise_across_interleaved_grid_shapes():
    # a shape change remakes the scratch; what one grid leaves in it must not reach the next
    for k, g in enumerate(INTERLEAVED):
        for kind in FIELDS:
            v = _field(g, kind) * (1.0 + k)
            got = _scalars(VectorField(g, v), 1.5)
            assert all(type(x) is float for x in got)
            _same(got, _ref_scalars(v, g, 1.5))
            assert grid._scratch.bufs[0].shape == v.shape


def test_no_result_aliases_the_scratch():
    g = GridSpec(15, 9, 1.0 / 16)
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
    jobs = [(GRIDS[i], kind) for i in (4, 6, 7, 5) for kind in ("white", "white-F", "bandlimited")]
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
