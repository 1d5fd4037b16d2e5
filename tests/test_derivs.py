"""The derivative kernel `grid.derivs` against the compositions it replaced.

Every routed function must give the same bits as the padded-gradient
compositions written out below, including the sign of zero.
"""

import math

import numpy as np
import pytest

from hflow import flow, functionals, grid, nehari
from hflow.fields import random_bandlimited
from hflow.flow import _State, _Workspace
from hflow.functionals import (
    ISOPERIMETRIC_CONST,
    energy_E,
    isoperimetric_gap,
    nehari_D,
    nehari_D_delta,
    report,
    volume_integral,
)
from hflow.grid import GridSpec, VectorField, derivs, gradient, h1_seminorm_sq
from hflow.nehari import fibering_coeffs

GRIDS = [GridSpec(n, n, 1.0 / (n + 1)) for n in (1, 2, 3, 15, 31, 63)] + [
    GridSpec(15, 9, 1.0 / 16),
    GridSpec(9, 31, 1.0 / 32),
    GridSpec(1, 5, 1.0 / 6),
]
FIELDS = ("bandlimited", "white", "zero", "boundary-ring")


def _field(g: GridSpec, kind: str) -> np.ndarray:
    rng = np.random.default_rng(1000 * g.nx + g.ny)
    shape = (3, g.nx, g.ny)
    if kind == "bandlimited":
        return random_bandlimited(g, 100 * g.nx + g.ny, kmax=6).values
    if kind == "white":
        return rng.standard_normal(shape)
    if kind == "zero":
        return np.zeros(shape)
    ring = rng.standard_normal(shape)
    ring[:, 1:-1, 1:-1] = 0.0  # supported on the rows and columns next to the boundary
    return ring


# the compositions the kernel replaced: padded gradient, stacked wedge, summed forms


def _ref_gradient(v, h):
    p = np.zeros((3, v.shape[1] + 2, v.shape[2] + 2))
    p[:, 1:-1, 1:-1] = v
    ux = (p[:, 2:, 1:-1] - p[:, :-2, 1:-1]) / (2.0 * h)
    uy = (p[:, 1:-1, 2:] - p[:, 1:-1, :-2]) / (2.0 * h)
    return ux, uy


def _ref_wedge(a, b):
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _ref_h1(ux, uy, h):
    return h**2 * float(np.sum(ux**2) + np.sum(uy**2))


def _ref_integrate_dot(a, b, h):
    return h**2 * float(np.sum(np.sum(a * b, axis=0)))


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
    gx, gy = gradient(u)
    _same(gx.values, ux)
    _same(gy.values, uy)
    _same(h1_seminorm_sq(u), h1)
    _same(volume_integral(u), vol)
    _same(energy_E(u, H), 0.5 * h1 + (2.0 / 3.0) * H * vol)
    _same(nehari_D(u, H), h1 + 2.0 * H * vol)
    _same(nehari_D_delta(u, H, 0.75), 0.75 * h1 + 2.0 * H * vol)
    _same(isoperimetric_gap(u), h1 - ISOPERIMETRIC_CONST * abs(vol) ** (2.0 / 3.0))
    c = fibering_coeffs(u, H)
    _same(c.A, h1)
    _same(c.B, H * vol)

    rep = report(u, H, deltas=(0.25, 1.25))
    dirichlet = _ref_integrate_dot(ux, ux, h) + _ref_integrate_dot(uy, uy, h)
    volume = (2.0 / 3.0) * H * vol
    _same(rep.dirichlet, dirichlet)
    _same(rep.volume, volume)
    _same(rep.energy, 0.5 * dirichlet + volume)
    _same(rep.nehari, dirichlet + 2.0 * H * vol)
    _same(rep.l2_sq, h**2 * float(np.sum(v * v)))
    _same(list(rep.d_delta.values()), [d * dirichlet + 2.0 * H * vol for d in (0.25, 1.25)])

    ws = _Workspace(g)
    s = _State(u, H, ws)
    p = np.zeros((3, g.nx + 2, g.ny + 2))
    p[:, 1:-1, 1:-1] = v
    dxf = (p[:, 1:, 1:-1] - p[:, :-1, 1:-1]) / h
    dyf = (p[:, 1:-1, 1:] - p[:, 1:-1, :-1]) / h
    s_h1 = h * h * float(np.sum(ux * ux) + np.sum(uy * uy))
    s_vol = h * h * float(np.sum(v * w))
    s_fwd = h * h * float(np.sum(dxf * dxf) + np.sum(dyf * dyf))
    _same(s.wedge, w)
    _same(s.l2, h * h * float(np.sum(v * v)))
    _same(s.h1, s_h1)
    _same(s.vol, s_vol)
    _same(s.h1_fwd, s_fwd)
    _same(s.E_fwd, 0.5 * s_fwd + (2.0 / 3.0) * H * s_vol)
    _same(s.D, s_h1 + 2.0 * H * s_vol)


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_zero_field_gives_positive_zeros(g):
    u = VectorField.zeros(g)
    arrays = list(derivs(u.values, g.h)) + [_State(u, 2.0, _Workspace(g)).wedge]
    assert not any(np.signbit(a).any() for a in arrays)
    rep = report(u, 2.0, deltas=(0.5,))
    c = fibering_coeffs(u, 2.0)
    scalars = [
        h1_seminorm_sq(u), volume_integral(u), energy_E(u, 2.0), nehari_D(u, 2.0),
        nehari_D_delta(u, 2.0, 0.5), isoperimetric_gap(u), c.A, c.B,
        rep.dirichlet, rep.volume, rep.energy, rep.nehari, rep.l2_sq, *rep.d_delta.values(),
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
    calls = []
    real = grid.derivs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (grid, functionals, nehari, flow):
        if hasattr(mod, "derivs"):
            monkeypatch.setattr(mod, "derivs", counting)
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
        "report": lambda: report(u, 1.0, deltas=(0.5, 1.0)),
        "_State": lambda: _State(u, 1.0, ws),
        "gradient": lambda: gradient(u),
        "h1_seminorm_sq": lambda: h1_seminorm_sq(u),
    }
    counts = {}
    for name, f in entries.items():
        calls.clear()
        f()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(entries, 1)
