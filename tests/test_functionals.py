import math

import numpy as np
import pytest

from hflow.fields import cutoff_weight, eigenmode, random_bandlimited
from hflow.flow import FlowParams, _State, _Workspace, run
from hflow.functionals import (
    ISOPERIMETRIC_CONST,
    a_of_delta,
    energy_E,
    energy_of,
    isoperimetric_gap,
    nehari_D,
    nehari_of,
    r_of_delta,
    report,
)
from hflow.grid import (
    VectorField,
    dirichlet_and_volume,
    h1_forward_sq,
    h1_seminorm_sq,
    l2_norm_sq,
    lattice_gradient,
    lattice_integrate,
    lattice_wedge,
    make_grid,
    sample,
    sample_on_lattice,
)
from hflow.nehari import bubble_direction
from conftest import poly_xyxy


def _lattice_A_B(expr, g, H=1.0):
    """Boundary-true oracle for (dirichlet, H-weighted volume integral)."""
    vals = sample_on_lattice(expr, g)
    gx, gy = lattice_gradient(vals, g.h)
    a = lattice_integrate((gx * gx).sum(0) + (gy * gy).sum(0), g.h)
    b = lattice_integrate((vals * lattice_wedge(gx, gy)).sum(0), g.h)
    return a, H * b


def test_zero_field_functionals(g31):
    z = VectorField.zeros(g31)
    assert report(z, 1.0).volume == 0.0
    assert energy_E(z, 1.0) == 0.0
    assert nehari_D(z, 1.0) == 0.0
    assert isoperimetric_gap(z) == 0.0


def test_polynomial_reference_values(g63):
    # symbolic integrals for u = (x, y, xy): dirichlet 8/3, volume integral -1/4
    a, b = _lattice_A_B(poly_xyxy, g63)
    assert a == pytest.approx(8.0 / 3.0, rel=1e-3)
    assert b == pytest.approx(-0.25, rel=1e-3)
    # the displayed functional combinations, H = 1
    assert (2.0 / 3.0) * b == pytest.approx(-1.0 / 6.0, rel=1e-3)  # volume functional
    assert 0.5 * a + (2.0 / 3.0) * b == pytest.approx(7.0 / 6.0, rel=1e-3)  # energy
    assert a + 2.0 * b == pytest.approx(13.0 / 6.0, rel=1e-3)  # Nehari
    assert 0.75 * a + 2.0 * b == pytest.approx(1.5, rel=1e-3)  # delta = 3/4 variant


def test_clipped_path_matches_lattice_for_h01_fields(g63):
    # for a field vanishing on the boundary with its gradient both paths agree
    expr = lambda X, Y: poly_xyxy(X, Y) * cutoff_weight(X, Y)
    u = sample(expr, g63)
    a_lat, b_lat = _lattice_A_B(expr, g63)
    assert h1_seminorm_sq(u) == pytest.approx(a_lat, rel=2e-3)
    assert dirichlet_and_volume(u)[1] == pytest.approx(b_lat / 1.0, rel=2e-3)


def test_report_consistency_identities(g31):
    for seed in range(4):
        u = random_bandlimited(g31, seed=seed)
        rep = report(u, H=1.3)
        assert rep.nehari == pytest.approx(rep.dirichlet + 3.0 * rep.volume, rel=1e-12)
        assert rep.energy == pytest.approx(rep.dirichlet / 6.0 + rep.nehari / 3.0, rel=1e-12)
        # report values match the standalone operations
        assert rep.dirichlet == pytest.approx(h1_seminorm_sq(u), rel=1e-13)
        assert rep.energy == pytest.approx(energy_E(u, 1.3), rel=1e-12)
        assert nehari_D(u, 1.3, 1.0) == pytest.approx(rep.nehari, rel=1e-12)
        assert nehari_D(u, 1.3, 0.5) == pytest.approx(0.5 * rep.dirichlet + 3.0 * rep.volume, rel=1e-12)


@pytest.mark.parametrize("n", [15, 31, 63])
def test_energy_nehari_split_random_fields(n):
    # E = dirichlet/6 + D/3 on seeded band-limited and white-noise fields at random H
    rng = np.random.default_rng(100 + n)
    g = make_grid(n)
    for k in range(6):
        H = float(rng.uniform(0.05, 20.0))
        if k % 2:
            u = VectorField(g, rng.uniform(0.1, 10.0) * rng.standard_normal((3, n, n)))
        else:
            u = random_bandlimited(g, int(rng.integers(1 << 20)), int(rng.integers(1, 12)))
        rep = report(u, H)
        scale = rep.dirichlet + 2.0 * H * abs(dirichlet_and_volume(u)[1])  # a sum with cancellation
        assert rep.energy == pytest.approx(rep.dirichlet / 6.0 + rep.nehari / 3.0, abs=1e-12 * scale)
        split = h1_seminorm_sq(u) / 6.0 + nehari_D(u, H) / 3.0
        assert energy_E(u, H) == pytest.approx(split, abs=1e-12 * scale)


@pytest.mark.parametrize("kind", ["bandlimited-1", "bandlimited-2", "bubble"])
def test_functionals_are_the_pair_functions_of_their_pass(g31, kind):
    # every E, D and D_delta of the package is energy_of / nehari_of of its field's (dirichlet, volume)
    # pair, with the same bits: report, the field functions, the flow's state and run's first row
    H, deltas = 1.3, (0.25, 0.75, 1.25)
    if kind == "bubble":
        u = bubble_direction(g31, H, (0.5, 0.5), 0.2).scaled(2.0)
    else:
        u = random_bandlimited(g31, seed=int(kind[-1]), kmax=5, h1_norm=3.0)
    a, v = dirichlet_and_volume(u)
    assert v != 0.0
    rep = report(u, H)
    assert (rep.energy, rep.nehari) == (energy_of(a, v, H), nehari_of(a, v, H))
    assert energy_E(u, H) == energy_of(a, v, H)
    assert nehari_D(u, H) == nehari_of(a, v, H) == nehari_of(a, v, H, 1.0)
    for delta in deltas:
        assert nehari_D(u, H, delta) == nehari_of(a, v, H, delta)
    s = _State(u, H, _Workspace(g31))
    assert (s.h1, s.vol) == (a, v)
    assert s.E_fwd == energy_of(s.h1_fwd, v, H)
    assert s.D == nehari_of(a, v, H)
    tr = run(u, FlowParams(H=H, dt0=1e-4, t_end=1e-4), deltas)
    assert list(tr.D_delta[0]) == [nehari_of(a, v, H, delta) for delta in deltas]
    assert (tr.E[0], tr.D[0]) == (s.E_fwd, s.D)


def test_homogeneities_exact(g31):
    u = random_bandlimited(g31, seed=42)
    lam = 1.9
    assert h1_seminorm_sq(u.scaled(lam)) == pytest.approx(lam**2 * h1_seminorm_sq(u), rel=1e-13)
    assert report(u.scaled(lam), 1.0).volume == pytest.approx(lam**3 * report(u, 1.0).volume, rel=1e-13)


def test_r_and_a_of_delta():
    assert r_of_delta(1.0, 1.0) == pytest.approx(2.0 * math.sqrt(2.0 * math.pi), rel=1e-15)
    assert r_of_delta(1.0, 1.0) == pytest.approx(5.013257, abs=1e-6)
    assert r_of_delta(0.5, 2.0) == pytest.approx(math.sqrt(2.0 * math.pi) / 2.0, rel=1e-15)
    assert a_of_delta(1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert a_of_delta(1.5) == 0.0
    for bad in (0.0, -0.3, 1.5, 2.0):
        with pytest.raises(ValueError):
            r_of_delta(bad, 1.0)
    with pytest.raises(ValueError):
        r_of_delta(1.0, 0.0)
    with pytest.raises(ValueError):
        a_of_delta(1.6)


def test_nehari_delta_domain(g31):
    u = random_bandlimited(g31, seed=1)
    for bad in (0.0, 1.5, -1.0):
        with pytest.raises(ValueError):
            nehari_D(u, 1.0, bad)


def test_isoperimetric_gap_single_component(g63):
    # fields with one nonzero component have vanishing volume term
    c = 2.0
    u = eigenmode(g63, amplitude=c)
    gap = isoperimetric_gap(u)
    assert dirichlet_and_volume(u)[1] == pytest.approx(0.0, abs=1e-14)
    assert gap == pytest.approx(h1_seminorm_sq(u), rel=1e-12)
    # and for the polynomial, via the lattice oracle: 8/3 - (32 pi)^(1/3) (1/4)^(2/3)
    a, b = _lattice_A_B(poly_xyxy, g63)
    expected = 8.0 / 3.0 - ISOPERIMETRIC_CONST * 0.25 ** (2.0 / 3.0)
    assert a - ISOPERIMETRIC_CONST * abs(b) ** (2.0 / 3.0) == pytest.approx(expected, rel=1e-3)
    # 8/3 - (32 pi)^(1/3) / 4^(2/3) evaluated with full-precision constants
    assert expected == pytest.approx(0.8213965, abs=1e-6)
    assert expected > 0.0


def test_isoperimetric_gap_random_corpus(g63):
    for seed in range(10):
        u = random_bandlimited(g63, seed=seed)
        a = h1_seminorm_sq(u)
        assert isoperimetric_gap(u) >= -1e-2 * a


def test_small_norm_forces_positive_nehari(g63):
    # ||u|| < r(delta) implies D_delta(u) > 0; checked at 0.9 r(delta)
    H = 1.0
    for seed in range(8):
        u = random_bandlimited(g63, seed=seed)
        a = h1_seminorm_sq(u)
        for delta in (0.5, 1.0, 1.25):
            s = 0.9 * r_of_delta(delta, H) / math.sqrt(a)
            assert nehari_D(u.scaled(s), H, delta) > 0.0


def test_negative_nehari_forces_large_norm(g63):
    H = 1.0
    for seed in range(8):
        u = random_bandlimited(g63, seed=seed)
        b = dirichlet_and_volume(u)[1]
        if b == 0.0:
            continue
        w = u if b < 0.0 else u.scaled(-1.0)
        a = h1_seminorm_sq(w)
        bw = H * dirichlet_and_volume(w)[1]
        for delta in (0.5, 1.0, 1.25):
            s = 1.5 * (-delta * a / (2.0 * bw))  # past the delta-Nehari crossing
            scaled = w.scaled(s)
            assert nehari_D(scaled, H, delta) < 0.0
            assert math.sqrt(h1_seminorm_sq(scaled)) > r_of_delta(delta, H)


@pytest.mark.parametrize("n", [15, 63])
def test_central_form_has_a_null_mode(n):
    # a field constant on the nodes whose indices (from 1) are both odd has no central difference
    # anywhere on an odd grid: its central dirichlet and volume are exactly 0 while its L^2 norm is
    # |c|^2 / 4; the forward form, which the flow dissipates, sees it
    c = np.array([1.0, -2.0, 2.0]) / 3.0
    v = np.zeros((3, n, n))
    v[:, ::2, ::2] = c[:, None, None]
    u = VectorField(make_grid(n), v)
    assert dirichlet_and_volume(u) == (0.0, 0.0)
    assert l2_norm_sq(u) == pytest.approx(0.25 * float(c @ c), rel=1e-14)
    assert h1_forward_sq(u) > 0.0
