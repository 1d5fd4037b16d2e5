"""Randomised property tests (hypothesis) of the structural identities."""

from decimal import Decimal

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # declared in the test extra

from hypothesis import assume, given, settings, strategies as st

from hflow import nehari
from hflow.fields import random_bandlimited
from hflow.functionals import report
from hflow.flow import FlowParams, run, solve_helmholtz
from hflow.grid import VectorField, h1_forward_sq, laplacian_stencil, make_grid
from hflow.nehari import delta_roots, estimate_d, fibering_coeffs, golden_section_peak, lambda_star
from test_nehari import _exact_roots  # the stdlib decimal reference of the fiber cubic

GRIDS = {n: make_grid(n) for n in (15, 31)}
FIELDS = dict(
    n=st.sampled_from(sorted(GRIDS)),
    seed=st.integers(0, (1 << 20) - 1),
    amplitude=st.floats(1e-2, 1e2),
)


@settings(max_examples=40, deadline=None)
@given(**FIELDS, H=st.floats(0.1, 10.0))
def test_search_finds_lambda_star(n, seed, amplitude, H):
    # the direct search of the fiber-map check meets the closed-form scale within criterion 08's bound
    u = random_bandlimited(GRIDS[n], seed).scaled(amplitude)
    c = fibering_coeffs(u, H)
    if c.B > 0.0:
        u = u.scaled(-1.0)
        c = fibering_coeffs(u, H)
    assume(c.B < 0.0)
    lam = lambda_star(c)
    lam_search = golden_section_peak(u, H, 0.0, 4.0 * lam, tol=1e-9 * lam)
    assert abs(lam_search - lam) / lam <= 1e-6


@settings(max_examples=40, deadline=None)
@given(**FIELDS)
def test_summation_by_parts(n, seed, amplitude):
    # h^2 sum Lap(u).u == -h1_forward_sq(u); H does not enter the pairing, the amplitude does
    g = GRIDS[n]
    u = random_bandlimited(g, seed).scaled(amplitude)
    lhs = g.h**2 * float(np.sum(laplacian_stencil(u.values, g.h) * u.values))
    assert lhs == pytest.approx(-h1_forward_sq(u), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(**FIELDS, H=st.floats(0.1, 10.0))
def test_energy_nehari_split(n, seed, amplitude, H):
    # E = dirichlet/6 + D/3, compared on the scale of the terms of the sum with cancellation
    rep = report(random_bandlimited(GRIDS[n], seed).scaled(amplitude), H)
    scale = rep.dirichlet + 3.0 * abs(rep.volume)
    assert rep.energy == pytest.approx(rep.dirichlet / 6.0 + rep.nehari / 3.0, abs=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(**FIELDS, H=st.floats(0.1, 10.0))
def test_sign_flip_negates_B_bitwise(n, seed, amplitude, H):
    # verify-lemmas takes a flipped direction's coefficients as (A, -B) instead of a second pass
    u = random_bandlimited(GRIDS[n], seed).scaled(amplitude)
    c, flipped = fibering_coeffs(u, H), fibering_coeffs(u.scaled(-1.0), H)
    assume(c.B != 0.0)  # an exact cancellation to +0.0 has no sign to flip
    assert (flipped.A.hex(), flipped.B.hex()) == (c.A.hex(), (-c.B).hex())


@settings(max_examples=100, deadline=None)
@given(
    ratio=st.one_of(
        st.floats(1e-298, 1.0, exclude_max=True),
        st.floats(-298.0, 0.0, exclude_max=True).map(lambda x: 10.0**x).filter(lambda r: r < 1.0),
    )
)
def test_delta_roots_are_ordered_and_exact(ratio):
    # both roots of the closed form, tiny levels (log-uniform) and levels next to the peak alike
    below, above = delta_roots(ratio, 1.0)
    assert 0.0 < below < 1.0 < above <= 1.5
    if ratio >= 1e-15:  # below that 3/2 - above, about 2 ratio/9, is under half an ulp of 3/2
        assert above < 1.5
    for got, exact in zip((below, above), _exact_roots(ratio)):
        assert abs(Decimal(got) - exact) <= Decimal("2e-15") * exact


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 40),
    log_dt=st.floats(-6.0, -1.0),
    seed=st.integers(0, (1 << 20) - 1),
    amplitude=FIELDS["amplitude"],
)
def test_solve_residual(n, log_dt, seed, amplitude):
    # the direct solve meets (I - dt Lap_h) w = rhs per component far inside its fixed bound
    g = make_grid(n)
    dt = 10.0**log_dt
    rhs = amplitude * np.random.default_rng(seed).standard_normal((3, n, n))
    w = solve_helmholtz(VectorField(g, rhs), dt).values
    resid = w - dt * laplacian_stencil(w, g.h) - rhs
    for k in range(3):
        assert np.linalg.norm(resid[k]) <= 1e-12 * np.linalg.norm(rhs[k])


# Symmetries of u_t = Lap(u) - 2 H u_x ^ u_y on the unit square, each a map of (3, n, n) values.  A quarter
# turn v(x, y) = u(y, 1 - x) keeps v_x ^ v_y = u_x ^ u_y; a rotation Q of the target has Qa ^ Qb = Q(a ^ b);
# v(x, y) = P u(1 - x, y) with a reflection P has v_x ^ v_y = -(Pu_x ^ Pu_y) = P(u_x ^ u_y).  Each maps
# solutions to solutions and keeps the integrands |grad u|^2, u . u_x ^ u_y and |u|^2 up to the map of the square.
SYMMETRIES = ("quarter turn", "target rotation", "mirror with target reflection")


def _symmetry(name: str, seed: int):
    """The named symmetry as a map of values; the target's rotation or reflection drawn from seed."""
    rng = np.random.default_rng(seed)
    if name == "quarter turn":  # v[i, j] = u[j, n - 1 - i]
        return lambda v: np.ascontiguousarray(np.rot90(v, 1, axes=(1, 2)))
    if name == "target rotation":
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
        return lambda v: np.tensordot(q, v, axes=1)
    normal = rng.standard_normal(3)
    reflection = np.eye(3) - 2.0 * np.outer(normal, normal) / (normal @ normal)
    return lambda v: np.tensordot(reflection, v[:, ::-1], axes=1)


@settings(max_examples=15, deadline=None)
@given(**FIELDS, name=st.sampled_from(SYMMETRIES), H=st.floats(0.1, 10.0))
def test_flow_commutes_with_the_symmetries(n, seed, amplitude, name, H):
    # the same accepted dts (so the same step count and halvings), and final states alike to round-off.  Runs stop
    # once the gradient grows tenfold: nearer blow-up the flow itself amplifies round-off, and a 1e-16 relative
    # perturbation of the datum moves the final state by 1e-13 (n = 31, H = 6, at the default factor 1e4)
    g, sym = GRIDS[n], _symmetry(name, seed)
    u0 = random_bandlimited(g, seed).scaled(amplitude)
    p = FlowParams(H=H, dt0=1e-3, t_end=0.01, record_every=1, blowup_gradient_factor=10.0)
    tr, tr_sym = run(u0, p), run(VectorField(g, sym(u0.values)), p)
    assert (tr_sym.status, list(tr_sym.dt)) == (tr.status, list(tr.dt))
    expected = sym(tr.final_state.values)
    assert np.linalg.norm(tr_sym.final_state.values - expected) <= 1e-13 * np.linalg.norm(expected)


@settings(max_examples=25, deadline=None)
@given(**FIELDS, name=st.sampled_from(SYMMETRIES), H=st.floats(0.1, 10.0))
def test_flow_commutes_with_the_symmetries_up_to_its_round_off_growth(n, seed, amplitude, name, H):
    # at the default blowup_gradient_factor: the run from the datum scaled by 1 + 1e-10 measures how much the flow
    # grows a relative perturbation of its datum (a few hundred near blow-up, about 1 in decay), and the symmetric
    # run, whose rounding differs in each of its m steps, ends within 1e-13 + m * growth * eps of the mapped state
    # (the worst of 600 random cases used a tenth of that allowance)
    g, sym = GRIDS[n], _symmetry(name, seed)
    u0 = random_bandlimited(g, seed).scaled(amplitude)
    p = FlowParams(H=H, dt0=1e-3, t_end=0.01, record_every=1)
    tr, tr_sym, tr_near = run(u0, p), run(VectorField(g, sym(u0.values)), p), run(u0.scaled(1.0 + 1e-10), p)
    assert (tr_sym.status, list(tr_sym.dt)) == (tr.status, list(tr.dt))
    final = tr.final_state.values
    growth = np.linalg.norm(tr_near.final_state.values - final) / (1e-10 * np.linalg.norm(final))
    expected = sym(final)
    allowed = 1e-13 + len(tr.dt) * growth * np.finfo(float).eps
    assert np.linalg.norm(tr_sym.final_state.values - expected) <= allowed * np.linalg.norm(expected)


@settings(max_examples=40, deadline=None)
@given(**FIELDS, name=st.sampled_from(SYMMETRIES), H=st.floats(0.1, 10.0))
def test_functionals_are_invariant_under_the_symmetries(n, seed, amplitude, name, H):
    u = random_bandlimited(GRIDS[n], seed).scaled(amplitude)
    rep, rep_sym = report(u, H), report(VectorField(u.grid, _symmetry(name, seed)(u.values)), H)
    scale = rep.dirichlet + 3.0 * abs(rep.volume)  # of the terms of E and D, which may cancel
    assert rep_sym.energy == pytest.approx(rep.energy, abs=1e-13 * scale)
    assert rep_sym.nehari == pytest.approx(rep.nehari, abs=1e-13 * scale)
    assert rep_sym.l2_sq == pytest.approx(rep.l2_sq, rel=1e-13)


@pytest.mark.parametrize("n", sorted(GRIDS))
@pytest.mark.parametrize("name", SYMMETRIES)
def test_well_depth_at_the_centre_is_invariant_under_the_symmetries(monkeypatch, n, name):
    # each symmetry fixes the centre, so it maps the centred bubble family onto an equally deep family
    g, sym = GRIDS[n], _symmetry(name, n)
    d = estimate_d(1.0, g).d
    family = nehari.bubble_family
    monkeypatch.setattr(
        nehari, "bubble_family", lambda *args: ((e, VectorField(g, sym(u.values))) for e, u in family(*args))
    )
    assert estimate_d(1.0, g).d == pytest.approx(d, rel=1e-13)
