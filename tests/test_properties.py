"""Randomised property tests (hypothesis) of the structural identities."""

from decimal import Decimal

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # declared in the test extra

from hypothesis import assume, given, settings, strategies as st

from hflow.fields import random_bandlimited
from hflow.functionals import report
from hflow.flow import solve_helmholtz
from hflow.grid import VectorField, h1_forward_sq, laplacian_stencil, make_grid
from hflow.nehari import delta_roots, fibering_coeffs, golden_section_peak, lambda_star
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
