"""Randomised property tests (hypothesis) of the structural identities."""

import pytest

pytest.importorskip("hypothesis")  # declared in the test extra

from hypothesis import assume, given, settings, strategies as st

from hflow.fields import random_bandlimited
from hflow.grid import make_grid
from hflow.nehari import fibering_coeffs, golden_section_peak, lambda_star

GRIDS = {n: make_grid(n) for n in (15, 31)}


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(sorted(GRIDS)),
    seed=st.integers(0, (1 << 20) - 1),
    amplitude=st.floats(1e-2, 1e2),
    H=st.floats(0.1, 10.0),
)
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
