import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hflow.classify import SIGN_TOL_FACTOR
from hflow.cli import _amplitude_for_energy_level
from hflow.fields import cutoff_weight, random_bandlimited
from hflow.functionals import a_of_delta, energy_E, nehari_D, r_of_delta
from hflow.grid import VectorField, h1_seminorm_sq, interior_coords, make_grid
from hflow.nehari import (
    EstimationError,
    FiberingCoefficients,
    NoMaximizerError,
    bubble_direction,
    bubble_family,
    d_of_delta,
    default_eps_grid,
    delta_roots,
    estimate_d,
    fiber_peak_energy,
    fibering_coeffs,
    golden_section_peak,
    lambda_sampler,
    lambda_star,
    optimal_bubble,
    project_nehari_delta,
    sample_lambda_Lambda,
)

WELL_DEPTH_LIMIT = 4.0 * math.pi / 3.0  # concentration limit of the depth for H = 1


def _negative_direction(g, seed):
    """Seeded band-limited direction oriented so the cubic coefficient is negative."""
    u = random_bandlimited(g, seed=seed)
    c = fibering_coeffs(u, 1.0)
    if c.B > 0.0:
        u = u.scaled(-1.0)
    return u


def test_fibering_coeffs_zero_and_homogeneity(g31):
    z = VectorField.zeros(g31)
    c = fibering_coeffs(z, 1.0)
    assert c.A == 0.0 and c.B == 0.0
    u = random_bandlimited(g31, seed=3)
    c1 = fibering_coeffs(u, 1.0)
    c2 = fibering_coeffs(u.scaled(2.0), 1.0)
    assert c2.A == pytest.approx(4.0 * c1.A, rel=1e-13)
    assert c2.B == pytest.approx(8.0 * c1.B, rel=1e-13)


def test_fibering_reproduces_functionals(g31):
    u = _negative_direction(g31, 7)
    c = fibering_coeffs(u, 1.0)
    for lam in (0.3, 1.0, 2.7):
        energy = 0.5 * lam**2 * c.A + (2.0 / 3.0) * lam**3 * c.B
        assert energy == pytest.approx(energy_E(u.scaled(lam), 1.0), rel=1e-12)
        for delta in (0.5, 1.0, 1.25):
            assert delta * lam**2 * c.A + 2.0 * lam**3 * c.B == pytest.approx(
                nehari_D(u.scaled(lam), 1.0, delta), rel=1e-12, abs=1e-13
            )


@pytest.mark.parametrize("n", [15, 31, 63])
def test_fibering_reduction_random_fields(n):
    # E(lam u) = lam^2 A / 2 + (2/3) lam^3 B with (A, B) = fibering_coeffs(u, H), seeded fields and H
    rng = np.random.default_rng(200 + n)
    g = make_grid(n)
    for k in range(6):
        H = float(rng.uniform(0.05, 20.0))
        if k % 2:
            u = VectorField(g, rng.uniform(0.1, 10.0) * rng.standard_normal((3, n, n)))
        else:
            u = random_bandlimited(g, int(rng.integers(1 << 20)), int(rng.integers(1, 12)))
        c = fibering_coeffs(u, H)
        for lam in rng.uniform(-3.0, 3.0, size=3):
            expected = 0.5 * lam**2 * c.A + (2.0 / 3.0) * lam**3 * c.B
            scale = 0.5 * lam**2 * c.A + (2.0 / 3.0) * abs(lam**3 * c.B)
            assert energy_E(u.scaled(lam), H) == pytest.approx(expected, abs=1e-12 * scale)
            d_expected = lam**2 * c.A + 2.0 * lam**3 * c.B
            assert nehari_D(u.scaled(lam), H) == pytest.approx(d_expected, abs=3e-12 * scale)


def test_lambda_star_closed_forms():
    c = FiberingCoefficients(A=1.0, B=-0.5)
    assert lambda_star(c) == pytest.approx(1.0, rel=1e-15)
    assert fiber_peak_energy(c) == pytest.approx(1.0 / 6.0, rel=1e-15)
    # the (x, y, xy) coefficients: lambda* = 16/3, peak = 1024/81
    c = FiberingCoefficients(A=8.0 / 3.0, B=-0.25)
    assert lambda_star(c) == pytest.approx(16.0 / 3.0, rel=1e-15)
    assert fiber_peak_energy(c) == pytest.approx(1024.0 / 81.0, rel=1e-15)
    assert fiber_peak_energy(c) == pytest.approx(12.642, abs=1e-3)


def test_lambda_star_requires_negative_B():
    with pytest.raises(NoMaximizerError):
        lambda_star(FiberingCoefficients(A=1.0, B=1.0))
    with pytest.raises(NoMaximizerError):
        lambda_star(FiberingCoefficients(A=0.0, B=-1.0))


def test_project_nehari_delta_scales(g31):
    c = FiberingCoefficients(A=8.0 / 3.0, B=-0.25)
    assert project_nehari_delta(c, 1.0) == pytest.approx(lambda_star(c), rel=1e-15)
    assert project_nehari_delta(c, 0.5) == pytest.approx(8.0 / 3.0, rel=1e-15)
    # linear in delta
    assert project_nehari_delta(c, 0.75) == pytest.approx(0.75 * lambda_star(c), rel=1e-15)
    with pytest.raises(ValueError):
        project_nehari_delta(c, 1.5)


def test_projection_zeroes_nehari_and_energy_form(g63):
    # direct functional evaluation at the projected scale
    H = 1.0
    u = bubble_direction(g63, H, eps=0.25)
    c = fibering_coeffs(u, H)
    for delta in (0.5, 1.0, 1.25):
        lam = project_nehari_delta(c, delta)
        scaled = u.scaled(lam)
        assert abs(nehari_D(scaled, H, delta)) <= 1e-10 * c.A * lam * lam
        assert energy_E(scaled, H) == pytest.approx(
            a_of_delta(delta) * lam * lam * c.A, rel=1e-11
        )


def test_fiber_sign_trichotomy_and_peak(g63):
    H = 1.0
    for seed in range(6):
        u = _negative_direction(g63, seed)
        c = fibering_coeffs(u, H)
        if c.B >= 0.0:
            continue
        lam = lambda_star(c)
        assert nehari_D(u.scaled(0.5 * lam), H) > 0.0
        assert abs(nehari_D(u.scaled(lam), H)) <= 1e-8 * c.A * lam * lam
        assert nehari_D(u.scaled(2.0 * lam), H) < 0.0
        peak = energy_E(u.scaled(lam), H)
        for s in (0.25, 0.5, 2.0, 4.0):
            assert energy_E(u.scaled(s * lam), H) <= peak
        # far energy is negative: E(4 lambda* u) = -80 * peak
        assert energy_E(u.scaled(4.0 * lam), H) == pytest.approx(-80.0 * peak, rel=1e-9)


def test_golden_section_matches_lambda_star(g63):
    H = 1.0
    for seed in range(5):
        u = _negative_direction(g63, seed + 100)
        c = fibering_coeffs(u, H)
        if c.B >= 0.0:
            continue
        lam = lambda_star(c)
        lam_gs = golden_section_peak(u, H, 0.0, 4.0 * lam, tol=1e-9 * lam)
        assert abs(lam_gs - lam) / lam <= 1e-6


def _ray_energy(u, energy_of_lambda, calls):
    """A stand-in for energy_E that reads lambda back off the scaled field u and counts its calls."""
    k = np.unravel_index(np.argmax(np.abs(u.values)), u.values.shape)

    def energy(v, H):
        calls.append(v)
        return energy_of_lambda(v.values[k] / u.values[k])

    return energy


def _golden_section_count(lo, hi, tol):
    """Energy evaluations of a plain golden-section search: two, then one per shrink by 1/phi."""
    return 2 + math.ceil(math.log(tol / (hi - lo)) / math.log((math.sqrt(5.0) - 1.0) / 2.0))


def _no_coefficients(*args, **kwargs):
    raise AssertionError("the search must not read the fibering coefficients")


def test_search_reads_only_the_energy(g31, monkeypatch):
    u = _negative_direction(g31, 7)
    lam = lambda_star(fibering_coeffs(u, 1.0))
    peak = 2.3 * lam  # a cubic ray energy peaked away from lambda*
    calls = []
    monkeypatch.setattr("hflow.functionals.energy_E", _ray_energy(u, lambda s: s * s * (3.0 * peak - 2.0 * s), calls))
    monkeypatch.setattr("hflow.nehari.fibering_coeffs", _no_coefficients)
    monkeypatch.setattr("hflow.nehari.lambda_star", _no_coefficients)
    tol = 1e-6 * peak
    assert abs(golden_section_peak(u, 1.0, 0.0, 4.0 * lam, tol=tol) - peak) <= tol
    assert calls


@pytest.mark.parametrize("where", [0.05, 0.3819660112501051, 0.5, 0.7318, 0.999])
def test_search_converges_on_a_tent(g31, monkeypatch, where):
    # E = -|lambda - lambda0| has no parabola to follow: golden steps must carry the search
    u = random_bandlimited(g31, seed=5)
    lo, hi, tol = 0.0, 3.0, 3e-9
    peak = lo + where * (hi - lo)
    calls = []
    monkeypatch.setattr("hflow.functionals.energy_E", _ray_energy(u, lambda s: -abs(s - peak), calls))
    assert abs(golden_section_peak(u, 1.0, lo, hi, tol=tol) - peak) <= tol
    assert len(calls) <= 2 * _golden_section_count(lo, hi, tol)


def test_search_evaluation_budget(g63, monkeypatch):
    # the directions of test_golden_section_matches_lambda_star; golden section alone takes 48
    H = 1.0
    calls = []

    def energy(v, H):
        calls.append(v)
        return energy_E(v, H)

    monkeypatch.setattr("hflow.functionals.energy_E", energy)
    for seed in range(5):
        u = _negative_direction(g63, seed + 100)
        lam = lambda_star(fibering_coeffs(u, H))
        del calls[:]
        golden_section_peak(u, H, 0.0, 4.0 * lam, tol=1e-9 * lam)
        assert len(calls) <= 26, seed
    assert _golden_section_count(0.0, 4.0, 1e-9) == 48


def test_estimate_d_single_direction(g63):
    u = bubble_direction(g63, 1.0, eps=0.25)
    wp = estimate_d(1.0, g63, eps_grid=[0.25])
    assert wp.d == fiber_peak_energy(fibering_coeffs(u, 1.0))
    assert (wp.eps_grid, wp.center) == ((0.25,), (0.5, 0.5))
    assert "(1 scales)" in wp.provenance


def _meshgrid_bubble(g, H, center, eps):
    """The bubble as the meshgrid formula writes it: the bits bubble_direction must keep."""
    X, Y = interior_coords(g)
    z1 = (X - center[0]) / eps
    z2 = (Y - center[1]) / eps
    den = 1.0 + z1 * z1 + z2 * z2
    return np.stack([2.0 * z1 / den, 2.0 * z2 / den, -2.0 / den]) / H * cutoff_weight(X, Y)


@pytest.mark.parametrize("n", [15, 50, 127])
@pytest.mark.parametrize("H", [1.0, 0.7])
@pytest.mark.parametrize("center", [(0.5, 0.5), (0.3, 0.6)])
@pytest.mark.parametrize("eps", ["4h", 0.1178, 0.35])
def test_bubble_direction_has_the_meshgrid_formulas_bits(n, H, center, eps):
    g = make_grid(n)
    eps = 4.0 * g.h if eps == "4h" else eps
    u = bubble_direction(g, H, center, eps)
    assert u.values.tobytes() == _meshgrid_bubble(g, H, center, eps).tobytes()


def test_bubble_direction_is_built_in_its_result():
    # each n x n value is formed once, in the (3, n, n) result; the cutoff's own chain makes the only n x n
    # temporaries left, so the traced peak stays under 2.5 results where the meshgrid formula's reached 4
    g = make_grid(127)
    bubble_direction(g)  # warm
    tracemalloc.start()
    try:
        values = bubble_direction(g).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * values.nbytes


def test_estimate_d_bubble_family_band(g63):
    wp = estimate_d(1.0, g63)
    assert 0.98 * WELL_DEPTH_LIMIT <= wp.d <= 1.25 * WELL_DEPTH_LIMIT
    assert wp.d >= a_of_delta(1.0) * r_of_delta(1.0, 1.0) ** 2 * 0.98
    fibers = [row["fiber_energy"] for row in wp.family_table]
    assert all(f is not None for f in fibers)
    # family minimum sits at the most concentrated resolvable scale
    assert np.argmin(fibers) == 0


def test_estimate_d_scales_inversely_with_H_squared(g63):
    d1 = estimate_d(1.0, g63).d
    d2 = estimate_d(2.0, g63).d
    assert d2 == pytest.approx(d1 / 4.0, rel=1e-10)


def test_estimate_d_error_cases(g63, monkeypatch):
    # zero-field bubbles have A = B = 0: no fiber maximum anywhere
    monkeypatch.setattr("hflow.nehari.bubble_direction", lambda g, *args: VectorField.zeros(g))
    with pytest.raises(EstimationError, match="no family member has a fiber maximum"):
        estimate_d(1.0, g63)


@pytest.mark.parametrize("eps_grid", [[], np.array([])], ids=["list", "array"])
def test_empty_scale_grid_is_an_estimation_error(g15, eps_grid):
    # the empty family is reported as such, not as an IndexError from the provenance string
    with pytest.raises(EstimationError, match="empty direction family"):
        estimate_d(1.0, g15, eps_grid=eps_grid)
    with pytest.raises(EstimationError, match="empty direction family"):
        optimal_bubble(g15, 1.0, eps_grid=eps_grid)


def test_optimal_bubble_matches_family_min(g63):
    wp = estimate_d(1.0, g63)
    eps, u = optimal_bubble(g63, 1.0)
    assert fiber_peak_energy(fibering_coeffs(u, 1.0)) == pytest.approx(wp.d, rel=1e-13)
    assert eps == pytest.approx(default_eps_grid(g63)[0])


def test_d_of_delta_curve():
    d = 4.2
    assert d_of_delta(1.0, d) == d
    assert d_of_delta(1.5, d) == 0.0
    assert d_of_delta(0.5, d) == pytest.approx(d / 2.0, rel=1e-15)
    # strictly increasing on (0, 1], strictly decreasing on [1, 3/2)
    deltas = np.linspace(0.05, 1.0, 20)
    vals = [d_of_delta(x, d) for x in deltas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    deltas = np.linspace(1.0, 1.45, 10)
    vals = [d_of_delta(x, d) for x in deltas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        d_of_delta(0.0, d)
    with pytest.raises(ValueError):
        d_of_delta(1.6, d)
    with pytest.raises(ValueError):
        d_of_delta(1.0, -1.0)


def _roots_oracle(ratio):
    # independent oracle: real roots of -2 x^3 + 3 x^2 - ratio
    roots = np.roots([-2.0, 3.0, 0.0, -ratio])
    real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-12)
    inside = [r for r in real if 0.0 < r < 1.5]
    return inside[0], inside[-1]


def test_delta_roots_against_polynomial_oracle():
    d = 1.0
    for e in (0.9, 0.5, 0.1, 1e-3):
        r1, r2 = delta_roots(e, d)
        o1, o2 = _roots_oracle(e / d)
        assert r1 == pytest.approx(o1, abs=1e-10)
        assert r2 == pytest.approx(o2, abs=1e-10)
        assert 0.0 < r1 < 1.0 < r2 < 1.5
    assert delta_roots(1.0, 1.0) == (1.0, 1.0)
    # the half-depth level factors exactly: (1/2, (1 + sqrt(3))/2)
    r1, r2 = delta_roots(0.5, 1.0)
    assert r1 == pytest.approx(0.5, abs=1e-10)
    assert r2 == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, abs=1e-10)


def test_delta_roots_limits_and_errors():
    r1, r2 = delta_roots(1e-9, 1.0)
    assert r1 < 1e-4 and r2 > 1.4999
    for e, d in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            delta_roots(e, d)


@pytest.mark.parametrize("e", [1e-18, 3e-19, 5e-324])
def test_delta_roots_of_a_tiny_energy_follow_the_asymptotes(e):
    # for a tiny level the closed form meets the cubic's asymptotes, sqrt(e/3) and 3/2 - 2e/9,
    # subnormal levels included
    r1, r2 = delta_roots(e, 1.0)
    assert r1 == pytest.approx(math.sqrt(e) / math.sqrt(3.0), rel=1e-9)
    if e > 1e-300:  # the cubic itself underflows on a subnormal level
        assert (3.0 - 2.0 * r1) * r1 * r1 == pytest.approx(e, rel=1e-15)
    assert r2 == 1.5 - 2.0 * e / 9.0


def test_delta_roots_is_both_branches_of_the_cubic():
    for ratio in (1e-6, 0.3, 0.5, 0.999):
        below, above = delta_roots(ratio, 1.0)
        assert 0.0 < below < 1.0 < above < 1.5
        for m in (below, above):  # the slope of the cubic is at most 4.5 on (0, 3/2)
            assert (3.0 - 2.0 * m) * m * m == pytest.approx(ratio, abs=1e-11)
    assert delta_roots(0.5, 1.0)[0] == pytest.approx(0.5, abs=1e-15)
    # on the peak both roots are 1; the above-peak datum of an energy level keeps D < 0 there
    # through its margin, ten times the tolerance below which classify reads D as zero
    assert delta_roots(1.0, 1.0) == (1.0, 1.0)
    w = bubble_direction(make_grid(15), 1.0, eps=0.25)
    c = fibering_coeffs(w, 1.0)
    m = _amplitude_for_energy_level(c, 1.0, fiber_peak_energy(c), "above-peak") / lambda_star(c)
    assert m - 1.0 > SIGN_TOL_FACTOR


def _exact_roots(ratio, digits=60):
    """Both roots of (3 - 2m) m^2 = ratio by bisection in `digits`-digit decimal arithmetic.

    The float ratio converts to Decimal exactly.  Below the peak the root lies in
    [sqrt(ratio/3), min(sqrt(ratio), 1)], since m^2 <= (3 - 2m) m^2 <= 3 m^2 there; above it in
    [1, 3/2].  Each bracket is halved until its width is below 1e-45 of its lower end.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        r = Decimal(ratio)

        def bisect(lo, hi, rising):
            while hi - lo > lo * Decimal("1e-45"):
                mid = (lo + hi) / 2
                if ((3 - 2 * mid) * mid * mid < r) == rising:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        return bisect((r / 3).sqrt(), min(r.sqrt(), Decimal(1)), True), bisect(Decimal(1), Decimal("1.5"), False)


def _relative_errors(ratio):
    with localcontext() as ctx:
        ctx.prec = 60
        return [abs(Decimal(got) - x) / x for got, x in zip(delta_roots(ratio, 1.0), _exact_roots(ratio))]


# log-spaced over [1e-298, 1), the ratio at which the former bisection erred by 4e-4 on delta1
# (its absolute stopping width against a root near 1e-9), and ratios next to the peak
EXACT_RATIOS = [*np.geomspace(1e-298, 1.0, 501)[:-1], 3.1e-18, 0.99, 1.0 - 2.0**-30, 1.0 - 2.0**-53]


def test_delta_roots_match_an_exact_reference():
    worst = max(max(_relative_errors(float(ratio))) for ratio in EXACT_RATIOS)
    assert worst <= Decimal("2e-15")


def test_sample_lambda_Lambda_bubble_sampler(g63):
    H = 1.0
    wp = estimate_d(H, g63)
    sampler = [bubble_direction(g63, H, eps=e) for e in default_eps_grid(g63)]
    lo, hi = sample_lambda_Lambda(1.10 * wp.d, wp.d, H, sampler)
    assert 0.0 < lo <= hi < math.inf
    # single direction: the two estimates coincide
    single = [bubble_direction(g63, H, eps=0.25)]
    alpha = 1.01 * fiber_peak_energy(fibering_coeffs(single[0], H))
    lo1, hi1 = sample_lambda_Lambda(alpha, wp.d, H, single)
    assert lo1 == hi1
    # enlarging alpha with the same sampler widens the bracket
    lo2, hi2 = sample_lambda_Lambda(2.20 * wp.d, wp.d, H, sampler)
    assert lo2 <= lo and hi2 >= hi


def test_lambda_sampler_streams_the_list_it_replaced(g31, g63):
    H, seed, count = 1.0, 5, 40
    wp = estimate_d(H, g31)
    sampler = lambda_sampler(g31, wp, seed, count=count)
    assert iter(sampler) is sampler
    listed = [random_bandlimited(g31, seed + i, kmax=6) for i in range(count)]
    listed += [u for _, u in bubble_family(g31, H, default_eps_grid(g31), (0.5, 0.5))]
    got = list(sampler)
    assert len(got) == len(listed)
    assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(got, listed))
    for alpha in (1.1 * wp.d, 100.0 * wp.d):
        streamed = sample_lambda_Lambda(alpha, wp.d, H, lambda_sampler(g31, wp, seed, count=count))
        assert streamed == sample_lambda_Lambda(alpha, wp.d, H, listed)
    # one direction at a time: the peak stays far below the 200 fields of a list
    wp = estimate_d(H, g63)
    field_bytes = 3 * 63 * 63 * 8
    tracemalloc.start()
    try:
        sample_lambda_Lambda(100.0 * wp.d, wp.d, H, lambda_sampler(g63, wp, seed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * field_bytes


def test_sample_lambda_Lambda_errors(g63):
    H = 1.0
    u = bubble_direction(g63, H, eps=0.25)
    peak = fiber_peak_energy(fibering_coeffs(u, H))
    with pytest.raises(EstimationError):
        sample_lambda_Lambda(0.9 * peak, 0.5 * peak, H, [u])
    with pytest.raises(ValueError):
        sample_lambda_Lambda(1.0, 2.0, H, [u])


def test_projected_members_norm_bounds(g63):
    # ||lambda* u||^2 = 6 * fiber peak, so peaks below d stay inside the 6d ball
    # and every projected member has norm at least r(1) (up to discrete slack)
    H = 1.0
    wp = estimate_d(H, g63)
    r1 = r_of_delta(1.0, H)
    for seed in range(6):
        u = _negative_direction(g63, seed + 50)
        c = fibering_coeffs(u, H)
        if c.B >= 0.0:
            continue
        lam = lambda_star(c)
        norm_sq = h1_seminorm_sq(u.scaled(lam))
        peak = fiber_peak_energy(c)
        assert norm_sq == pytest.approx(6.0 * peak, rel=1e-10)
        assert math.sqrt(norm_sq) >= r1 * 0.98
        if peak <= wp.d:
            assert norm_sq <= 6.0 * wp.d * (1.0 + 1e-9)
