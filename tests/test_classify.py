import math

import numpy as np
import pytest

from hflow.classify import (
    BLOWUP,
    GLOBAL_DECAY,
    UNDETERMINED,
    blowup_report,
    check_e54,
    check_sign_persistence,
    classify_initial,
    delta_window,
    fit_decay_rate,
)
from hflow.fields import discrete_laplacian_eigenvalue, eigenmode
from hflow.flow import REACHED_HORIZON, FlowParams, TrajectoryRecord, run
from hflow.functionals import FunctionalReport, energy_E, nehari_D
from hflow.grid import VectorField, h1_seminorm_sq, l2_norm_sq
from hflow.nehari import (
    WellParameters,
    bubble_direction,
    delta_roots,
    estimate_d,
    fiber_peak_energy,
    fibering_coeffs,
    lambda_star,
    sample_lambda_Lambda,
)


@pytest.fixture(scope="module")
def setup31(g31):
    H = 1.0
    w = bubble_direction(g31, H, eps=0.25)
    c = fibering_coeffs(w, H)
    wp = estimate_d(H, g31)
    return H, w, c, wp


def test_classify_zero_datum(g31, setup31):
    _, _, _, wp = setup31
    v = classify_initial(VectorField.zeros(g31), wp)
    assert v.well == "W"
    assert v.expected_outcome == GLOBAL_DECAY
    assert v.energy_regime == "low"


def test_classify_low_energy_positive_nehari(setup31):
    H, w, c, wp = setup31
    u0 = w.scaled(0.05 * lambda_star(c))
    v = classify_initial(u0, wp)
    assert (v.energy_regime, v.well, v.applicable_theorem) == ("low", "W", "t21")
    assert v.expected_outcome == GLOBAL_DECAY
    assert not v.heuristic
    assert 0.0 < v.details["delta1"] < 1.0 < v.details["delta2"] < 1.5
    d1, d2 = delta_window(u0, wp)
    assert d1 == v.details["delta1"] and d2 == v.details["delta2"]


def test_classify_low_energy_negative_nehari(setup31):
    H, w, c, wp = setup31
    u0 = w.scaled(1.6 * lambda_star(c))
    assert energy_E(u0, H) <= 0.0 and nehari_D(u0, H) < 0.0
    v = classify_initial(u0, wp)
    assert (v.energy_regime, v.well, v.applicable_theorem) == ("low", "V", "t22")
    assert v.expected_outcome == BLOWUP
    # nonpositive energy: the whole delta range persists
    assert (v.details["delta1"], v.details["delta2"]) == (0.0, 1.5)


def test_classify_low_energy_vanishing_nehari_boundary(g31):
    # on a fiber, D vanishes exactly at lambda*; with a caller-supplied depth
    # above the fiber peak this lands in the low band with signless D
    H = 1.0
    w = bubble_direction(g31, H, eps=0.25)
    c = fibering_coeffs(w, H)
    u0 = w.scaled(lambda_star(c))
    wp = WellParameters(H=H, d=4.0 * fiber_peak_energy(c), provenance="synthetic")
    v = classify_initial(u0, wp)
    assert (v.energy_regime, v.well) == ("low", "boundary")
    assert v.expected_outcome == UNDETERMINED


def test_bounded_orbit_identity(g31):
    # E < alpha with D > 0 pins the Dirichlet integral below 6 alpha
    H = 1.0
    for seed in range(6):
        u = bubble_direction(g31, H, eps=0.2).scaled(0.03 * (seed + 1))
        e, dd = energy_E(u, H), nehari_D(u, H)
        if dd <= 0.0:
            continue
        alpha = e + 0.1
        assert h1_seminorm_sq(u) < 6.0 * alpha


def test_classify_critical_band(g31):
    H = 1.0
    w = bubble_direction(g31, H, eps=0.25)
    c = fibering_coeffs(w, H)
    lam = lambda_star(c)
    # a single-direction well puts the fiber peak exactly at depth d
    wp = WellParameters(H=H, d=fiber_peak_energy(c), provenance="single direction")
    v = classify_initial(w.scaled(0.987 * lam), wp)
    assert (v.energy_regime, v.applicable_theorem) == ("critical", "t31")
    assert v.expected_outcome == GLOBAL_DECAY
    v = classify_initial(w.scaled(1.0129 * lam), wp)
    assert (v.energy_regime, v.applicable_theorem) == ("critical", "t32")
    assert v.expected_outcome == BLOWUP
    assert v.well == "boundary"


def test_classify_high_energy_heuristics(g31, setup31, monkeypatch):
    H, _, _, wp = setup31
    # large eigenmode: volume term vanishes, so D = dirichlet > 0 and E > d
    u0 = eigenmode(g31, amplitude=30.0)
    assert energy_E(u0, H) > wp.d
    l2n = math.sqrt(l2_norm_sq(u0))
    monkeypatch.setattr("hflow.classify.sample_lambda_Lambda", lambda *args: ((2.0 * l2n, 0.1), (4.0 * l2n, 0.2)))
    v = classify_initial(u0, wp)
    assert (v.energy_regime, v.applicable_theorem) == ("high", "t51.1")
    assert v.expected_outcome == GLOBAL_DECAY and v.heuristic
    assert (v.details["lambda_hat_eps"], v.details["Lambda_hat_eps"]) == (0.1, 0.2)
    monkeypatch.setattr("hflow.classify.sample_lambda_Lambda", lambda *args: ((0.1 * l2n, 0.1), (0.5 * l2n, 0.2)))
    v = classify_initial(u0, wp)
    # D > 0 with |u|_2 above the upper estimate: no case applies
    assert v.applicable_theorem == "none" and v.expected_outcome == UNDETERMINED
    monkeypatch.undo()
    v = classify_initial(u0, wp)
    assert v.applicable_theorem == "none" and v.well == "outside"
    # the bounds over wp's family, with the scales of the members that give them
    lo, hi = sample_lambda_Lambda(v.details["energy"], wp)
    assert lo == (v.details["lambda_hat"], v.details["lambda_hat_eps"])
    assert hi == (v.details["Lambda_hat"], v.details["Lambda_hat_eps"])


def _unread_bounds(*args):
    raise AssertionError("the lambda/Lambda bounds were read")


def test_classify_reads_no_sampler_below_the_high_band_or_on_e54(g31, monkeypatch):
    # low (t21, t22), critical (t31, t32) and e54 (t52) data settle without lambda^ / Lambda^
    monkeypatch.setattr("hflow.classify.sample_lambda_Lambda", _unread_bounds)
    H = 1.0
    w = bubble_direction(g31, H, eps=0.25)
    c = fibering_coeffs(w, H)
    lam = lambda_star(c)
    wp = WellParameters(H=H, d=fiber_peak_energy(c), provenance="single direction")
    for mult, code in ((0.05, "t21"), (1.6, "t22"), (0.987, "t31"), (1.0129, "t32")):
        v = classify_initial(w.scaled(mult * lam), wp)
        assert v.applicable_theorem == code and "lambda_hat_eps" not in v.details
    H8 = 8.0
    w8 = bubble_direction(g31, H8, eps=0.25)
    u8 = w8.scaled(1.15 * lambda_star(fibering_coeffs(w8, H8)))
    v = classify_initial(u8, estimate_d(H8, g31))
    assert v.applicable_theorem == "t52" and "lambda_hat_eps" not in v.details


def test_classify_samples_bounds_at_the_high_band_edge(g31, monkeypatch):
    # E - d exceeds the band tol_d * d by one rounding, where d * (1 + tol_d) does not:
    # the one regime decision calls this datum high energy, so its lambda/Lambda bounds are read
    d, e, tol_d = 8.003457162269354, 8.011460619431624, 1e-3
    assert e - d > tol_d * d and not e > d * (1.0 + tol_d)
    # dirichlet 1: the volume term is E - 1/2 and D = dirichlet + 3 volume
    rep = FunctionalReport(dirichlet=1.0, volume=e - 0.5, energy=e, nehari=1.0 + 3.0 * (e - 0.5), l2_sq=1.0)
    assert rep.nehari > rep.dirichlet  # a positive volume term: the e54 inequality fails
    monkeypatch.setattr("hflow.functionals.report", lambda u, H: rep)
    reads = []

    def counted(*args):
        reads.append(True)
        return sample_lambda_Lambda(*args)

    monkeypatch.setattr("hflow.classify.sample_lambda_Lambda", counted)
    # one family row at the depth, lambda* = 1 and |u|_2 = 2: both bounds are 2
    row = {"label": "eps=0.1", "eps": 0.1, "A": 6.0 * d, "B": -3.0 * d, "fiber_energy": d, "l2_sq": 4.0}
    wp = WellParameters(H=1.0, d=d, provenance="synthetic", family_table=[row])
    v = classify_initial(eigenmode(g31), wp, tol_d)
    assert v.energy_regime == "high" and "e54" in v.details
    assert reads == [True]
    assert (v.details["lambda_hat"], v.details["Lambda_hat"], v.details["lambda_hat_eps"]) == (2.0, 2.0, 0.1)
    assert v.applicable_theorem == "t51.1"  # D > 0 and |u|_2 = 1 <= lambda^


def test_classify_e54_field_low_energy_route(setup31):
    # at H = 1 the blow-up inequality forces E <= 0, i.e. the low-energy case
    H, w, c, wp = setup31
    lam = lambda_star(c)
    c_vol = math.sqrt(3.0 * math.sqrt(l2_norm_sq(w)) / (-c.B))
    amp = 1.15 * max(1.5 * lam, c_vol)
    u0 = w.scaled(amp)
    ok, _ = check_e54(u0, H)
    assert ok
    v = classify_initial(u0, wp)
    assert v.applicable_theorem == "t22"
    assert v.expected_outcome == BLOWUP
    assert not v.heuristic


def test_classify_high_energy_blowup_inequality(g31):
    # strong curvature shrinks the well depth so the inequality can hold above it
    H = 8.0
    w = bubble_direction(g31, H, eps=0.25)
    lam = lambda_star(fibering_coeffs(w, H))
    wp = estimate_d(H, g31)
    u0 = w.scaled(1.15 * lam)
    ok, meas = check_e54(u0, H)
    assert ok and meas["energy"] > wp.d
    v = classify_initial(u0, wp)
    assert (v.energy_regime, v.applicable_theorem) == ("high", "t52")
    assert v.expected_outcome == BLOWUP
    assert not v.heuristic


def test_check_e54_zero_and_identity(g31, setup31):
    H, w, c, _ = setup31
    ok, meas = check_e54(VectorField.zeros(g31), H)
    assert not ok
    # the split identity holds for any field to near machine precision
    for s in (0.1, 1.0, 4.0):
        ok, meas = check_e54(w.scaled(s * lambda_star(c)), H)
        assert meas["identity_residual_rel"] <= 1e-12
        if ok:
            assert meas["nehari"] < 0.0


def test_check_e54_flag_implies_negative_nehari(setup31):
    H, w, c, _ = setup31
    lam = lambda_star(c)
    c_vol = math.sqrt(3.0 * math.sqrt(l2_norm_sq(w)) / (-c.B))
    for margin in (1.05, 1.5, 3.0):
        u0 = w.scaled(margin * max(1.5 * lam, c_vol))
        ok, meas = check_e54(u0, H)
        assert ok and meas["nehari"] < 0.0


def test_delta_window_errors(g31, setup31):
    H, w, c, wp = setup31
    with pytest.raises(ValueError):
        delta_window(VectorField.zeros(g31), wp)  # E = 0
    with pytest.raises(ValueError):
        delta_window(w.scaled(1.6 * lambda_star(c)), wp)  # E <= 0
    # mid-level energy reproduces the half-depth factorization
    e_target = 0.5 * wp.d
    d1, d2 = delta_roots(e_target, wp.d)
    assert d1 == pytest.approx(0.5, abs=1e-10)
    assert d2 == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, abs=1e-10)


def test_sign_persistence_decay_run(setup31, g31):
    H, w, c, wp = setup31
    u0 = w.scaled(0.05 * lambda_star(c))
    p = FlowParams(H=H, dt0=1e-3, t_end=0.3, record_every=5)
    tr = run(u0, p, delta_list=(0.25, 0.75, 1.25))
    reports = check_sign_persistence(tr)
    assert all(r.persistent for r in reports)
    assert all(r.sign == 1 for r in reports)
    with pytest.raises(ValueError):
        check_sign_persistence(tr, deltas=(0.33,))


def test_sign_persistence_zero_run(g31):
    p = FlowParams(H=1.0, dt0=1e-2, t_end=0.05)
    tr = run(VectorField.zeros(g31), p, delta_list=(0.5,))
    reports = check_sign_persistence(tr)
    assert reports[0].persistent and reports[0].sign == 0


def _synthetic_record(t, l2, h1=None, D=None, conc=None, status=REACHED_HORIZON, floor=1e-16, D_delta=None):
    """A record whose table holds the given series, zeros where none is given; D_delta maps delta to its series."""
    n = len(t)
    p = FlowParams(H=1.0, dt0=1e-3, t_end=max(float(t[-1]), 1e-6) + 1e-9, decay_l2_floor=floor)
    zeros = np.zeros(n)
    l2 = np.asarray(l2, dtype=float)
    D = zeros if D is None else np.asarray(D, dtype=float)
    D_delta = {} if D_delta is None else D_delta
    cols = [
        t, np.full(n, 1e-3), l2, l2 if h1 is None else h1, zeros, D, *D_delta.values(),
        zeros, l2, -2.0 * D, zeros if conc is None else conc, zeros,
    ]
    table = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    return TrajectoryRecord(params=p, delta_list=tuple(D_delta), table=table, status=status)


def test_sign_persistence_detects_violation():
    t = np.linspace(0.0, 1.0, 5)
    tr = _synthetic_record(t, l2=np.ones(5), h1=np.ones(5), D_delta={1.0: [1.0, 1.0, -0.5, 1.0, 1.0]})
    rep = check_sign_persistence(tr)[0]
    assert not rep.persistent
    assert rep.first_violation == 2


def test_fit_decay_rate_pure_heat(g15):
    u0 = eigenmode(g15, amplitude=1.0)
    p = FlowParams(H=0.0, dt0=1e-3, t_end=0.1, record_every=5)
    tr = run(u0, p)
    fit = fit_decay_rate(tr)
    mu = discrete_laplacian_eigenvalue(g15)
    assert fit.rate == pytest.approx(2.0 * mu, rel=2e-2)
    assert fit.bound_satisfied is None


def test_fit_decay_rate_bound_and_controls(setup31):
    H, w, c, wp = setup31
    u0 = w.scaled(0.05 * lambda_star(c))
    p = FlowParams(H=H, dt0=1e-3, t_end=0.3, record_every=5)
    tr = run(u0, p, delta_list=(0.25,))
    d1, _ = delta_window(u0, wp)
    fit = fit_decay_rate(tr, delta1=d1)
    assert fit.bound_satisfied is True
    assert fit.rate >= 2.0 * (1.0 - d1)
    # synthetic negative control: constant nonzero trajectory
    t = np.linspace(0.0, 1.0, 8)
    flat = _synthetic_record(t, l2=np.ones(8))
    fit = fit_decay_rate(flat, delta1=0.5)
    assert fit.rate == pytest.approx(0.0, abs=1e-12)
    assert fit.bound_satisfied is False


def test_fit_decay_rate_insufficient_samples():
    tr = _synthetic_record([0.0, 1.0], l2=[1e-30, 1e-30])
    with pytest.raises(ValueError, match="fit error"):
        fit_decay_rate(tr)


def test_blowup_report_decay_and_blowup(setup31, g31):
    H, w, c, wp = setup31
    # decay run: no trailing positive-concavity window
    u0 = w.scaled(0.05 * lambda_star(c))
    p = FlowParams(H=H, dt0=1e-3, t_end=0.2, record_every=5)
    tr = run(u0, p)
    rep = blowup_report(tr)
    assert not rep.suspected
    assert rep.concavity_positive_from is None
    # blow-up run: suspected with trailing positive concavity
    u1 = w.scaled(1.6 * lambda_star(c))
    p = FlowParams(H=H, dt0=5e-4, t_end=1.0, record_every=5)
    tr = run(u1, p)
    rep = blowup_report(tr)
    assert rep.suspected
    assert rep.t_last == tr.t[-1] < 1.0
    assert rep.concavity_positive_from is not None
    assert np.all(tr.concavity[rep.concavity_positive_from:] > 0.0)
    assert rep.gradient_max >= tr.h1_sq[0] * 1e4


@pytest.mark.parametrize(
    "conc, start",
    [
        ([1.0, 2.0, 3.0], 0),  # positive throughout: the window is the whole record
        ([1.0, 2.0, 0.0], None),  # a last sample <= 0 closes every window
        ([1.0, 2.0, -1.0], None),
        ([-1.0, 0.0], None),
        ([1.0, math.nan, 2.0, 3.0], 2),  # nan is not positive: the window starts after it
        ([1.0, 2.0, -1.0, 0.5, 3.0], 3),  # two positive runs: the trailing one
        ([1.0, -0.0, 2.0], 2),
    ],
)
def test_blowup_report_trailing_concavity_window(conc, start):
    t = np.linspace(0.0, 1.0, len(conc))
    rep = blowup_report(_synthetic_record(t, l2=np.ones(len(conc)), conc=conc))
    assert rep.concavity_positive_from == start
    assert rep.concavity_positive_from is None or type(rep.concavity_positive_from) is int


def test_blowup_report_zero_run(g31):
    p = FlowParams(H=1.0, dt0=1e-2, t_end=0.05)
    tr = run(VectorField.zeros(g31), p)
    rep = blowup_report(tr)
    assert not rep.suspected and rep.concavity_positive_from is None
