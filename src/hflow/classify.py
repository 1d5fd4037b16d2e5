"""Potential-well membership, trajectory verdicts, decay fits and blow-up reports.

An initial datum is placed by `functionals.region`, the one test that holds
the critical band around the estimated well depth d and the sign tolerance
of the Nehari functional D; its (regime, sign) reads:

    regime      sign of D                code     expected outcome
    low         +1                       t21      global-decay
    low         -1                       t22      blowup
    low         0                        none     undetermined
    critical    0 or +1                  t31      global-decay
    critical    -1                       t32      blowup
    high        high-energy inequality   t52      blowup
    high        +1, |u|_2 <= lambda^     t51.1    global-decay (heuristic)
    high        -1, |u|_2 >= Lambda^     t51.2    blowup (heuristic)

The codes are stable strings used in artifacts; lambda^ / Lambda^ are
sampled estimates over the well's bubble family, so verdicts that rely on
them are flagged heuristic.  classify_initial owns the whole initial
verdict: one report of the datum, its finiteness check and the map from
region to theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import functionals
from .flow import BLOWUP_SUSPECTED, TrajectoryRecord
from .functionals import SIGN_TOL_FACTOR  # noqa: F401 -- one of this module's names
from .grid import VectorField
from .nehari import WellParameters, delta_roots, sample_lambda_Lambda

GLOBAL_DECAY = "global-decay"
BLOWUP = "blowup"
UNDETERMINED = "undetermined"


@dataclass
class Verdict:
    energy_regime: str  # low | critical | high
    well: str  # W | V | boundary | outside
    applicable_theorem: str  # t21 | t22 | t31 | t32 | t51.1 | t51.2 | t52 | none
    expected_outcome: str  # global-decay | blowup | undetermined
    heuristic: bool = False
    details: dict = field(default_factory=dict)


@dataclass
class BlowupReport:
    suspected: bool
    t_last: float
    concavity_positive_from: int | None
    gradient_max: float


@dataclass
class DeltaSignReport:
    delta: float
    persistent: bool
    sign: int  # first nonzero sign along the trajectory (0 if never nonzero)
    first_violation: int | None


@dataclass
class DecayFit:
    rate: float
    bound_satisfied: bool | None
    n_fit: int


def split_identity_residual(energy: float, dirichlet: float, nehari: float) -> float:
    """Relative residual of the split identity E + (1/3) H int(u . u_x ^ u_y) - D/2, which vanishes identically."""
    b_coeff = 0.5 * (nehari - dirichlet)  # = H int u . u_x ^ u_y
    resid = energy + b_coeff / 3.0 - 0.5 * nehari
    scale = max(abs(energy), abs(b_coeff) / 3.0, abs(nehari) / 2.0, 1e-300)
    return abs(resid) / scale


def _e54_of(rep: functionals.FunctionalReport):
    """check_e54 evaluated on the datum's report."""
    b_coeff = 0.5 * (rep.nehari - rep.dirichlet)  # = H int u . u_x ^ u_y
    l2_norm = math.sqrt(rep.l2_sq)
    volume_bound = -b_coeff / 3.0
    satisfied = (rep.energy <= l2_norm) and (l2_norm < volume_bound)
    meas = {
        "energy": rep.energy,
        "l2_norm": l2_norm,
        "volume_bound": volume_bound,
        "nehari": rep.nehari,
        "identity_residual_rel": split_identity_residual(rep.energy, rep.dirichlet, rep.nehari),
    }
    return satisfied, meas


def check_e54(u0: VectorField, H: float):
    """High-energy blow-up inequality E(u0) <= |u0|_2 < -(1/3) H int u0 . u0x ^ u0y.

    Returns (satisfied, measurements).  The measurements include the split
    identity E + (1/3) H int(...) - D/2, which vanishes identically; when
    the inequality holds it forces D(u0) < 0.
    """
    return _e54_of(functionals.report(u0, H))


def delta_window(u0: VectorField, wp: WellParameters):
    """Roots (delta1, delta2) of the well-depth curve at level E(u0); ValueError unless 0 < E(u0) <= d."""
    return delta_roots(functionals.energy_E(u0, wp.H), wp.d)


def classify_initial(u0: VectorField, wp: WellParameters, tol_d: float = 1e-3) -> Verdict:
    """Verdict for an initial datum against the estimated well parameters.

    tol_d >= 0 is the relative width of the critical band around d.  A
    non-finite functional of the datum raises NonFiniteError.  For a
    high-energy datum that check_e54 does not settle, the (lambda^, Lambda^)
    bounds over wp's family decide t51.1 / t51.2.
    """
    if not tol_d >= 0.0:
        raise ValueError(f"need tol_d >= 0, got {tol_d}")
    with np.errstate(over="ignore", invalid="ignore"):
        rep = functionals.report(u0, wp.H)
    bad = [f"{k} = {v}" for k, v in vars(rep).items() if not math.isfinite(v)]
    if bad:
        raise functionals.NonFiniteError(f"initial datum has non-finite functionals: {', '.join(bad)}")
    e, dd = rep.energy, rep.nehari
    details = dict(energy=e, nehari=dd, dirichlet=rep.dirichlet, l2_sq=rep.l2_sq, d=wp.d, tol_d=tol_d)

    if rep.l2_sq == 0.0:
        details["note"] = "zero datum: stays zero for all time"
        return Verdict("low", "W", "none", GLOBAL_DECAY, details=details)

    if 0.0 < e <= wp.d:
        details["delta1"], details["delta2"] = delta_roots(e, wp.d)
    elif e <= 0.0:
        # nonpositive energy: the Nehari sign persists for every delta
        details["delta1"], details["delta2"] = 0.0, 1.5

    regime, sign = functionals.region(e, dd, rep.dirichlet, wp.d, tol_d)
    if regime == "low":
        if sign > 0:
            return Verdict("low", "W", "t21", GLOBAL_DECAY, details=details)
        if sign < 0:
            return Verdict("low", "V", "t22", BLOWUP, details=details)
        details["note"] = "D vanishes below the well depth (discretization boundary case)"
        return Verdict("low", "boundary", "none", UNDETERMINED, details=details)

    if regime == "critical":
        if sign >= 0:
            return Verdict("critical", "boundary", "t31", GLOBAL_DECAY, details=details)
        return Verdict("critical", "boundary", "t32", BLOWUP, details=details)

    e54_ok, e54_meas = _e54_of(rep)
    details["e54"] = e54_meas
    if e54_ok:
        return Verdict("high", "outside", "t52", BLOWUP, details=details)
    # high: E - d > tol_d d >= 0, so the family's minimising row lies below E
    (lam_hat, lam_eps), (cap_hat, cap_eps) = sample_lambda_Lambda(e, wp)
    details.update(lambda_hat=lam_hat, Lambda_hat=cap_hat, lambda_hat_eps=lam_eps, Lambda_hat_eps=cap_eps)
    l2_norm = math.sqrt(rep.l2_sq)
    if sign > 0 and l2_norm <= lam_hat:
        return Verdict("high", "outside", "t51.1", GLOBAL_DECAY, heuristic=True, details=details)
    if sign < 0 and l2_norm >= cap_hat:
        return Verdict("high", "outside", "t51.2", BLOWUP, heuristic=True, details=details)
    return Verdict("high", "outside", "none", UNDETERMINED, details=details)


def check_sign_persistence(tr: TrajectoryRecord, deltas=None) -> list[DeltaSignReport]:
    """Verify that sign(D_delta(u(t))) is constant along the recorded samples.

    Each sample's sign is `functionals.nehari_sign` against its h1_sq, and a 0 cannot break persistence.
    """
    if deltas is None:
        deltas = tr.delta_list
    reports = []
    for d in deltas:
        if d not in tr.delta_list:
            raise ValueError(f"delta {d} was not monitored along this trajectory")
        signs = functionals.nehari_sign(tr.D_delta[:, tr.delta_list.index(d)], tr.h1_sq)
        nonzero = signs[signs != 0]
        lead = int(nonzero[0]) if nonzero.size else 0
        bad = np.flatnonzero(signs * lead < 0)  # none when every sign is 0
        reports.append(DeltaSignReport(d, bad.size == 0, lead, int(bad[0]) if bad.size else None))
    return reports


def fit_decay_rate(tr: TrajectoryRecord, delta1: float | None = None) -> DecayFit:
    """Least-squares decay rate of log |u|_2^2 and the pointwise decay bound.

    The fit runs over samples with l2_sq above 1e3 times the decay floor.
    When delta1 is given, bound_satisfied checks
    l2_sq(t) <= l2_sq(0) exp(-2 (1 - delta1) t) at every sample (the bound
    relies on the first Dirichlet eigenvalue of the unit square exceeding 1).
    """
    mask = tr.l2_sq > 1e3 * tr.params.decay_l2_floor
    if int(mask.sum()) < 2:
        raise ValueError("fit error: fewer than 2 samples above the decay floor")
    slope = np.polyfit(tr.t[mask], np.log(tr.l2_sq[mask]), 1)[0]
    bound = None
    if delta1 is not None:
        envelope = tr.l2_sq[0] * np.exp(-2.0 * (1.0 - delta1) * tr.t)
        bound = bool(np.all(tr.l2_sq <= envelope * (1.0 + 1e-12)))
    return DecayFit(rate=-float(slope), bound_satisfied=bound, n_fit=int(mask.sum()))


def blowup_report(tr: TrajectoryRecord) -> BlowupReport:
    """Blow-up evidence: stop cause, trailing concavity window, gradient peak."""
    conc = tr.concavity
    not_positive = np.flatnonzero(~(conc > 0.0))  # nan included
    start = int(not_positive[-1]) + 1 if not_positive.size else 0
    return BlowupReport(
        suspected=tr.status == BLOWUP_SUSPECTED,
        t_last=float(tr.t[-1]),
        concavity_positive_from=None if start == len(conc) else start,
        gradient_max=float(np.max(tr.h1_sq)),
    )
