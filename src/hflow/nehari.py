"""Fibering-map algebra, Nehari projections and well-depth estimation.

Along a ray lambda -> lambda*u the functionals reduce exactly to the pair
(A, B) with A = dirichlet(u), B = H * integral u . u_x ^ u_y:

    E(lambda u)       = lambda^2 A / 2 + 2 lambda^3 B / 3
    D_delta(lambda u) = delta lambda^2 A + 2 lambda^3 B

For B < 0 the fiber energy has a unique interior maximum at
lambda* = -A / (2B), where D(lambda* u) = 0 and
E(lambda* u) = A^3 / (24 B^2).  The well depth d is estimated as the
minimum of that projected fiber energy over a family of concentrating
bubble directions (pole-shifted inverse stereographic spheres under a C^2
cutoff); the infimum is a concentration limit, so a deterministic
parametric family is used instead of manifold descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import functionals
from .fields import cutoff_weight
from .grid import GridSpec, VectorField, dirichlet_and_volume, l2_norm_sq


class NoMaximizerError(ValueError):
    """The fiber energy has no interior maximum (B >= 0)."""


class EstimationError(RuntimeError):
    """A sampled estimate could not be formed."""


@dataclass(frozen=True)
class FiberingCoefficients:
    A: float  # dirichlet integral, >= 0
    B: float  # H-weighted volume integral


@dataclass
class WellParameters:
    H: float
    d: float
    provenance: str
    family_table: list = field(default_factory=list)  # rows: {"label", "eps", "A", "B", "fiber_energy", "l2_sq"}
    center: tuple = (0.5, 0.5)  # the family's bubble center


def fibering_coeffs(u: VectorField, H: float) -> FiberingCoefficients:
    a, v = dirichlet_and_volume(u)
    return FiberingCoefficients(A=a, B=H * v)


def lambda_star(c: FiberingCoefficients) -> float:
    """Scale of the unique fiber-energy maximum; D(lambda* u) = 0 there."""
    if c.A <= 0.0:
        raise NoMaximizerError("zero direction has no fiber maximum")
    if c.B >= 0.0:
        raise NoMaximizerError(f"fiber energy is increasing (B = {c.B} >= 0)")
    return -c.A / (2.0 * c.B)


def fiber_peak_energy(c: FiberingCoefficients) -> float:
    """E at the fiber maximum: A^3 / (24 B^2)."""
    lambda_star(c)  # validates A > 0, B < 0
    return c.A**3 / (24.0 * c.B**2)


def project_nehari_delta(c: FiberingCoefficients, delta: float) -> float:
    """Scale lambda(delta) = -delta A / (2B) with D_delta(lambda u) = 0.

    At that scale E(lambda u) = a(delta) * lambda^2 * A.  The positive root
    is used (the bare stationarity relation would give a negative scale for
    B < 0).
    """
    functionals._check_delta(delta)
    return delta * lambda_star(c)


def bubble_direction(g: GridSpec, H: float = 1.0, center=(0.5, 0.5), eps: float = 0.25) -> VectorField:
    """Cutoff concentrating sphere of radius 1/H at `center`, scale `eps`.

    Inverse stereographic parametrization with the far-field pole value
    subtracted so the map decays, multiplied by the C^2 cutoff; its fiber
    peak energy approaches the well depth as eps -> 0.
    """
    if H <= 0.0:
        raise ValueError(f"need H > 0, got {H}")
    if eps <= 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    # the nodes of interior_coords as a column and a row: each n x n value is formed once, in the result,
    # by the same operations in the same order as on the meshgrid, so the bits are the meshgrid's
    x = g.nodes()[:, None]
    y = x.T
    z1 = (x - center[0]) / eps
    z2 = (y - center[1]) / eps
    vals = np.empty((3, g.n, g.n))
    den = np.add(1.0 + z1 * z1, z2 * z2, out=vals[2])
    np.divide(2.0 * z1, den, out=vals[0])
    np.divide(2.0 * z2, den, out=vals[1])
    np.divide(-2.0, den, out=den)
    vals /= H
    vals *= cutoff_weight(x, y)
    return VectorField(g, vals)


def family_floor(g: GridSpec, eps_min="4h", eps_max: float = 0.35) -> float:
    """The bubble family's smallest scale: eps_min, where "4h" is the resolution floor of g.  A floor above
    eps_max is a ValueError."""
    lo = 4.0 * g.h if eps_min == "4h" else eps_min
    if lo > eps_max:
        if eps_min == "4h":
            raise ValueError(
                f"grid n = {g.n} is too coarse for the bubble family: its floor 4h = {lo:g} exceeds "
                f"eps_max = {eps_max:g}; this range needs n >= {math.ceil(4.0 / eps_max - 1.0)}"
            )
        raise ValueError(f"eps_min = {lo:g} exceeds eps_max = {eps_max:g}")
    return lo


def family_scales(g: GridSpec, eps_min="4h", eps_max: float = 0.35, count: int = 12) -> np.ndarray:
    """The bubble family's `count` scales, log-spaced from `family_floor` up to eps_max."""
    return np.geomspace(family_floor(g, eps_min, eps_max), eps_max, count)


def bubble_family(g: GridSpec, H: float, eps_grid, center):
    """(eps, field) over the scale grid: a generator, one bubble at a time."""
    for e in eps_grid:
        yield float(e), bubble_direction(g, H, center, float(e))


def estimate_d(H: float, g: GridSpec, eps_grid=None, center=(0.5, 0.5)) -> WellParameters:
    """Estimate the well depth as the family minimum of fiber peak energies.

    The family is the cutoff bubble family at `center` over `eps_grid`
    (`family_scales(g)` when None), made one bubble at a time; the returned
    parameters record its center and one row per member: its scale, (A, B),
    fiber peak and squared L^2 norm.  Members whose fiber energy has no
    interior maximum (B >= 0) are skipped.
    """
    eps_grid = tuple(float(e) for e in (family_scales(g) if eps_grid is None else eps_grid))
    if not eps_grid:
        raise EstimationError("empty direction family")
    table = []
    for e, u in bubble_family(g, H, eps_grid, center):
        c = fibering_coeffs(u, H)
        row = {"label": f"eps={e:.6g}", "eps": e, "A": c.A, "B": c.B, "l2_sq": l2_norm_sq(u)}
        try:
            row["fiber_energy"] = fiber_peak_energy(c)
        except NoMaximizerError:
            row["fiber_energy"] = None
        table.append(row)
    usable = [r["fiber_energy"] for r in table if r["fiber_energy"] is not None]
    if not usable:
        raise EstimationError("no family member has a fiber maximum (all B >= 0)")
    provenance = (
        f"cutoff pole-shifted stereographic bubbles, center={tuple(center)}, "
        f"eps in [{eps_grid[0]:.6g}, {eps_grid[-1]:.6g}] ({len(eps_grid)} scales), n={g.n}, H={H}"
    )
    return WellParameters(H=H, d=min(usable), provenance=provenance, family_table=table, center=tuple(center))


def family_minimizer(wp: WellParameters) -> tuple[float, FiberingCoefficients]:
    """(eps, coefficients) of the first minimal row of wp's bubble-family table."""
    row = wp.family_table[[r["fiber_energy"] for r in wp.family_table].index(wp.d)]
    return row["eps"], FiberingCoefficients(A=row["A"], B=row["B"])


def optimal_bubble(g: GridSpec, H: float, eps_grid=None, center=(0.5, 0.5)):
    """(eps, field) minimizing the fiber peak energy over the scale grid."""
    eps, _ = family_minimizer(estimate_d(H, g, eps_grid, center))
    return eps, bubble_direction(g, H, center, eps)


def d_of_delta(delta: float, d: float) -> float:
    """(3 - 2 delta) delta^2 d: the delta-projected well-depth curve.

    Maximal at delta = 1 with value d; vanishes at the endpoints of
    (0, 3/2].
    """
    functionals._check_delta(delta, closed_right=True)
    if d <= 0.0:
        raise ValueError(f"need d > 0, got {d}")
    return (3.0 - 2.0 * delta) * delta**2 * d


def delta_roots(e: float, d: float):
    """The two roots delta1 <= 1 <= delta2 of (3 - 2 delta) delta^2 = e/d, in closed form.

    One cubic serves the depth curve d(delta) = (3 - 2 delta) delta^2 d and the fiber energy
    E(m lambda* u) = (3 - 2m) m^2 * peak.  With e/d = sin^2 psi and h = psi/3 its roots are
    2 sin h cos(pi/6 - h) and 3/2 - 2 sin^2 h (Viete, written free of cancellation; Press et al.,
    Numerical Recipes, 3rd ed., 5.6), exact to a few ulp for every ratio in (0, 1], subnormal
    ones included.  Returns (1, 1) when e == d.
    """
    if not (0.0 < e <= d):
        raise ValueError(f"need 0 < e <= d, got e={e}, d={d}")
    if e == d:
        return (1.0, 1.0)
    r = e / d
    h = math.atan2(math.sqrt(r), math.sqrt(1.0 - r)) / 3.0
    s = math.sin(h)
    return (2.0 * s * math.cos(math.pi / 6.0 - h), 1.5 - 2.0 * s * s)


def golden_section_peak(u: VectorField, H: float, lo: float, hi: float, tol: float = 1e-9) -> float:
    """argmax of lambda -> E(lambda u) on [lo, hi] by Brent's method.

    Golden-section steps plus parabolic interpolation through the three best
    points so far; a golden step is taken whenever the parabola leaves the
    bracket or stops shrinking it (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 5).  Returns the best point once the
    bracket is no wider than `tol`.  Evaluates the energy functional
    directly on scaled fields and never reads (A, B); serves as the
    independent cross-check of lambda_star.  Raises ValueError unless
    lo < hi are finite and tol is finite and positive.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite bracket lo < hi, got lo={lo}, hi={hi}")
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise ValueError(f"need finite tol > 0, got tol={tol}")
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    step_min = 0.25 * tol  # no two evaluations closer; the bracket closes to 4 step_min around x

    def f(lam):  # minimised
        return -functionals.energy_E(u.scaled(lam), H)

    a, b = lo, hi
    x = w = v = a + golden * (b - a)  # best, second best, previous second best
    fx = fw = fv = f(x)
    d = e = 0.0  # last step and the one before it
    while b - a > tol:
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > step_min:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept only a step inside the bracket and under half the step before last
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
        if parabolic:
            e, d = d, p / q
            if x + d - a < 2.0 * step_min or b - (x + d) < 2.0 * step_min:
                d = step_min if x < mid else -step_min
        else:
            e = (b if x < mid else a) - x
            d = golden * e
        z = x + (d if abs(d) >= step_min else math.copysign(step_min, d))
        fz = f(z)
        if fz <= fx:  # z is the new best; x bounds the bracket on the far side
            a, b = (a, x) if z < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, z, fz
        else:
            a, b = (z, b) if z < x else (a, z)
            if fz <= fw or w == x:
                v, fv, w, fw = w, fw, z, fz
            elif fz <= fv or v == x or v == w:
                v, fv = z, fz
    return x


def sample_lambda_Lambda(alpha: float, wp: WellParameters):
    """Sampled bounds for the extreme L^2 norms over the truncated Nehari set, with the scales giving them.

    Each member of wp's bubble family with a fiber maximum is projected onto
    the Nehari manifold at lambda*; projections with ||.||^2 < 6 alpha, i.e.
    fiber peak below alpha, are kept and ((min, eps), (max, eps)) of their
    L^2 norms returned.  These are an upper estimate of the infimum and a
    lower estimate of the supremum (sampling, not optimization).  The family's
    rows are read off wp; no field is built.
    """
    if alpha <= wp.d:
        raise ValueError(f"need alpha > d, got alpha={alpha}, d={wp.d}")
    kept = [
        (lambda_star(FiberingCoefficients(A=row["A"], B=row["B"])) * math.sqrt(row["l2_sq"]), row["eps"])
        for row in wp.family_table
        if row["fiber_energy"] is not None and row["fiber_energy"] < alpha
    ]
    if not kept:
        raise EstimationError(f"no family member lands in the truncated Nehari set at alpha={alpha}")
    return min(kept), max(kept)
