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
from .fields import cutoff_weight, random_bandlimited
from .grid import GridSpec, VectorField, interior_coords, l2_norm_sq


class NoMaximizerError(ValueError):
    """The fiber energy has no interior maximum (B >= 0)."""


class EstimationError(RuntimeError):
    """A sampled estimate could not be formed."""


@dataclass(frozen=True)
class FiberingCoefficients:
    A: float  # dirichlet integral, >= 0
    B: float  # H-weighted volume integral

    def energy_at(self, lam: float) -> float:
        return 0.5 * lam**2 * self.A + (2.0 / 3.0) * lam**3 * self.B

    def nehari_delta_at(self, lam: float, delta: float = 1.0) -> float:
        return delta * lam**2 * self.A + 2.0 * lam**3 * self.B


@dataclass
class WellParameters:
    H: float
    d: float
    provenance: str
    delta1: float | None = None
    delta2: float | None = None
    family_table: list = field(default_factory=list)  # rows: {"label", "A", "B", "fiber_energy"}


def fibering_coeffs(u: VectorField, H: float) -> FiberingCoefficients:
    a, v = functionals._dirichlet_and_volume(u)
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
    X, Y = interior_coords(g)
    z1 = (X - center[0]) / eps
    z2 = (Y - center[1]) / eps
    den = 1.0 + z1 * z1 + z2 * z2
    vals = np.stack([2.0 * z1 / den, 2.0 * z2 / den, -2.0 / den]) / H
    return VectorField(g, vals * cutoff_weight(X, Y))


def default_eps_grid(g: GridSpec, count: int = 12, eps_max: float = 0.35) -> np.ndarray:
    """Log-spaced scales from the resolution floor 4h up to eps_max."""
    return np.geomspace(4.0 * g.h, eps_max, count)


def bubble_family(g: GridSpec, H: float, eps_grid=None, center=(0.5, 0.5)):
    """[(eps, field), ...] over the scale grid."""
    if eps_grid is None:
        eps_grid = default_eps_grid(g)
    return [(float(e), bubble_direction(g, H, center, float(e))) for e in eps_grid]


def estimate_d(H: float, g: GridSpec, family=None, eps_grid=None, center=(0.5, 0.5)) -> WellParameters:
    """Estimate the well depth as the family minimum of fiber peak energies.

    `family` is an explicit list of direction fields; by default the cutoff
    bubble family over `eps_grid` is used.  Members whose fiber energy has
    no interior maximum (B >= 0) are skipped.
    """
    if family is not None:
        labelled = [(f"member {i}", u) for i, u in enumerate(family)]
        provenance = f"user family of {len(labelled)} directions, n={g.nx}, H={H}"
    else:
        if eps_grid is None:
            eps_grid = default_eps_grid(g)
        labelled = [(f"eps={e:.6g}", u) for e, u in bubble_family(g, H, eps_grid, center)]
        provenance = (
            f"cutoff pole-shifted stereographic bubbles, center={tuple(center)}, "
            f"eps in [{eps_grid[0]:.6g}, {eps_grid[-1]:.6g}] ({len(labelled)} scales), n={g.nx}, H={H}"
        )
    if not labelled:
        raise EstimationError("empty direction family")
    table = []
    for label, u in labelled:
        c = fibering_coeffs(u, H)
        row = {"label": label, "A": c.A, "B": c.B}
        try:
            row["fiber_energy"] = fiber_peak_energy(c)
        except NoMaximizerError:
            row["fiber_energy"] = None
        table.append(row)
    usable = [r["fiber_energy"] for r in table if r["fiber_energy"] is not None]
    if not usable:
        raise EstimationError("no family member has a fiber maximum (all B >= 0)")
    return WellParameters(H=H, d=min(usable), provenance=provenance, family_table=table)


def optimal_bubble(g: GridSpec, H: float, eps_grid=None, center=(0.5, 0.5)):
    """(eps, field) minimizing the fiber peak energy over the scale grid."""
    fam = bubble_family(g, H, eps_grid, center)
    best = min(fam, key=lambda item: fiber_peak_energy(fibering_coeffs(item[1], H)))
    return best


def d_of_delta(delta: float, d: float) -> float:
    """(3 - 2 delta) delta^2 d: the delta-projected well-depth curve.

    Maximal at delta = 1 with value d; vanishes at the endpoints of
    (0, 3/2].
    """
    functionals._check_delta(delta, closed_right=True)
    if d <= 0.0:
        raise ValueError(f"need d > 0, got {d}")
    return (3.0 - 2.0 * delta) * delta**2 * d


def delta_roots(e: float, d: float, tol: float = 1e-12):
    """The two roots delta1 < 1 < delta2 of (3 - 2 delta) delta^2 = e/d.

    Bisection on the monotone brackets (0, 1) and (1, 3/2); returns (1, 1)
    when e == d.
    """
    if not (0.0 < e <= d):
        raise ValueError(f"need 0 < e <= d, got e={e}, d={d}")
    if e == d:
        return (1.0, 1.0)
    ratio = e / d

    def curve(x):
        return (3.0 - 2.0 * x) * x * x - ratio

    def bisect(lo, hi):
        flo = curve(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = curve(mid)
            if hi - lo <= tol:
                return mid
            if (flo < 0.0) == (fm < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return (bisect(1e-9, 1.0), bisect(1.0, 1.5 - 1e-9))


def golden_section_peak(u: VectorField, H: float, lo: float, hi: float, tol: float = 1e-9) -> float:
    """argmax of lambda -> E(lambda u) on [lo, hi] by golden-section search.

    Evaluates the energy functional directly on scaled fields; serves as the
    independent cross-check of lambda_star.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1 = functionals.energy_E(u.scaled(c1), H)
    f2 = functionals.energy_E(u.scaled(c2), H)
    while b - a > tol:
        if f1 > f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = functionals.energy_E(u.scaled(c1), H)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = functionals.energy_E(u.scaled(c2), H)
    return 0.5 * (a + b)


def default_lambda_sampler(g: GridSpec, H: float, seed: int, count: int = 200, kmax: int = 6):
    """Band-limited random directions, then the default bubble family: a generator, one at a time."""
    yield from (random_bandlimited(g, seed + i, kmax=kmax) for i in range(count))
    yield from (bubble_direction(g, H, eps=float(e)) for e in default_eps_grid(g))


def sample_lambda_Lambda(alpha: float, d: float, H: float, sampler):
    """Sampled bounds for the extreme L^2 norms over the truncated Nehari set.

    Each direction with B < 0 is projected onto the Nehari manifold at
    lambda*; projections with ||.||^2 < 6 alpha are kept and the min/max of
    their L^2 norms returned.  These are an upper estimate of the infimum
    and a lower estimate of the supremum (sampling, not optimization).
    `sampler` is any iterable of directions, read once.
    """
    if alpha <= d:
        raise ValueError(f"need alpha > d, got alpha={alpha}, d={d}")
    lo = math.inf
    hi = -math.inf
    kept = 0
    for u in sampler:
        c = fibering_coeffs(u, H)
        if c.A <= 0.0 or c.B >= 0.0:
            continue
        if fiber_peak_energy(c) >= alpha:  # equivalently ||lambda* u||^2 >= 6 alpha
            continue
        l2 = lambda_star(c) * math.sqrt(l2_norm_sq(u))
        lo = min(lo, l2)
        hi = max(hi, l2)
        kept += 1
    if kept == 0:
        raise EstimationError(f"no sampled direction lands in the truncated Nehari set at alpha={alpha}")
    return lo, hi
