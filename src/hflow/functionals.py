"""Energy, volume and Nehari functionals for the H-system on discrete fields.

Each functional is a function of the pair (A, V) that the grid's one
central pass, `grid.dirichlet_and_volume`, reads off a field u (H is the
constant mean curvature, H > 0):

    A = dirichlet(u) = integral |grad u|^2       (central differences)
    V                = integral u . u_x ^ u_y    (report's volume is (2/3) H V)
    energy_E(u, H)        = energy_of(A, V, H)        = A/2 + (2/3) H V
    nehari_D(u, H, delta) = nehari_of(A, V, H, delta) = delta A + 2 H V  (D at delta = 1)

so nehari = dirichlet + 3*volume and energy = dirichlet/6 + nehari/3 hold up
to rounding.  ||u|| denotes sqrt(A) throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import VectorField, dirichlet_and_volume, l2_norm_sq

# constant of the isoperimetric inequality for H_0^1(Omega; R^3)
ISOPERIMETRIC_CONST = (32.0 * math.pi) ** (1.0 / 3.0)

DELTA_MAX = 1.5
SIGN_TOL_FACTOR = 1e-10  # |D| up to this times the Dirichlet integral reads as zero (`nehari_sign`)
# the least m - 1 of an above-peak datum m lambda* w: on its fiber D = (1 - m) dirichlet, so its D reads negative
ABOVE_PEAK_MARGIN = 10.0 * SIGN_TOL_FACTOR


class NonFiniteError(RuntimeError):
    """A functional of the initial datum, a recorded series or a number bound for an artifact is inf or NaN."""


@dataclass
class FunctionalReport:
    dirichlet: float
    volume: float
    energy: float
    nehari: float
    l2_sq: float


def _check_delta(delta: float, closed_right: bool = False):
    hi_ok = delta <= DELTA_MAX if closed_right else delta < DELTA_MAX
    if not (0.0 < delta and hi_ok):
        rng = "(0, 3/2]" if closed_right else "(0, 3/2)"
        raise ValueError(f"delta = {delta} outside {rng}")


def energy_E(u: VectorField, H: float) -> float:
    return energy_of(*dirichlet_and_volume(u), H)


def nehari_D(u: VectorField, H: float, delta: float = 1.0) -> float:
    _check_delta(delta)
    return nehari_of(*dirichlet_and_volume(u), H, delta)


def r_of_delta(delta: float, H: float) -> float:
    """Norm radius below which the delta-Nehari functional is positive."""
    _check_delta(delta)
    if H <= 0.0:
        raise ValueError(f"need H > 0, got {H}")
    return 2.0 * math.sqrt(2.0 * math.pi) * delta / H


def a_of_delta(delta: float) -> float:
    """Coefficient 1/2 - delta/3 (defined up to and including delta = 3/2)."""
    _check_delta(delta, closed_right=True)
    return 0.5 - delta / 3.0


def isoperimetric_gap(u: VectorField) -> float:
    """dirichlet(u) - (32 pi)^(1/3) |integral u . u_x ^ u_y|^(2/3).

    Nonnegative for resolved fields, up to discretization slack.
    """
    return isoperimetric_gap_of(*dirichlet_and_volume(u))


def isoperimetric_gap_of(dirichlet: float, volume: float) -> float:
    """The isoperimetric gap from a field's (dirichlet, integral u . u_x ^ u_y)."""
    return dirichlet - ISOPERIMETRIC_CONST * abs(volume) ** (2.0 / 3.0)


def energy_of(a: float, v: float, H: float) -> float:
    """The energy from a field's (dirichlet, integral u . u_x ^ u_y)."""
    return 0.5 * a + (2.0 / 3.0) * H * v


def nehari_of(a: float, v: float, H: float, delta: float = 1.0) -> float:
    """The delta-Nehari functional from a field's (dirichlet, integral u . u_x ^ u_y); D at delta = 1."""
    return delta * a + 2.0 * H * v


def nehari_sign(nehari, dirichlet):
    """Sign of D (-1, 0 or 1), read as 0 within SIGN_TOL_FACTOR * dirichlet and for NaN; elementwise on arrays.
    Two comparisons: np.sign and np.where would page in numpy code that no other step of a CLI run touches."""
    tol = SIGN_TOL_FACTOR * dirichlet
    return (nehari > tol) * 1 - (nehari < -tol) * 1


def region(energy: float, nehari: float, dirichlet: float, d: float, tol_d: float) -> tuple[str, int]:
    """(regime, sign of D) of a state against the well depth d: the one region test.

    With the band b = tol_d * d (tol_d >= 0, since d itself carries estimation error), the regime is low
    for E < d - b, critical for E - d <= b above that, and high for E - d > b; the sign is `nehari_sign`.
    """
    band = tol_d * d
    regime = "low" if energy < d - band else "critical" if energy - d <= band else "high"
    return regime, nehari_sign(nehari, dirichlet)


def report(u: VectorField, H: float) -> FunctionalReport:
    """All functionals in one pass over the field."""
    dirichlet, vol_int = dirichlet_and_volume(u)
    return FunctionalReport(
        dirichlet=dirichlet,
        volume=(2.0 / 3.0) * H * vol_int,
        energy=energy_of(dirichlet, vol_int, H),
        nehari=nehari_of(dirichlet, vol_int, H),
        l2_sq=l2_norm_sq(u),
    )
