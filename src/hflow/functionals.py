"""Energy, volume and Nehari functionals for the H-system on discrete fields.

Conventions (H is the constant mean curvature, H > 0):

    dirichlet(u)   = integral |grad u|^2            (central differences)
    volume_VH(u)   = (2/3) H integral u . u_x ^ u_y
    energy_E(u)    = dirichlet/2 + volume_VH
    nehari_D(u)    = dirichlet + 2 H integral u . u_x ^ u_y
    nehari_D_delta = delta * dirichlet + 2 H integral u . u_x ^ u_y

so nehari = dirichlet + 3*volume and energy = dirichlet/6 + nehari/3 hold as
exact identities of the discrete values.  ||u|| denotes sqrt(dirichlet)
throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import VectorField, _dirichlet_sum, _scratch_for, derivs, l2_norm_sq

# constant of the isoperimetric inequality for H_0^1(Omega; R^3)
ISOPERIMETRIC_CONST = (32.0 * math.pi) ** (1.0 / 3.0)

DELTA_MAX = 1.5


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


def _dirichlet_and_volume(u: VectorField) -> tuple[float, float]:
    """(dirichlet, integral u . u_x ^ u_y) from one derivative pass in the grid's kept scratch."""
    h = u.grid.h
    ux, uy, w = derivs(u.values, h, out=_scratch_for(u.values.shape))
    dirichlet = _dirichlet_sum(ux, uy, h)
    return dirichlet, h ** 2 * float(np.sum(np.sum(np.multiply(u.values, w, out=ux), axis=0)))


def volume_integral(u: VectorField) -> float:
    """integral u . u_x ^ u_y (no H factor)."""
    return _dirichlet_and_volume(u)[1]


def volume_VH(u: VectorField, H: float) -> float:
    return (2.0 / 3.0) * H * volume_integral(u)


def energy_E(u: VectorField, H: float) -> float:
    a, v = _dirichlet_and_volume(u)
    return 0.5 * a + (2.0 / 3.0) * H * v


def nehari_D(u: VectorField, H: float) -> float:
    a, v = _dirichlet_and_volume(u)
    return a + 2.0 * H * v


def nehari_D_delta(u: VectorField, H: float, delta: float) -> float:
    _check_delta(delta)
    a, v = _dirichlet_and_volume(u)
    return delta * a + 2.0 * H * v


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
    return isoperimetric_gap_of(*_dirichlet_and_volume(u))


def isoperimetric_gap_of(dirichlet: float, volume: float) -> float:
    """The isoperimetric gap from a field's (dirichlet, integral u . u_x ^ u_y)."""
    return dirichlet - ISOPERIMETRIC_CONST * abs(volume) ** (2.0 / 3.0)


def report(u: VectorField, H: float) -> FunctionalReport:
    """All functionals in one pass over the field."""
    dirichlet, vol_int = _dirichlet_and_volume(u)
    volume = (2.0 / 3.0) * H * vol_int
    return FunctionalReport(
        dirichlet=dirichlet,
        volume=volume,
        energy=0.5 * dirichlet + volume,
        nehari=dirichlet + 2.0 * H * vol_int,
        l2_sq=l2_norm_sq(u),
    )
