"""Uniform-grid discretization of the unit square for R^3-valued fields.

Fields live on the interior nodes x_i = i*h, y_j = j*h (i, j = 1..n,
h = 1/(n+1)) with a homogeneous Dirichlet boundary: every operator treats
nodes outside the interior as zero.  This enforces membership in H_0^1 by
construction; analytic expressions that do not vanish on the boundary are
clipped (documented behaviour of `sample`).

Two evaluation paths are provided:

* the interior path (`derivs`, `laplacian`, `integrate`, ...) used by the
  functionals and the time integrator, second-order accurate for smooth
  fields whose relevant integrands vanish on the boundary; every central
  difference of this path goes through the one kernel `derivs` (its
  first half `_differences` where no wedge is needed);
* a boundary-inclusive lattice path (`sample_on_lattice`,
  `lattice_gradient`, `lattice_integrate`) that keeps the true boundary
  values and integrates with trapezoid weights.  It is the oracle used to
  verify operators and quadrature against closed-form integrals of
  expressions that do not vanish on the boundary.

`h1_forward_sq` is the one-sided (forward-difference) Dirichlet form on the
zero-padded lattice.  It satisfies the exact summation-by-parts identity
integrate(dot(laplacian(u), u)) == -h1_forward_sq(u), which is the
compatibility pairing used by the energy-identity monitor in `flow`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Interior node counts and spacing of a uniform square grid."""

    nx: int
    ny: int
    h: float


@dataclass
class VectorField:
    """R^3-valued field on the interior nodes; boundary implicitly zero."""

    grid: GridSpec
    values: np.ndarray  # shape (3, nx, ny)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (3, self.grid.nx, self.grid.ny)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != {expected}")

    def scaled(self, c: float) -> "VectorField":
        return VectorField(self.grid, c * self.values)

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.values.copy())

    @staticmethod
    def zeros(g: GridSpec) -> "VectorField":
        return VectorField(g, np.zeros((3, g.nx, g.ny)))


@dataclass
class ScalarField:
    """Scalar lattice on the interior nodes (holds pointwise integrands)."""

    grid: GridSpec
    values: np.ndarray  # shape (nx, ny)


def make_grid(n: int) -> GridSpec:
    """Uniform n-by-n interior grid on (0,1)^2 with spacing h = 1/(n+1)."""
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"invalid grid: need integer n >= 3, got {n!r}")
    return GridSpec(nx=int(n), ny=int(n), h=1.0 / (n + 1))


def interior_coords(g: GridSpec):
    x = g.h * np.arange(1, g.nx + 1)
    y = g.h * np.arange(1, g.ny + 1)
    return np.meshgrid(x, y, indexing="ij")


def lattice_coords(g: GridSpec):
    """Full lattice including the boundary ring (shape (nx+2, ny+2))."""
    x = g.h * np.arange(0, g.nx + 2)
    y = g.h * np.arange(0, g.ny + 2)
    return np.meshgrid(x, y, indexing="ij")


def _evaluate_expr(expr, X, Y) -> np.ndarray:
    if callable(expr):
        vals = np.asarray(expr(X, Y), dtype=float)
        if vals.shape != (3,) + X.shape:
            raise ValueError(f"expression returned shape {vals.shape}, expected {(3,) + X.shape}")
        return vals
    if len(expr) == 3:
        return np.stack([np.broadcast_to(np.asarray(f(X, Y), dtype=float), X.shape) for f in expr])
    raise ValueError("expression must be a callable or a triple of component callables")


def sample(expr, g: GridSpec) -> VectorField:
    """Sample an analytic field on the interior nodes.

    `expr` is either a callable (X, Y) -> (3, nx, ny) or a triple of scalar
    component callables.  Boundary values of the expression are discarded
    (the field is zero on the boundary regardless), which clips non-H_0^1
    expressions.
    """
    X, Y = interior_coords(g)
    vals = _evaluate_expr(expr, X, Y)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampling produced non-finite values")
    return VectorField(g, vals)


def sample_on_lattice(expr, g: GridSpec) -> np.ndarray:
    """Sample on the full lattice, keeping true boundary values (oracle path)."""
    X, Y = lattice_coords(g)
    vals = _evaluate_expr(expr, X, Y)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampling produced non-finite values")
    return vals


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


_scratch = threading.local()  # per thread: three buffers for the last shape asked for


def _scratch_for(shape: tuple) -> tuple:
    """This thread's three kept buffers of the given shape, for passes whose results are floats only."""
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].shape != shape:
        bufs = _scratch.bufs = tuple(np.empty(shape) for _ in range(3))
    return bufs


def _differences(values: np.ndarray, h: float, ux: np.ndarray, uy: np.ndarray) -> None:
    """Central differences u_x, u_y of a raw (3, nx, ny) array, zero boundary, into C-contiguous ux, uy."""
    ny = values.shape[2]
    flat = values.reshape(-1)
    # differences along the flattened array; a node next to the boundary picks up a
    # neighbour from another row, column or component and is rewritten against the
    # zero ring: v - 0.0 is v itself, and 0.0 - v (not -v) keeps the +0.0 of a zero node
    np.subtract(flat[2 * ny :], flat[: -2 * ny], out=ux.reshape(-1)[ny:-ny])
    np.subtract(flat[2:], flat[:-2], out=uy.reshape(-1)[1:-1])
    for v, d in ((values, ux), (values.swapaxes(1, 2), uy.swapaxes(1, 2))):
        if v.shape[1] > 1:
            d[:, 0] = v[:, 1]
            np.subtract(0.0, v[:, -2], out=d[:, -1])
        else:
            d[:, 0] = 0.0
    ux /= 2.0 * h
    uy /= 2.0 * h


def derivs(values: np.ndarray, h: float, out=None):
    """Central-difference (u_x, u_y, u_x ^ u_y) of a raw (3, nx, ny) array, zero boundary.

    The one derivative kernel of the interior path.  `out` is an optional triple
    of C-contiguous (3, nx, ny) arrays to write into; without it they are fresh.
    """
    ux, uy, w = (np.empty(values.shape) for _ in range(3)) if out is None else out
    _differences(values, h, ux, uy)
    tmp = np.empty(values.shape[1:])
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(ux[i], uy[j], out=w[k])
        w[k] -= np.multiply(ux[j], uy[i], out=tmp)
    return ux, uy, w


def _dirichlet_sum(ux: np.ndarray, uy: np.ndarray, h: float) -> float:
    """h^2 (sum u_x^2 + sum u_y^2) of spent difference arrays, which it squares in place."""
    return h ** 2 * float(np.sum(np.square(ux, out=ux)) + np.sum(np.square(uy, out=uy)))


def gradient(u: VectorField):
    """Central-difference gradient, zero boundary: returns (u_x, u_y)."""
    ux, uy = np.empty(u.values.shape), np.empty(u.values.shape)
    _differences(u.values, u.grid.h, ux, uy)
    return VectorField(u.grid, ux), VectorField(u.grid, uy)


def laplacian_stencil(values: np.ndarray, h: float) -> np.ndarray:
    """5-point Laplacian with zero boundary on a raw (3, nx, ny) array, with the bits of the zero-padded sum."""
    out = np.empty(values.shape)
    if values.shape[1] > 1:
        np.add(values[:, 2:], values[:, :-2], out=out[:, 1:-1])
        np.add(values[:, 1], 0.0, out=out[:, 0])
        np.add(0.0, values[:, -2], out=out[:, -1])
    else:
        out[:] = 0.0
    # neighbours in the order x+1, x-1, y+1, y-1, a boundary one adding 0.0; along the flattened
    # array the last (first) column picks up a node of another row and is put back to sum + 0.0
    flat, o = np.ascontiguousarray(values).reshape(-1), out.reshape(-1)
    last = np.add(out[:, :, -1], 0.0)
    o[:-1] += flat[1:]
    out[:, :, -1] = last
    first = np.add(out[:, :, 0], 0.0)
    o[1:] += flat[:-1]
    out[:, :, 0] = first
    out -= 4.0 * values
    out /= h * h
    return out


def laplacian(u: VectorField) -> VectorField:
    return VectorField(u.grid, laplacian_stencil(u.values, u.grid.h))


def wedge(a: VectorField, b: VectorField) -> VectorField:
    """Pointwise R^3 cross product."""
    _check_same_grid(a, b)
    return VectorField(a.grid, lattice_wedge(a.values, b.values))


def dot(u: VectorField, v: VectorField) -> ScalarField:
    _check_same_grid(u, v)
    return ScalarField(u.grid, np.sum(u.values * v.values, axis=0))


def integrate(s: ScalarField) -> float:
    """Interior midpoint sum: h^2 * sum of interior values."""
    return s.grid.h ** 2 * float(np.sum(s.values))


def l2_norm_sq(u: VectorField) -> float:
    return u.grid.h ** 2 * float(np.sum(u.values * u.values))


def h1_seminorm_sq(u: VectorField) -> float:
    """Central-difference Dirichlet integral; this is the norm ||u||^2."""
    ux, uy, _ = _scratch_for(u.values.shape)
    _differences(u.values, u.grid.h, ux, uy)
    return _dirichlet_sum(ux, uy, u.grid.h)


def h1_forward_sq(u: VectorField) -> float:
    """Forward-difference Dirichlet form on the zero-padded lattice.

    Pairs exactly with the 5-point Laplacian:
    integrate(dot(laplacian(u), u)) == -h1_forward_sq(u).
    """
    h, v = u.grid.h, np.ascontiguousarray(u.values)  # C-ordered differences sum in a fixed order
    dx = np.diff(v, axis=1, prepend=0.0, append=0.0) / h
    dy = np.diff(v, axis=2, prepend=0.0, append=0.0) / h
    return h * h * float(np.sum(dx * dx) + np.sum(dy * dy))


def lattice_gradient(values: np.ndarray, h: float):
    """Gradient on the full lattice: central inside, one-sided 2nd order at the rim."""
    gx = np.empty_like(values)
    gy = np.empty_like(values)
    gx[:, 1:-1, :] = (values[:, 2:, :] - values[:, :-2, :]) / (2.0 * h)
    gx[:, 0, :] = (-3.0 * values[:, 0, :] + 4.0 * values[:, 1, :] - values[:, 2, :]) / (2.0 * h)
    gx[:, -1, :] = (3.0 * values[:, -1, :] - 4.0 * values[:, -2, :] + values[:, -3, :]) / (2.0 * h)
    gy[:, :, 1:-1] = (values[:, :, 2:] - values[:, :, :-2]) / (2.0 * h)
    gy[:, :, 0] = (-3.0 * values[:, :, 0] + 4.0 * values[:, :, 1] - values[:, :, 2]) / (2.0 * h)
    gy[:, :, -1] = (3.0 * values[:, :, -1] - 4.0 * values[:, :, -2] + values[:, :, -3]) / (2.0 * h)
    return gx, gy


def lattice_integrate(values: np.ndarray, h: float) -> float:
    """Trapezoid rule over the full lattice (weights 1, 1/2 edge, 1/4 corner)."""
    w = np.ones(values.shape[-2:])
    w[0, :] *= 0.5
    w[-1, :] *= 0.5
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5
    return h * h * float(np.sum(w * values))


def lattice_wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )
