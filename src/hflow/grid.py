"""Uniform-grid discretization of the unit square for R^3-valued fields.

Fields live on the interior nodes x_i = i*h, y_j = j*h (i, j = 1..n,
h = 1/(n+1)) with a homogeneous Dirichlet boundary: every operator treats
nodes outside the interior as zero.  This enforces membership in H_0^1 by
construction; analytic expressions that do not vanish on the boundary are
clipped (documented behaviour of `sample`).

Two evaluation paths are provided:

* the interior path (`derivs`, `dirichlet_and_volume`, `laplacian_stencil`,
  `h1_seminorm_sq`, `l2_norm_sq`) used by the functionals and the time
  integrator, with midpoint quadrature h^2 * sum; second-order accurate for
  smooth fields whose relevant integrands vanish on the boundary.  Every
  central difference of this path goes through the one kernel `derivs`, and
  every central Dirichlet form and volume integral through the one pass
  `dirichlet_and_volume` over it (`h1_seminorm_sq` is its first element);
  the stencil's neighbour sum goes through `_neighbour_sum`, which the
  flow's solve also calls for its residual;
* a boundary-inclusive lattice path (`sample_on_lattice`,
  `lattice_gradient`, `lattice_integrate`, `lattice_wedge`) that keeps the
  true boundary values: numpy's own `gradient` (second order at the rim),
  `trapezoid` and `cross`, sharing no code with the interior kernels.  It
  is the oracle used to verify operators and quadrature against closed-form
  integrals of expressions that do not vanish on the boundary.

`h1_forward_sq` is the one-sided (forward-difference) Dirichlet form on the
zero-padded lattice.  It satisfies the exact summation-by-parts identity
h^2 * sum(laplacian_stencil(v, h) * v) == -h1_forward_sq(u) for u with
values v, which is the compatibility pairing used by the energy-identity
monitor in `flow`.

Dividing a grid array by 2h or h^2 goes through `_divide`: it multiplies by
the exact reciprocal when the divisor is a power of two, as on every grid
with n + 1 a power of two, and divides otherwise, with the quotient's bits
either way.

`_scratch_for(shape)` owns the thread's full-grid scratch.  It has two
borrowers, `dirichlet_and_volume` and the flow's `_Workspace`, and nothing
that takes it may run between the flow's rhs write and its solve.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """The unit square's n-by-n interior grid: spacing h = 1/(n+1), nodes i*h (i = 1..n) on each axis."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise ValueError(f"invalid grid: need integer n >= 3, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))  # a Python int, as the JSON artifacts write it

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    def nodes(self) -> np.ndarray:
        """The node coordinates i*h, i = 1..n, of either axis."""
        return self.h * np.arange(1, self.n + 1)


@dataclass
class VectorField:
    """R^3-valued field on the interior nodes; boundary implicitly zero."""

    grid: GridSpec
    values: np.ndarray  # shape (3, n, n)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (3, self.grid.n, self.grid.n)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != {expected}")

    def scaled(self, c: float) -> "VectorField":
        return VectorField(self.grid, c * self.values)

    @staticmethod
    def zeros(g: GridSpec) -> "VectorField":
        return VectorField(g, np.zeros((3, g.n, g.n)))


make_grid = GridSpec  # make_grid(n): the constructor by the name its callers use


def interior_coords(g: GridSpec):
    x = g.nodes()
    return np.meshgrid(x, x, indexing="ij")


def _evaluate_expr(expr, X, Y) -> np.ndarray:
    """The finite (3, *X.shape) values of the callable expr at the nodes (X, Y)."""
    vals = np.asarray(expr(X, Y), dtype=float)
    if vals.shape != (3,) + X.shape:
        raise ValueError(f"expression returned shape {vals.shape}, expected {(3,) + X.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("sampling produced non-finite values")
    return vals


def sample(expr, g: GridSpec) -> VectorField:
    """Sample an analytic field on the interior nodes.

    `expr` is a callable (X, Y) -> (3, n, n).  Boundary values of the
    expression are discarded (the field is zero on the boundary regardless),
    which clips non-H_0^1 expressions.
    """
    return VectorField(g, _evaluate_expr(expr, *interior_coords(g)))


def sample_on_lattice(expr, g: GridSpec) -> np.ndarray:
    """Sample on the full (n+2)-by-(n+2) lattice, keeping true boundary values (oracle path)."""
    x = g.h * np.arange(0, g.n + 2)
    return _evaluate_expr(expr, *np.meshgrid(x, x, indexing="ij"))


_scratch = threading.local()  # per thread: three buffers for the last shape asked for


def _scratch_for(shape: tuple) -> tuple:
    """This thread's three kept buffers of the given shape, borrowed as the module docstring says."""
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].shape != shape:
        bufs = _scratch.bufs = tuple(np.empty(shape) for _ in range(3))
    return bufs


def _divide(a: np.ndarray, c: float) -> np.ndarray:
    """a / c in place, with the quotient's bits.

    A power of two c with a finite reciprocal multiplies by that reciprocal, which is exact, so the
    product rounds to the quotient's bits, subnormal, signed-zero, infinite and NaN entries included.
    Any other c divides."""
    if math.frexp(c)[0] == 0.5 and math.isfinite(1.0 / c):
        return np.multiply(a, 1.0 / c, out=a)
    return np.divide(a, c, out=a)


def derivs(values: np.ndarray, h: float, out=None):
    """Central-difference (u_x, u_y, u_x ^ u_y) of a raw (3, p, q) array (p, q >= 2), zero boundary.

    The one derivative kernel of the interior path.  `out` is an optional triple
    of C-contiguous (3, p, q) arrays to write into; without it they are fresh.
    """
    ux, uy, w = (np.empty(values.shape) for _ in range(3)) if out is None else out
    q = values.shape[2]
    flat = values.reshape(-1)
    # differences along the flattened array; a node next to the boundary picks up a
    # neighbour from another row, column or component and is rewritten against the
    # zero ring: v - 0.0 is v itself, and 0.0 - v (not -v) keeps the +0.0 of a zero node
    np.subtract(flat[2 * q :], flat[: -2 * q], out=ux.reshape(-1)[q:-q])
    np.subtract(flat[2:], flat[:-2], out=uy.reshape(-1)[1:-1])
    for v, d in ((values, ux), (values.swapaxes(1, 2), uy.swapaxes(1, 2))):
        d[:, 0] = v[:, 1]
        np.subtract(0.0, v[:, -2], out=d[:, -1])
    _divide(ux, 2.0 * h)
    _divide(uy, 2.0 * h)
    tmp = np.empty(values.shape[1:])
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(ux[i], uy[j], out=w[k])
        w[k] -= np.multiply(ux[j], uy[i], out=tmp)
    return ux, uy, w


def dirichlet_and_volume(u: VectorField, wedge: np.ndarray | None = None) -> tuple[float, float]:
    """(integral |grad u|^2, integral u . u_x ^ u_y) of u from one `derivs` pass: the central pass.

    u_x and u_y go into this thread's kept scratch (buffers 0 and 1), and the wedge into `wedge`, a
    C-contiguous (3, n, n) array left holding it, or else into buffer 2.
    """
    h, bufs = u.grid.h, _scratch_for(u.values.shape)
    ux, uy, w = derivs(u.values, h, out=bufs if wedge is None else (*bufs[:2], wedge))
    dirichlet = h**2 * float(np.square(ux, out=ux).sum() + np.square(uy, out=uy).sum())
    dots = np.multiply(u.values, w, out=ux).sum(axis=0, out=uy[0])  # summed over components first
    return dirichlet, h**2 * float(dots.sum())


def _neighbour_sum(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each node's four neighbours summed, zero boundary, of a raw (3, p, q) array (p, q >= 2) into the
    C-contiguous out, which values must not be; the bits of the zero-padded sum."""
    np.add(values[:, 2:], values[:, :-2], out=out[:, 1:-1])
    np.add(values[:, 1], 0.0, out=out[:, 0])
    np.add(0.0, values[:, -2], out=out[:, -1])
    # neighbours in the order x+1, x-1, y+1, y-1, a boundary one adding 0.0; along the flattened
    # array the last (first) column picks up a node of another row and is put back to sum + 0.0
    flat, o = np.ascontiguousarray(values).reshape(-1), out.reshape(-1)
    last = np.add(out[:, :, -1], 0.0)
    o[:-1] += flat[1:]
    out[:, :, -1] = last
    first = np.add(out[:, :, 0], 0.0)
    o[1:] += flat[:-1]
    out[:, :, 0] = first
    return out


def laplacian_stencil(values: np.ndarray, h: float) -> np.ndarray:
    """5-point Laplacian with zero boundary on a raw (3, p, q) array (p, q >= 2), with the bits of the zero-padded sum.
    A reference (the flow's solve forms its residual from `_neighbour_sum`): the result and its 4v term are fresh."""
    out = _neighbour_sum(values, np.empty(values.shape))
    out -= 4.0 * values
    return _divide(out, h * h)


def l2_norm_sq(u: VectorField) -> float:
    return u.grid.h ** 2 * float((u.values * u.values).sum())


def h1_seminorm_sq(u: VectorField) -> float:
    """Central-difference Dirichlet integral; this is the norm ||u||^2."""
    return dirichlet_and_volume(u)[0]


def h1_forward_sq(u: VectorField) -> float:
    """Forward-difference Dirichlet form on the zero-padded lattice.

    Pairs exactly with the 5-point Laplacian:
    h^2 * sum(laplacian_stencil(u.values, h) * u.values) == -h1_forward_sq(u).
    """
    h, v = u.grid.h, np.ascontiguousarray(u.values)  # C-ordered differences sum in a fixed order
    dx = np.diff(v, axis=1, prepend=0.0, append=0.0) / h
    dy = np.diff(v, axis=2, prepend=0.0, append=0.0) / h
    return h * h * float((dx * dx).sum() + (dy * dy).sum())


def lattice_gradient(values: np.ndarray, h: float):
    """Gradient on the full lattice: central inside, one-sided 2nd order at the rim."""
    return np.gradient(values, h, axis=(1, 2), edge_order=2)


def lattice_integrate(values: np.ndarray, h: float) -> float:
    """Trapezoid rule over the full lattice (weights 1, 1/2 edge, 1/4 corner)."""
    return float(np.trapezoid(np.trapezoid(values, dx=h, axis=-1), dx=h, axis=-1))


def lattice_wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.cross(a, b, axis=0)
