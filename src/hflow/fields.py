"""Initial-condition families: eigenmodes, band-limited random fields, cutoffs."""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, VectorField, h1_seminorm_sq, interior_coords


def eigenmode(g: GridSpec, kx: int = 1, ky: int = 1, component: int = 0, amplitude: float = 1.0) -> VectorField:
    """c * sin(kx pi x) sin(ky pi y) along one R^3 component.

    These are exact eigenvectors of the 5-point Laplacian with zero boundary.
    """
    if component not in (0, 1, 2):
        raise ValueError(f"component must be 0, 1 or 2, got {component}")
    if not (1 <= kx <= g.n and 1 <= ky <= g.n):  # beyond n a mode is round-off or a lower mode negated
        raise ValueError(f"eigenmode kx and ky must be 1 to n = {g.n}, got kx = {kx}, ky = {ky}")
    X, Y = interior_coords(g)
    vals = np.zeros((3, g.n, g.n))
    vals[component] = amplitude * np.sin(kx * math.pi * X) * np.sin(ky * math.pi * Y)
    return VectorField(g, vals)


def discrete_laplacian_eigenvalue(g: GridSpec, kx=1, ky=1):
    """Eigenvalue mu of -Laplacian_h on the (kx, ky) sine mode; kx, ky may be broadcast arrays.

    The mode is `eigenmode`, sin(kx pi x) sin(ky pi y) on the nodes.
    """
    h = g.h
    s = np.sin(kx * math.pi * h / 2.0) ** 2 + np.sin(ky * math.pi * h / 2.0) ** 2
    return 4.0 / (h * h) * s


def cutoff_weight(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """C^2 polynomial cutoff (16 x(1-x) y(1-y))^2, max 1, zero with its gradient on the boundary.

    X and Y are any coordinates that broadcast together: meshgrid arrays, or a column and a row.
    """
    return (16.0 * X * (1.0 - X) * Y * (1.0 - Y)) ** 2


def random_bandlimited(g: GridSpec, seed: int, kmax: int = 6, h1_norm: float | None = None) -> VectorField:
    """Seeded random sine series, coefficients damped by 1/(k^2 + l^2).

    Deterministic for a fixed (seed, kmax, grid).  When `h1_norm` is given
    the field is rescaled so that sqrt(dirichlet) equals it, which must be > 0.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if h1_norm is not None and not h1_norm > 0.0:
        raise ValueError(f"h1_norm must be > 0, got {h1_norm}")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((3, kmax, kmax))
    k = np.arange(1, kmax + 1)
    coeffs /= k[:, None] ** 2 + k[None, :] ** 2
    sx = np.sin(math.pi * np.outer(g.nodes(), k))  # (n, kmax)
    sy = np.ascontiguousarray(sx.T)  # (kmax, n)
    # y-sines, then x-sines: einsum without `optimize` never calls BLAS, whose thread count moves bits
    vals = np.einsum("ik,ckj->cij", sx, np.einsum("ckl,lj->ckj", coeffs, sy))
    u = VectorField(g, vals)
    if h1_norm is not None:
        cur = math.sqrt(h1_seminorm_sq(u))
        if cur == 0.0:
            raise ValueError("cannot normalize a zero field")
        u = u.scaled(h1_norm / cur)
    return u
