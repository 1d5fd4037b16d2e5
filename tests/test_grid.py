import json

import numpy as np
import pytest

from hflow.fields import discrete_laplacian_eigenvalue, eigenmode, random_bandlimited
from hflow.grid import (
    GridSpec,
    VectorField,
    _divide,
    derivs,
    h1_forward_sq,
    h1_seminorm_sq,
    l2_norm_sq,
    laplacian_stencil,
    lattice_gradient,
    lattice_integrate,
    lattice_wedge,
    make_grid,
    sample,
    sample_on_lattice,
)
from conftest import poly_xyxy


def test_make_grid_spacing():
    assert make_grid(3).h == 0.25
    assert make_grid(63).h == 1.0 / 64.0
    g = make_grid(63)
    assert g.h * (g.n + 1) == 1.0
    assert np.array_equal(g.nodes(), g.h * np.arange(1, 64))


@pytest.mark.parametrize("n", [0, 1, 2, -5, 15.0, "15"])
@pytest.mark.parametrize("build", [make_grid, GridSpec], ids=["make_grid", "GridSpec"])
def test_make_grid_rejects_small(build, n):
    # no grid below n = 3 can be built, by either name
    with pytest.raises(ValueError, match="need integer n >= 3"):
        build(n)


def test_grid_size_is_a_python_int():
    # the artifacts write n to JSON, which takes no numpy integer
    g = make_grid(np.int64(63))
    assert type(g.n) is int and g == make_grid(63)
    assert json.dumps({"n": g.n}) == '{"n": 63}'


def test_sample_zero_and_values(g63):
    z = sample(lambda X, Y: np.zeros((3,) + X.shape), g63)
    assert not z.values.any()
    u = sample(poly_xyxy, g63)
    # node (32, 32) is (0.5, 0.5); arrays are 0-based
    assert np.allclose(u.values[:, 31, 31], [0.5, 0.5, 0.25])
    m = sample(lambda X, Y: np.stack([np.sin(np.pi * X) * np.sin(np.pi * Y), 0 * X, 0 * X]), g63)
    assert m.values[0, 31, 31] == pytest.approx(1.0)


def test_sample_rejects_nonfinite(g31):
    with pytest.raises(ValueError, match="non-finite"):
        sample(lambda X, Y: np.stack([np.full_like(X, np.inf), Y, X]), g31)


def test_gradient_zero_and_polynomial(g63):
    z = VectorField.zeros(g63)
    zx, zy = derivs(z.values, g63.h)[:2]
    assert not zx.any() and not zy.any()
    # central differences are exact for (x, y, xy) away from the clipped boundary
    u = sample(poly_xyxy, g63)
    ux, uy = derivs(u.values, g63.h)[:2]
    X, Y = np.meshgrid(g63.h * np.arange(1, 64), g63.h * np.arange(1, 64), indexing="ij")
    inner = (slice(2, -2), slice(2, -2))
    assert np.allclose(ux[0][inner], 1.0, atol=1e-12)
    assert np.allclose(ux[1][inner], 0.0, atol=1e-12)
    assert np.allclose(ux[2][inner], Y[inner], atol=1e-12)
    assert np.allclose(uy[2][inner], X[inner], atol=1e-12)


def test_gradient_constant_in_x_slice(g31):
    u = sample(lambda X, Y: np.stack([np.sin(np.pi * Y), 0 * X, 0 * X]), g31)
    ux = derivs(u.values, g31.h)[0]
    assert np.allclose(ux[0][2:-2, :], 0.0, atol=1e-13)


def _gradient_max_error(n):
    g = make_grid(n)
    u = sample(
        lambda X, Y: np.stack(
            [
                np.sin(np.pi * X) * np.sin(np.pi * Y),
                np.sin(2 * np.pi * X) * np.sin(np.pi * Y),
                np.sin(np.pi * X) * np.sin(2 * np.pi * Y),
            ]
        ),
        g,
    )
    ux, uy = derivs(u.values, g.h)[:2]
    X, Y = np.meshgrid(g.h * np.arange(1, n + 1), g.h * np.arange(1, n + 1), indexing="ij")
    exact_x = np.stack(
        [
            np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y),
            2 * np.pi * np.cos(2 * np.pi * X) * np.sin(np.pi * Y),
            np.pi * np.cos(np.pi * X) * np.sin(2 * np.pi * Y),
        ]
    )
    exact_y = np.stack(
        [
            np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y),
            np.pi * np.sin(2 * np.pi * X) * np.cos(np.pi * Y),
            2 * np.pi * np.sin(np.pi * X) * np.cos(2 * np.pi * Y),
        ]
    )
    return max(np.abs(ux - exact_x).max(), np.abs(uy - exact_y).max())


def test_gradient_second_order_convergence():
    e1, e2 = _gradient_max_error(31), _gradient_max_error(63)
    assert 3.2 <= e1 / e2 <= 4.8


def test_laplacian_eigenmode_identity(g63):
    u = eigenmode(g63, kx=2, ky=3, component=1, amplitude=0.7)
    mu = discrete_laplacian_eigenvalue(g63, 2, 3)
    lap = laplacian_stencil(u.values, g63.h)
    assert np.allclose(lap, -mu * u.values, rtol=1e-12, atol=1e-12)
    # the highest mode is still one; beyond n a mode is round-off (n + 1) or a lower mode negated
    top, mu = eigenmode(g63, kx=63, ky=63), discrete_laplacian_eigenvalue(g63, 63, 63)
    assert np.allclose(laplacian_stencil(top.values, g63.h), -mu * top.values, rtol=1e-12, atol=1e-12 * mu)
    for kx, ky in ((0, 1), (1, 0), (64, 1), (1, 65), (-1, 2)):
        with pytest.raises(ValueError, match="must be 1 to n = 63"):
            eigenmode(g63, kx=kx, ky=ky)


@pytest.mark.parametrize("g", [make_grid(9), make_grid(20)], ids=str)
def test_laplacian_sine_mode_identity_where_the_stencil_divides(g):
    # at n + 1 = 10 and 21, h^2 is no power of two; the sine modes are sin(k pi i / (n + 1)) sin(l pi j / (n + 1))
    i = np.arange(1, g.n + 1)[:, None]
    j = i.T
    for kx, ky in ((1, 1), (3, 2)):
        mode = np.sin(kx * np.pi * i / (g.n + 1)) * np.sin(ky * np.pi * j / (g.n + 1))
        u = VectorField(g, np.stack([mode, 0.0 * mode, -mode]))
        mu = discrete_laplacian_eigenvalue(g, kx, ky)
        assert np.allclose(laplacian_stencil(u.values, g.h), -mu * u.values, rtol=1e-12, atol=1e-12 * mu)


def test_laplacian_continuum_limit_second_order():
    # discrete eigenvalue of the first mode approaches 2 pi^2 at O(h^2)
    e1 = abs(discrete_laplacian_eigenvalue(make_grid(31)) - 2.0 * np.pi**2)
    e2 = abs(discrete_laplacian_eigenvalue(make_grid(63)) - 2.0 * np.pi**2)
    assert 3.2 <= e1 / e2 <= 4.8


def test_wedge_unit_vectors_and_antisymmetry(g31):
    e1 = sample(lambda X, Y: np.stack([np.ones_like(X), 0 * X, 0 * X]), g31)
    e2 = sample(lambda X, Y: np.stack([0 * X, np.ones_like(X), 0 * X]), g31)
    w = lattice_wedge(e1.values, e2.values)
    assert np.allclose(w[2], 1.0) and not w[:2].any()
    a = random_bandlimited(g31, seed=5).values
    b = random_bandlimited(g31, seed=6).values
    assert np.allclose(lattice_wedge(a, b), -lattice_wedge(b, a), atol=0)
    assert np.allclose(lattice_wedge(a, a), 0.0, atol=1e-14)


def test_wedge_of_polynomial_gradients(g63):
    # for u = (x, y, xy): u_x ^ u_y = (-y, -x, 1)
    u = sample(poly_xyxy, g63)
    w = lattice_wedge(*derivs(u.values, g63.h)[:2])
    X, Y = np.meshgrid(g63.h * np.arange(1, 64), g63.h * np.arange(1, 64), indexing="ij")
    inner = (slice(2, -2), slice(2, -2))
    assert np.allclose(w[0][inner], -Y[inner], atol=1e-12)
    assert np.allclose(w[1][inner], -X[inner], atol=1e-12)
    assert np.allclose(w[2][inner], 1.0, atol=1e-12)


def test_integrate_constant_and_zero(g63):
    assert g63.h**2 * np.sum(np.ones((63, 63))) == pytest.approx(1.0, rel=0.05)
    assert g63.h**2 * np.sum(np.zeros((63, 63))) == 0.0


def _integrate_sine_error(n):
    g = make_grid(n)
    X, Y = np.meshgrid(g.h * np.arange(1, n + 1), g.h * np.arange(1, n + 1), indexing="ij")
    return abs(g.h**2 * np.sum(np.sin(np.pi * X) * np.sin(np.pi * Y)) - 4.0 / np.pi**2)


def test_integrate_sine_product_second_order():
    e1, e2 = _integrate_sine_error(63), _integrate_sine_error(127)
    assert e1 / (4.0 / np.pi**2) < 1e-3
    assert 3.2 <= e1 / e2 <= 4.8


def test_norms_zero_field(g31):
    z = VectorField.zeros(g31)
    assert l2_norm_sq(z) == 0.0
    assert h1_seminorm_sq(z) == 0.0


def test_l2_of_eigenmode_exact(g63):
    c = 1.7
    u = eigenmode(g63, amplitude=c)
    assert l2_norm_sq(u) == pytest.approx(c * c / 4.0, rel=1e-13)


def test_h1_of_polynomial_via_lattice_oracle(g63, g127):
    # the boundary-true lattice path converges to 8/3 at second order
    def a_err(g):
        vals = sample_on_lattice(poly_xyxy, g)
        gx, gy = lattice_gradient(vals, g.h)
        a = lattice_integrate((gx * gx).sum(0) + (gy * gy).sum(0), g.h)
        return abs(a - 8.0 / 3.0)

    e63, e127 = a_err(g63), a_err(g127)
    assert e63 / (8.0 / 3.0) < 1e-3
    assert 3.2 <= e63 / e127 <= 4.8


def test_lattice_volume_integral_of_polynomial(g63):
    vals = sample_on_lattice(poly_xyxy, g63)
    gx, gy = lattice_gradient(vals, g63.h)
    b = lattice_integrate((vals * lattice_wedge(gx, gy)).sum(0), g63.h)
    assert b == pytest.approx(-0.25, abs=1e-12)


def test_integration_by_parts_pairing(g31):
    # quadratic-form compatibility: (Lap u, u) = -h1_forward_sq(u), exactly
    for seed in (0, 1, 2):
        u = random_bandlimited(g31, seed=seed)
        lhs = g31.h**2 * np.sum(laplacian_stencil(u.values, g31.h) * u.values)
        assert lhs == pytest.approx(-h1_forward_sq(u), rel=1e-12)


@pytest.mark.parametrize("n", [15, 31, 63])
def test_integration_by_parts_pairing_random_fields(n):
    # h^2 sum Lap(u).u == -h1_forward_sq(u) for rough fields, not only smooth ones
    rng = np.random.default_rng(n)
    g = make_grid(n)
    for _ in range(4):
        u = VectorField(g, rng.uniform(0.1, 10.0) * rng.standard_normal((3, n, n)))
        lhs = g.h ** 2 * float(np.sum(laplacian_stencil(u.values, g.h) * u.values))
        assert lhs == pytest.approx(-h1_forward_sq(u), rel=1e-12)


def test_operator_linearity(g31):
    a = random_bandlimited(g31, seed=10)
    b = random_bandlimited(g31, seed=11)
    combo = VectorField(g31, 2.0 * a.values - 3.0 * b.values)
    h = g31.h
    lx, ax, bx = (derivs(f.values, h)[0] for f in (combo, a, b))
    assert np.allclose(lx, 2.0 * ax - 3.0 * bx, atol=1e-13)
    assert np.allclose(
        laplacian_stencil(combo.values, h),
        2.0 * laplacian_stencil(a.values, h) - 3.0 * laplacian_stencil(b.values, h),
        atol=1e-9,
    )
    assert h**2 * np.sum(a.values[0] + 4.0 * b.values[1]) == pytest.approx(
        h**2 * np.sum(a.values[0]) + 4.0 * h**2 * np.sum(b.values[1]),
        rel=1e-12, abs=1e-15,
    )


def test_norm_convergence_for_vanishing_smooth_field():
    # h1 of a field vanishing on the boundary together with its gradient
    def h1_err(n):
        g = make_grid(n)
        u = sample(
            lambda X, Y: np.stack(
                [np.sin(np.pi * X) ** 2 * np.sin(np.pi * Y) ** 2, 0 * X, 0 * X]
            ),
            g,
        )
        # integral of |grad sin^2(pi x) sin^2(pi y)|^2 = 2 * pi^2 * (1/2) * (3/8)
        return abs(h1_seminorm_sq(u) - 3.0 * np.pi**2 / 8.0)

    e1, e2 = h1_err(63), h1_err(127)
    assert 3.2 <= e1 / e2 <= 4.8


@pytest.mark.parametrize(
    "g", [make_grid(9), make_grid(15), make_grid(63), make_grid(127), make_grid(255)], ids=str
)
def test_random_bandlimited_matches_three_operand_synthesis(g):
    for seed, kmax in ((1, 1), (7, 6), (123, 11)):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((3, kmax, kmax))
        k = np.arange(1, kmax + 1)
        coeffs /= k[:, None] ** 2 + k[None, :] ** 2
        s = np.sin(np.pi * np.outer(k, g.h * np.arange(1, g.n + 1)))
        ref = np.einsum("ckl,ki,lj->cij", coeffs, s, s)
        got = random_bandlimited(g, seed, kmax).values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("h1_norm", [-4.0, 0.0, np.nan])
def test_random_bandlimited_rejects_a_norm_not_above_zero(h1_norm):
    # a negative norm was taken as its absolute value: -4.0 gave a field with sqrt(dirichlet) = 4.0
    with pytest.raises(ValueError, match="h1_norm must be > 0"):
        random_bandlimited(make_grid(15), 0, 16, h1_norm)


@pytest.mark.parametrize("c", [2.0**-6, 2.0**-12, 2.0 / 21, (1.0 / 21) ** 2, 1.0 / 3, 2.0**-1074])
def test_divide_keeps_the_quotient_bits(c):
    # a power of two multiplies by its exact reciprocal and anything else divides, with the quotient's
    # bits either way; 2^-1074, whose reciprocal overflows, must divide
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, np.inf, -np.inf, np.nan]
    a = np.concatenate([edges, np.random.default_rng(7).standard_normal(200)])
    a_bits = a.tobytes()
    with np.errstate(over="ignore"):  # 1e300 / 2^-1074
        want = (a / c).tobytes()
        inplace = a.copy()
        out = np.empty_like(a)
        assert _divide(inplace, c) is inplace
        assert _divide(a, c, out=out) is out
    assert inplace.tobytes() == want
    assert out.tobytes() == want
    assert a.tobytes() == a_bits
