"""Semi-implicit time integration of u_t = Lap(u) - 2 H u_x ^ u_y, zero boundary.

One step solves (I - dt Lap_h) w = u - 2 dt H (u_x ^ u_y) componentwise: the
stiff Laplacian is implicit (unconditionally stable), the quadratic
nonlinearity explicit with central-difference gradients; the linear system is
solved exactly in the sine basis.  The explicit part forces the 0.1
relative-increment guard: a step whose L^2 increment exceeds 10% of the
current norm is rejected and retried with dt halved.  dt never regrows, so
runs are deterministic.

The energy monitored along the run is the scheme-compatible one,

    E_fwd(u) = h1_forward_sq(u)/2 + volume_VH(u),

whose quadratic part pairs exactly with the 5-point Laplacian (summation by
parts).  With this pairing the per-step defect

    |dt |u_t|_2^2 + E_fwd(t+dt) - E_fwd(t)|

is O(dt^2) per step, so the accumulated residual is O(dt) over a fixed
horizon and halves when dt0 halves.  The h1_sq and D series use the
central-difference Dirichlet form, matching the functionals module.

Blow-up is reported as evidence (dt collapse below dt_min, or the gradient
exceeding blowup_gradient_factor times its initial size), never as a proven
singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import functionals
from .fields import discrete_laplacian_eigenvalue
from .grid import VectorField, laplacian_stencil

REACHED_HORIZON = "reached-horizon"
BLOWUP_SUSPECTED = "blowup-suspected"
DECAYED_TO_ZERO = "decayed-to-zero"

RELATIVE_INCREMENT_CAP = 0.1


class SolverError(RuntimeError):
    """The linear solve left a residual above the requested bound."""


@dataclass
class FlowParams:
    H: float
    dt0: float
    t_end: float
    dt_min: float = 1e-10
    cg_tol: float = 1e-10
    record_every: int = 1
    blowup_gradient_factor: float = 1e4
    decay_l2_floor: float = 1e-16

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.H < 0.0:
            raise ValueError(f"need H >= 0, got {self.H}")
        if not (0.0 < self.dt_min < self.dt0):
            raise ValueError(f"need 0 < dt_min < dt0, got dt_min={self.dt_min}, dt0={self.dt0}")
        if not (0.0 < self.cg_tol <= 1e-6):
            raise ValueError(f"cg_tol must lie in (0, 1e-6], got {self.cg_tol}")
        if self.t_end <= 0.0:
            raise ValueError(f"need t_end > 0, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.blowup_gradient_factor <= 0.0 or self.decay_l2_floor <= 0.0:
            raise ValueError("thresholds must be positive")


@dataclass
class TrajectoryRecord:
    params: FlowParams
    delta_list: tuple
    t: np.ndarray
    dt: np.ndarray
    l2_sq: np.ndarray
    h1_sq: np.ndarray
    E: np.ndarray
    D: np.ndarray
    D_delta: np.ndarray  # shape (samples, len(delta_list))
    f: np.ndarray
    fprime: np.ndarray
    fsecond: np.ndarray
    concavity: np.ndarray
    energy_residual: np.ndarray  # cumulative
    status: str
    stop_reason: str | None = None
    final_state: VectorField | None = None

    def __len__(self):
        return len(self.t)


def _sine_transform(a: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I over the last two axes; the transform is its own inverse.

    Each axis goes through the real FFT of its odd extension
    [0, a, 0, -reversed(a)], whose imaginary part holds the sine sums.
    """
    for axis in (-1, -2):
        a = np.moveaxis(a, axis, -1)
        n = a.shape[-1]
        zero = np.zeros(a.shape[:-1] + (1,))
        odd = np.concatenate([zero, a, zero, -a[..., ::-1]], axis=-1)
        a = np.moveaxis(np.fft.rfft(odd).imag[..., 1 : n + 1] / -math.sqrt(2.0 * (n + 1)), -1, axis)
    return a


def solve_helmholtz(rhs: VectorField, dt: float, cg_tol: float) -> VectorField:
    """Direct solve of (I - dt Lap_h) w = rhs per component.

    On the unit-square grid (h = 1/(n+1)) the operator is diagonal in the
    sine basis with eigenvalues 1 + dt mu_kl, so w is the sine transform of
    rhs divided by them and transformed back (fast direct Poisson solver).
    One stencil apply then checks the relative residual of each component
    against cg_tol and raises SolverError above it, which also catches
    non-finite input.
    """
    if dt <= 0.0:
        raise ValueError(f"need dt > 0, got {dt}")
    g = rhs.grid
    b = rhs.values
    kx = np.arange(1, g.nx + 1)[:, None]
    ky = np.arange(1, g.ny + 1)[None, :]
    mu = discrete_laplacian_eigenvalue(g, kx, ky)
    w = _sine_transform(_sine_transform(b) / (1.0 + dt * mu))
    resid = np.sqrt(np.sum((w - dt * laplacian_stencil(w, g.h) - b) ** 2, axis=(1, 2)))
    bound = cg_tol * np.sqrt(np.sum(b * b, axis=(1, 2)))
    if not np.all(resid <= bound):
        raise SolverError(f"solve residual {resid} exceeds cg_tol * |rhs| = {bound} per component")
    return VectorField(g, w)


class _State:
    """Per-accepted-state quantities, computed in one pass over the field."""

    __slots__ = ("u", "wedge", "l2", "h1", "h1_fwd", "vol", "E_fwd", "D")

    def __init__(self, u: VectorField, H: float):
        h = u.grid.h
        v = u.values
        p = np.pad(v, ((0, 0), (1, 1), (1, 1)))
        ux = (p[:, 2:, 1:-1] - p[:, :-2, 1:-1]) / (2.0 * h)
        uy = (p[:, 1:-1, 2:] - p[:, 1:-1, :-2]) / (2.0 * h)
        w = np.stack(
            [
                ux[1] * uy[2] - ux[2] * uy[1],
                ux[2] * uy[0] - ux[0] * uy[2],
                ux[0] * uy[1] - ux[1] * uy[0],
            ]
        )
        dxf = (p[:, 1:, 1:-1] - p[:, :-1, 1:-1]) / h
        dyf = (p[:, 1:-1, 1:] - p[:, 1:-1, :-1]) / h
        h2 = h * h
        self.u = u
        self.wedge = w
        self.l2 = h2 * float(np.sum(v * v))
        self.h1 = h2 * float(np.sum(ux * ux) + np.sum(uy * uy))
        self.h1_fwd = h2 * float(np.sum(dxf * dxf) + np.sum(dyf * dyf))
        self.vol = h2 * float(np.sum(v * w))
        self.E_fwd = 0.5 * self.h1_fwd + (2.0 / 3.0) * H * self.vol
        self.D = self.h1 + 2.0 * H * self.vol


def run(u0: VectorField, p: FlowParams, delta_list=()) -> TrajectoryRecord:
    """Integrate from u0, recording every record_every-th accepted step.

    Terminates with reached-horizon at t_end, decayed-to-zero when |u|_2^2
    falls below the floor, or blowup-suspected on dt collapse / gradient
    explosion.  f is the trapezoid accumulation of |u|_2^2; fprime and
    fsecond are recorded from the same field as |u|_2^2 and -2 D.
    """
    delta_list = tuple(float(d) for d in delta_list)
    for d in delta_list:
        functionals._check_delta(d)
    H = p.H
    h2 = u0.grid.h ** 2
    state = _State(u0, H)
    l2_initial = state.l2
    h1_initial = state.h1
    grad_cap = p.blowup_gradient_factor * max(1.0, h1_initial)

    t = 0.0
    dt = p.dt0
    f = 0.0
    cum_residual = 0.0
    rows = []

    def record(dt_used: float, s: _State):
        rows.append(
            (
                t,
                dt_used,
                s.l2,
                s.h1,
                s.E_fwd,
                s.D,
                tuple(d * s.h1 + 2.0 * H * s.vol for d in delta_list),
                f,
                s.l2,
                -2.0 * s.D,
                f * (-2.0 * s.D) - 1.5 * s.l2 * s.l2,
                cum_residual,
            )
        )

    record(p.dt0, state)
    last_recorded_t = t
    status = None
    stop_reason = None
    steps = 0
    dt_step = p.dt0

    while True:
        if p.t_end - t <= 1e-12 * max(p.t_end, 1.0):
            status = REACHED_HORIZON
            break
        dt_step = min(dt, p.t_end - t)
        w = None
        while True:
            rhs = VectorField(u0.grid, state.u.values - 2.0 * dt_step * H * state.wedge)
            try:
                cand = solve_helmholtz(rhs, dt_step, p.cg_tol)
                ok = bool(np.all(np.isfinite(cand.values)))
            except SolverError:
                ok = False
            if ok:
                diff = math.sqrt(h2 * float(np.sum((cand.values - state.u.values) ** 2)))
                base = math.sqrt(state.l2)
                rel = 0.0 if diff == 0.0 else (math.inf if base == 0.0 else diff / base)
                if rel <= RELATIVE_INCREMENT_CAP:
                    w = cand
                    break
            dt *= 0.5
            if dt < p.dt_min:
                status = BLOWUP_SUSPECTED
                stop_reason = "dt-collapse"
                break
            dt_step = min(dt, p.t_end - t)
        if status is not None:
            break

        new_state = _State(w, H)
        ut_sq = h2 * float(np.sum((w.values - state.u.values) ** 2)) / (dt_step * dt_step)
        cum_residual += abs(dt_step * ut_sq + new_state.E_fwd - state.E_fwd)
        f += 0.5 * dt_step * (state.l2 + new_state.l2)
        t += dt_step
        state = new_state
        steps += 1

        if l2_initial > 0.0 and state.l2 < p.decay_l2_floor:
            status = DECAYED_TO_ZERO
            break
        if state.h1 > grad_cap:
            status = BLOWUP_SUSPECTED
            stop_reason = "gradient-threshold"
            break
        if steps % p.record_every == 0:
            record(dt_step, state)
            last_recorded_t = t

    if t != last_recorded_t or not rows:
        record(dt_step, state)

    cols = list(zip(*rows))
    return TrajectoryRecord(
        params=p,
        delta_list=delta_list,
        t=np.array(cols[0]),
        dt=np.array(cols[1]),
        l2_sq=np.array(cols[2]),
        h1_sq=np.array(cols[3]),
        E=np.array(cols[4]),
        D=np.array(cols[5]),
        D_delta=np.array([list(r) for r in cols[6]]).reshape(len(rows), len(delta_list)),
        f=np.array(cols[7]),
        fprime=np.array(cols[8]),
        fsecond=np.array(cols[9]),
        concavity=np.array(cols[10]),
        energy_residual=np.array(cols[11]),
        status=status,
        stop_reason=stop_reason,
        final_state=state.u,
    )


def energy_identity_residuals(tr: TrajectoryRecord) -> np.ndarray:
    """Per-recorded-interval dissipation defect (differences of the cumulative series)."""
    if len(tr) < 2:
        raise ValueError("need at least 2 samples")
    return np.diff(tr.energy_residual)
