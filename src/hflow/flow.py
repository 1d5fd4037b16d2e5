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
parts); it and |u|_2^2 are h^2 sum mu w_hat^2 and h^2 sum w_hat^2 of the
solve's spectrum w_hat (an isometry).  With this pairing the per-step defect

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
from .grid import GridSpec, VectorField, _dirichlet_sum, derivs, laplacian_stencil

REACHED_HORIZON = "reached-horizon"
BLOWUP_SUSPECTED = "blowup-suspected"
DECAYED_TO_ZERO = "decayed-to-zero"

RELATIVE_INCREMENT_CAP = 0.1
SOLVE_RESIDUAL_BOUND = 1e-10  # relative residual per component that every solve must meet


class SolverError(RuntimeError):
    """The linear solve left a residual above SOLVE_RESIDUAL_BOUND."""


@dataclass
class FlowParams:
    H: float
    dt0: float
    t_end: float
    dt_min: float = 1e-10
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


class _Workspace:
    """Scratch buffers of the direct solve and the state pass on grid g.

    `run` builds one and reuses it in every step; `solve_helmholtz` called
    without one builds a one-off set.  No result is kept in them past a step:
    each solution, and the wedge of each state, is allocated fresh.
    """

    __slots__ = ("grid", "mu", "dt", "den", "passes", "mid", "spec", "energies", "rhs")

    def __init__(self, g: GridSpec):
        nx, ny = g.nx, g.ny
        self.grid = g
        # eigenvalues mu_kl of -Lap_h on the sine modes
        self.mu = discrete_laplacian_eigenvalue(g, np.arange(1, nx + 1)[:, None], np.arange(1, ny + 1)[None, :])
        # the solve's 1 + dt mu, for self.dt
        self.dt = None
        self.den = np.empty((nx, ny))
        # (odd extension, its real FFT) of a transform pass over k rows of length m: one pair per length
        by_len = {
            m: (np.zeros((3, k, 2 * m + 2)), np.empty((3, k, m + 2), dtype=complex))
            for k, m in ((nx, ny), (ny, nx))
        }
        self.passes = (by_len[ny], by_len[nx])
        # between-pass array and spectrum; after a solve they hold its residual, in a state pass u_x, u_y
        self.mid = np.empty((3, nx, ny))
        self.spec = np.empty((3, nx, ny))
        self.energies = None  # (|w|_2^2, h1_forward_sq(w)) of the last solution w
        self.rhs = np.empty((3, nx, ny))

    def sine_transform(self, a: np.ndarray, out: np.ndarray) -> None:
        """Orthonormal DST-I of a over the last two axes into the C-contiguous out (overwrites self.mid).

        The transform is its own inverse.  Writing into C-contiguous arrays
        makes reductions over them sum in a fixed order.
        """
        self._dst_last_axis(a, self.mid, *self.passes[0])
        self._dst_last_axis(self.mid.swapaxes(-1, -2), out.swapaxes(-1, -2), *self.passes[1])

    @staticmethod
    def _dst_last_axis(a, out, odd, spectrum):
        """Orthonormal DST-I along the last axis, through the real FFT of the odd extension.

        The imaginary part of the FFT of [0, a, 0, -reversed(a)] holds the sine
        sums; the two zeros of `odd` are never written.
        """
        n = a.shape[-1]
        odd[..., 1 : n + 1] = a
        np.negative(a[..., ::-1], out=odd[..., n + 2 :])
        np.fft.rfft(odd, out=spectrum)
        np.divide(spectrum.imag[..., 1 : n + 1], -math.sqrt(2.0 * (n + 1)), out=out)

    def spectral_energies(self, spec: np.ndarray) -> tuple[float, float]:
        """(|u|_2^2, h1_forward_sq(u)) = h^2 (sum s^2, sum mu s^2) of u with sine spectrum s (squared in place)."""
        h2 = self.grid.h * self.grid.h
        sq = np.square(spec, out=spec)
        l2 = h2 * float(np.sum(sq))
        sq *= self.mu
        return l2, h2 * float(np.sum(sq))

    def solve(self, b: np.ndarray, dt: float) -> np.ndarray:
        """Fresh solution w of (I - dt Lap_h) w = b; see `solve_helmholtz`."""
        if dt != self.dt:
            np.multiply(self.mu, dt, out=self.den)
            self.den += 1.0
            self.dt = dt
        self.sine_transform(b, self.spec)
        self.spec /= self.den
        w = np.empty(b.shape)
        self.sine_transform(self.spec, w)
        self.energies = self.spectral_energies(self.spec)  # before the residual check overwrites spec
        r = laplacian_stencil(w, self.grid.h)
        r *= dt
        r = np.subtract(w, r, out=self.mid)
        r -= b
        resid = np.sqrt(np.sum(np.square(r, out=r), axis=(1, 2)))
        bound = SOLVE_RESIDUAL_BOUND * np.sqrt(np.sum(np.multiply(b, b, out=self.spec), axis=(1, 2)))
        if not np.all(resid <= bound):
            raise SolverError(f"solve residual {resid} exceeds the residual bound {bound} per component")
        return w


def solve_helmholtz(rhs: VectorField, dt: float, *, _workspace: _Workspace | None = None) -> VectorField:
    """Direct solve of (I - dt Lap_h) w = rhs per component.

    On the grid the operator is diagonal in the sine basis with eigenvalues
    1 + dt mu_kl, so w is the sine transform of rhs divided by them and
    transformed back (fast direct Poisson solver).  One stencil apply then
    checks the relative residual of each component against the fixed
    SOLVE_RESIDUAL_BOUND and raises SolverError above it, which also catches
    non-finite input.  `run` passes its own scratch buffers as `_workspace`;
    without them the solve uses a one-off set.
    """
    if dt <= 0.0:
        raise ValueError(f"need dt > 0, got {dt}")
    ws = _Workspace(rhs.grid) if _workspace is None else _workspace
    return VectorField(rhs.grid, ws.solve(rhs.values, dt))


class _State:
    """Per-accepted-state quantities, computed in one pass over the field in the buffers of ws.

    `energies` are the solve's `ws.energies` of u; without them (the initial
    state) one forward sine transform of u gives them.
    """

    __slots__ = ("u", "wedge", "l2", "h1", "h1_fwd", "vol", "E_fwd", "D")

    def __init__(self, u: VectorField, H: float, ws: _Workspace, energies: tuple[float, float] | None = None):
        h = u.grid.h
        v = u.values
        if energies is None:
            ws.sine_transform(v, ws.spec)
            energies = ws.spectral_energies(ws.spec)
        ux, uy, w = derivs(v, h, out=(ws.mid, ws.spec, np.empty(v.shape)))
        self.u = u
        self.wedge = w
        self.l2, self.h1_fwd = energies
        # a plain product: an out= buffer would reorder this sum for a v that is not C-ordered
        self.vol = h * h * float(np.sum(v * w))
        self.h1 = _dirichlet_sum(ux, uy, h)
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
    ws = _Workspace(u0.grid)
    state = _State(u0, H, ws)
    l2_initial = state.l2
    h1_initial = state.h1
    grad_cap = p.blowup_gradient_factor * max(1.0, h1_initial)

    t = 0.0
    dt = p.dt0
    f = 0.0
    cum_residual = 0.0
    rows = []  # one flat row per sample, in the CSV's column order

    def record(dt_used: float, s: _State):
        rows.append(
            (t, dt_used, s.l2, s.h1, s.E_fwd, s.D, *(d * s.h1 + 2.0 * H * s.vol for d in delta_list))
            + (f, s.l2, -2.0 * s.D, f * (-2.0 * s.D) - 1.5 * s.l2 * s.l2, cum_residual)
        )

    record(p.dt0, state)
    last_recorded_t = t
    status = stop_reason = None
    steps = 0

    while status is None:  # one attempt per pass
        if p.t_end - t <= 1e-12 * max(p.t_end, 1.0):
            status = REACHED_HORIZON
            continue
        dt_step = min(dt, p.t_end - t)
        # rhs = u - 2 dt H (u_x ^ u_y), in the kept buffer
        b = np.multiply(state.wedge, 2.0 * dt_step * H, out=ws.rhs)
        rhs = VectorField(u0.grid, np.subtract(state.u.values, b, out=b))
        rel = math.nan  # a failed solve or a non-finite candidate stays NaN, which rejects
        try:
            cand = solve_helmholtz(rhs, dt_step, _workspace=ws)
        except SolverError:
            if np.all(np.isfinite(rhs.values)):
                raise  # a residual miss on finite input is a numeric fault, not blow-up
        else:
            if np.all(np.isfinite(cand.values)):
                inc = np.subtract(cand.values, state.u.values, out=ws.mid)
                inc_sq = float(np.sum(np.square(inc, out=inc)))
                diff, base = math.sqrt(h2 * inc_sq), math.sqrt(state.l2)
                rel = 0.0 if diff == 0.0 else (math.inf if base == 0.0 else diff / base)
        if not rel <= RELATIVE_INCREMENT_CAP:
            dt *= 0.5
            if dt < p.dt_min:
                status, stop_reason = BLOWUP_SUSPECTED, "dt-collapse"
            continue

        new_state = _State(cand, H, ws, ws.energies)
        ut_sq = h2 * inc_sq / (dt_step * dt_step)
        cum_residual += abs(dt_step * ut_sq + new_state.E_fwd - state.E_fwd)
        f += 0.5 * dt_step * (state.l2 + new_state.l2)
        t += dt_step
        state = new_state
        steps += 1
        if l2_initial > 0.0 and state.l2 < p.decay_l2_floor:
            status = DECAYED_TO_ZERO
        elif state.h1 > grad_cap:
            status, stop_reason = BLOWUP_SUSPECTED, "gradient-threshold"
        elif steps % p.record_every == 0:
            record(dt_step, state)
            last_recorded_t = t

    if t != last_recorded_t:  # the stop row; t moved only if a step was accepted, which set dt_step
        record(dt_step, state)

    cols = np.array(rows).T.copy()  # one contiguous series per column
    k = len(delta_list)
    return TrajectoryRecord(
        params=p,
        delta_list=delta_list,
        **dict(zip(("t", "dt", "l2_sq", "h1_sq", "E", "D"), cols[:6])),
        D_delta=cols[6 : 6 + k].T,
        **dict(zip(("f", "fprime", "fsecond", "concavity", "energy_residual"), cols[6 + k :])),
        status=status,
        stop_reason=stop_reason,
        final_state=state.u,
    )


def energy_identity_residuals(tr: TrajectoryRecord) -> np.ndarray:
    """Per-recorded-interval dissipation defect (differences of the cumulative series)."""
    if len(tr) < 2:
        raise ValueError("need at least 2 samples")
    return np.diff(tr.energy_residual)
