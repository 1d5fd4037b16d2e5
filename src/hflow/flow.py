"""Semi-implicit time integration of u_t = Lap(u) - 2 H u_x ^ u_y, zero boundary.

One step solves (I - dt Lap_h) w = u - 2 dt H (u_x ^ u_y) componentwise: the
stiff Laplacian is implicit (unconditionally stable), the quadratic
nonlinearity explicit with central-difference gradients; the linear system is
solved exactly in the sine basis, by real FFTs of zero-padded rows: all
three components per FFT call up to n = 103, one above, where that is the
faster and keeps the FFT buffers small (`_Workspace`).  The explicit part
forces the 0.1 relative-increment guard: a step whose L^2 increment exceeds
10% of the current norm is rejected and retried with dt halved.  dt never
regrows, so runs are deterministic.

The energy monitored along the run is the scheme-compatible one,

    E_fwd(u) = energy_of(h1_forward_sq(u), V, H),  V = integral u . u_x ^ u_y,

whose quadratic part pairs exactly with the 5-point Laplacian (summation by
parts); it and |u|_2^2 are read off the sine spectrum of the solve that made
the state (`_Workspace.spectral_energies`), and the initial state's spectrum
is the solve's at dt = 0.  With this pairing the per-step defect

    |dt |u_t|_2^2 + E_fwd(t+dt) - E_fwd(t)|

is O(dt^2) per step, so the accumulated residual is O(dt) over a fixed
horizon and halves when dt0 halves.  h1_sq and V come from the grid's one
central pass, `dirichlet_and_volume`, which `report` also reads, so h1_sq and
D = nehari_of(h1_sq, V, H) have the bits of `report`.

Blow-up is reported as evidence (dt collapse below dt_min, or the gradient
exceeding blowup_gradient_factor times its initial size), never as a proven
singularity.  The record is one table: the step loop appends each sample's
row to one buffer, which `run` hands on as `TrajectoryRecord.table`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields

import numpy as np

from . import functionals
from .fields import discrete_laplacian_eigenvalue
from .grid import GridSpec, VectorField, _neighbour_sum, _scratch_for, dirichlet_and_volume

REACHED_HORIZON = "reached-horizon"
BLOWUP_SUSPECTED = "blowup-suspected"
DECAYED_TO_ZERO = "decayed-to-zero"

RELATIVE_INCREMENT_CAP = 0.1
SOLVE_RESIDUAL_BOUND = 1e-10  # relative residual per component that every solve must meet
FFT_CALL_BYTES = 1 << 20  # the most that one transform call's pad and FFT output take (see _Workspace)


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
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {every!r}")
        if self.blowup_gradient_factor <= 0.0 or self.decay_l2_floor <= 0.0:
            raise ValueError("thresholds must be positive")


# the record's columns around its D_delta block, in the order of `run`'s rows and of the CSV
_HEAD = ("t", "dt", "l2_sq", "h1_sq", "E", "D")
_TAIL = ("f", "fprime", "fsecond", "concavity", "energy_residual")


def trajectory_columns(delta_list) -> list[str]:
    names = [*_HEAD, *(f"D_delta_{d:g}" for d in delta_list), *_TAIL]
    if len(set(names)) < len(names):  # two deltas printed alike
        raise ValueError(f"two deltas of {list(delta_list)} share a D_delta column")
    return names


def _column(i):
    return property(lambda self: self.table[:, i])


@dataclass
class TrajectoryRecord:
    """A run's samples as one table, a row per sample in the order of `columns`; the named series are
    column views of it, the D_delta block (samples, len(delta_list)) being the columns between D and f."""

    params: FlowParams
    delta_list: tuple
    table: np.ndarray  # shape (samples, len(columns))
    status: str
    stop_reason: str | None = None
    final_state: VectorField | None = None

    t, dt, l2_sq, h1_sq, E, D = (_column(i) for i in range(len(_HEAD)))
    D_delta = _column(slice(len(_HEAD), -len(_TAIL)))
    f, fprime, fsecond, concavity, energy_residual = (_column(i) for i in range(-len(_TAIL), 0))  # the last cumulative

    @property
    def columns(self) -> list[str]:
        return trajectory_columns(self.delta_list)

    def __len__(self):
        return len(self.table)


class _Workspace:
    """Scratch buffers of the direct solve and the state pass on grid g.

    `run` builds one and reuses it in every step; `solve_helmholtz` called
    without one builds a one-off set.  No result is kept in them past a step:
    a solve allocates its solution and nothing else, its residual check runs
    in the scratch, and `run` hands each state's wedge buffer on to the next
    state.  mid, spec and rhs are this thread's `grid._scratch_for` buffers
    0, 1 and 2; their only other borrower is the grid's central pass
    `dirichlet_and_volume`, which takes mid and spec in the state pass, and
    rhs's first component, spent by then, for the wedge's second products.
    Nothing that takes them may run between an attempt's rhs write and its
    solve.

    The solve's two 2-D sine transforms are unnormalised: each axis pass is
    the real FFT of a zero-padded row [0, a, 0 ... 0] of length 2m + 2, whose
    imaginary part is -sqrt((m + 1)/2) times the orthonormal DST-I of a
    (Cooley, Lewis & Welch, J. Sound Vib. 12, 1970).  Both passes run along
    the last axis of one zero-padded row buffer (pad) into one FFT output
    (out); the x pass reads the y pass's output transposed.  Two passes give
    sqrt(scale) S_x S_y a with scale = (n + 1)^2/4, and that scale is
    folded into the cached denominator and into the spectral energies.

    pad and out hold all three components while they fit in FFT_CALL_BYTES
    (n <= 103), and one otherwise.  Measured per 2-D transform (2-vCPU Xeon
    VM, numpy 2.4), one component per call is 6-15 % faster at n = 127 and
    255, where it also keeps 2.7 grid arrays off the run's peak, and 6-26 %
    slower at n = 63 and 95.  Every row is the same rfft either way, so the
    bits do not depend on the choice.
    """

    __slots__ = ("grid", "mu", "scale", "dt", "den", "pad", "out", "mid", "spec", "energies", "rhs")

    def __init__(self, g: GridSpec):
        n = g.n
        self.grid = g
        # eigenvalues mu_kl of -Lap_h on the sine modes
        k = np.arange(1, n + 1)
        self.mu = discrete_laplacian_eigenvalue(g, k[:, None], k[None, :])
        # the square of the two passes' gain over the orthonormal transform
        self.scale = (n + 1) ** 2 / 4.0
        # the solve's scale (1 + dt mu), for self.dt
        self.dt = None
        self.den = np.empty((n, n))
        # the zero-padded rows of both passes, for one or three components; only the input slots [1 : n + 1]
        # are ever written, so the padding stays zero.  Their real FFTs share out: a pass copies its input in
        # before it overwrites it
        per_component = n * ((2 * n + 2) * 8 + (n + 2) * 16)  # n rows of 2n + 2 doubles and n + 2 complex
        batch = 3 if 3 * per_component <= FFT_CALL_BYTES else 1
        self.pad = np.zeros((batch, n, 2 * n + 2))
        self.out = np.empty((batch, n, n + 2), dtype=complex)
        # a solve's spectrum (spec), then its residual (spec) and scaled neighbour sum (mid); in a state
        # pass u_x and u_y; run's rhs
        self.mid, self.spec, self.rhs = _scratch_for((3, n, n))
        self.energies = None  # (|w|_2^2, h1_forward_sq(w)) of the last solution w

    def _transform(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = sqrt(scale) S_x S_y a over the last two axes, len(pad) components per FFT call; returns out."""
        n, k = self.grid.n, len(self.pad)
        rows, spectrum = self.pad[..., 1 : n + 1], self.out.imag[..., 1 : n + 1].transpose(0, 2, 1)
        for i in range(0, len(a), k):
            rows[...] = a[i : i + k]
            np.fft.rfft(self.pad, out=self.out)
            rows[...] = spectrum
            np.fft.rfft(self.pad, out=self.out)
            out[i : i + k] = spectrum
        return out

    def spectral_energies(self, spec: np.ndarray) -> tuple[float, float]:
        """(|u|_2^2, h1_forward_sq(u)) = h^2 scale (sum s^2, sum mu s^2) of the solve's spectrum s of u,
        the orthonormal one over sqrt(scale) (squared in place; C-contiguous, so it sums in a fixed order)."""
        weight = self.grid.h * self.grid.h * self.scale
        sq = np.square(spec, out=spec)
        l2 = weight * float(sq.sum())
        sq *= self.mu
        return l2, weight * float(sq.sum())

    def residual(self, w: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
        """w - dt Lap_h(w) - b as (1 + 4c) w - c N(w) - b, c = dt/h^2 and N(w) the sum of each node's four
        neighbours, in spec (returned) with mid as scratch; w and b must be neither."""
        c = dt / (self.grid.h * self.grid.h)
        cn = _neighbour_sum(w, self.mid)
        cn *= c
        r = np.multiply(w, 1.0 + 4.0 * c, out=self.spec)
        r -= cn
        r -= b
        return r

    def solve(self, b: np.ndarray, dt: float) -> np.ndarray:
        """Fresh solution w of (I - dt Lap_h) w = b; see `solve_helmholtz`."""
        if dt != self.dt:
            np.multiply(self.mu, dt, out=self.den)
            self.den += 1.0
            self.den *= self.scale
            self.dt = dt
        # a true division: den's entries are not powers of two, so a cached reciprocal would move
        # every trajectory's bits
        np.divide(self._transform(b, self.spec), self.den, out=self.spec)
        w = self._transform(self.spec, np.empty(b.shape))
        self.energies = self.spectral_energies(self.spec)  # before the residual overwrites spec
        r = self.residual(w, b, dt)
        resid = np.sqrt(np.square(r, out=r).sum(axis=(1, 2)))
        bound = SOLVE_RESIDUAL_BOUND * np.sqrt(np.multiply(b, b, out=self.mid).sum(axis=(1, 2)))
        if not (resid <= bound).all():
            raise SolverError(f"solve residual {resid} exceeds the residual bound {bound} per component")
        return w


def solve_helmholtz(rhs: VectorField, dt: float, *, _workspace: _Workspace | None = None) -> VectorField:
    """Direct solve of (I - dt Lap_h) w = rhs per component.

    On the grid the operator is diagonal in the sine basis with eigenvalues
    1 + dt mu_kl, so w is the sine transform of rhs divided by them and
    transformed back (fast direct Poisson solver).  Both transforms are the
    workspace's unnormalised FFT passes, 4 real FFT calls in all (12 where a
    call takes one component); the square of their gain is folded into the
    divisor, so the second transform's output is w with no further scaling.
    The residual (`_Workspace.residual`) is then formed in the workspace's
    scratch from one neighbour sum, and a component whose relative residual
    exceeds the fixed SOLVE_RESIDUAL_BOUND raises SolverError; so does
    non-finite input and, for a rhs of finite norm, any non-finite w.  The
    workspace's scratch is the grid's (`_Workspace`), so nothing that takes
    it may run between `run`'s rhs write and this solve.
    """
    if not 0.0 < dt < math.inf:  # also false for NaN
        raise ValueError(f"need finite dt > 0, got {dt}")
    ws = _Workspace(rhs.grid) if _workspace is None else _workspace
    return VectorField(rhs.grid, ws.solve(rhs.values, dt))


class _State:
    """Per-accepted-state quantities of u in the buffers of ws: h1, vol and the wedge from the grid's central
    pass (u_x, u_y in ws.mid, ws.spec), the wedge into `wedge` (the retiring state's, handed on) or a fresh
    array; l2 and h1_fwd from `energies`, the solve's `ws.energies` of u, or else from the solve's spectrum
    of u at dt = 0, `ws._transform(u, ws.spec) / ws.scale` in place."""

    __slots__ = ("u", "wedge", "l2", "h1", "h1_fwd", "vol", "E_fwd", "D")

    def __init__(
        self, u: VectorField, H: float, ws: _Workspace, energies: tuple[float, float] | None = None, wedge=None
    ):
        if energies is None:
            energies = ws.spectral_energies(np.divide(ws._transform(u.values, ws.spec), ws.scale, out=ws.spec))
        self.u = u
        self.wedge = np.empty(u.values.shape) if wedge is None else wedge
        self.l2, self.h1_fwd = energies
        self.h1, self.vol = dirichlet_and_volume(u, self.wedge)
        self.E_fwd = functionals.energy_of(self.h1_fwd, self.vol, H)
        self.D = functionals.nehari_of(self.h1, self.vol, H)


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
    ncols = len(trajectory_columns(delta_list))
    H = p.H
    g = u0.grid
    h2 = g.h ** 2
    ws = _Workspace(g)
    state = _State(u0, H, ws)
    del u0  # the first state owns the datum, which goes when that state retires
    l2_initial = state.l2
    h1_initial = state.h1
    grad_cap = p.blowup_gradient_factor * max(1.0, h1_initial)

    t = 0.0
    dt = p.dt0
    f = 0.0
    cum_residual = 0.0
    rows = array("d")  # the samples' rows back to back, each in the order of trajectory_columns

    def record(dt_used: float, s: _State):
        rows.extend(
            (t, dt_used, s.l2, s.h1, s.E_fwd, s.D, *(functionals.nehari_of(s.h1, s.vol, H, d) for d in delta_list))
            + (f, s.l2, -2.0 * s.D, f * (-2.0 * s.D) - 1.5 * s.l2 * s.l2, cum_residual)
        )

    record(p.dt0, state)
    last_recorded_t = t
    status = stop_reason = None
    steps = 0

    # an overflowing candidate is rejected below and a non-finite recorded series fails the caller's
    # check, so numpy's overflow warnings would only repeat those on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        while status is None:  # one attempt per pass
            if p.t_end - t <= 1e-12 * max(p.t_end, 1.0):
                status = REACHED_HORIZON
                continue
            dt_step = min(dt, p.t_end - t)
            # rhs = u - 2 dt H (u_x ^ u_y), in the kept buffer
            b = np.multiply(state.wedge, 2.0 * dt_step * H, out=ws.rhs)
            rhs = VectorField(g, np.subtract(state.u.values, b, out=b))
            # a failed solve stays NaN, which rejects; a returned candidate passed the residual check, and one
            # that is non-finite all the same (its rhs's norm overflowed) has a NaN or infinite increment
            rel = math.nan
            try:
                cand = solve_helmholtz(rhs, dt_step, _workspace=ws)
            except SolverError:
                if np.isfinite(rhs.values).all():
                    raise  # a residual miss on finite input is a numeric fault, not blow-up
            else:
                inc = np.subtract(cand.values, state.u.values, out=ws.mid)
                inc_sq = float(np.square(inc, out=inc).sum())
                diff, base = math.sqrt(h2 * inc_sq), math.sqrt(state.l2)
                rel = 0.0 if diff == 0.0 else (math.inf if base == 0.0 else diff / base)
            if not rel <= RELATIVE_INCREMENT_CAP:
                cand = None  # the next attempt's solve allocates only its own candidate
                dt *= 0.5
                if dt < p.dt_min:
                    status, stop_reason = BLOWUP_SUSPECTED, "dt-collapse"
                continue

            new_state = _State(cand, H, ws, ws.energies, state.wedge)  # state's wedge was spent on rhs
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

    table = np.frombuffer(rows).reshape(-1, ncols)  # the rows' own buffer, not a copy
    return TrajectoryRecord(p, delta_list, table, status, stop_reason, state.u)
