"""`flow.run` against an independent dense reference flow.

The reference is the same IMEX Euler step, (I - dt L) w = u - 2 dt H (u_x ^ u_y), built from dense
Kronecker matrices and sharing no code with the package: central differences C (x) I and I (x) C, the
5-point Laplacian L = T (x) I + I (x) T, np.linalg.solve and np.cross.  Its functionals are written from
the formulas in `functionals`' docstring: A = h^2 sum |u_x|^2 + |u_y|^2, V = h^2 sum u . u_x ^ u_y,
D_delta = delta A + 2 H V, and the monitored energy E = A_fwd / 2 + (2/3) H V with the forward form
A_fwd = -h^2 sum u . L u.  It replays the run's own accepted dt column, so the two take the same steps,
and every column of the record and the final state are compared relative to their largest magnitude.
"""

import dataclasses

import numpy as np
import pytest

from hflow.fields import random_bandlimited
from hflow.flow import BLOWUP_SUSPECTED, DECAYED_TO_ZERO, REACHED_HORIZON, FlowParams, run
from hflow.grid import make_grid
from hflow.nehari import bubble_direction, fibering_coeffs, lambda_star

N = 15
DELTAS = (0.25, 0.75, 1.25)
# the largest error measured over these cases is 1.6e-13 (H = 6, at the gradient-threshold stop, where the
# gradient has grown 1e4-fold); the decay and heat runs agree to 2e-14
TOL = 1e-12


def _operators(n: int):
    """h, the central differences along x and y and the 5-point Laplacian on the flattened n-by-n nodes."""
    h = 1.0 / (n + 1)
    eye = np.eye(n)
    c = (np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * h)
    t = (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * eye) / (h * h)
    return h, np.kron(c, eye), np.kron(eye, c), np.kron(t, eye) + np.kron(eye, t)


def reference_flow(u0: np.ndarray, H: float, dt0: float, dts, deltas=DELTAS):
    """The record's rows (in trajectory_columns' order) of the datum and of each step of dts, and the last state."""
    h, dx, dy, lap = _operators(u0.shape[1])
    h2 = h * h
    solve_eye = np.eye(lap.shape[0])

    def measure(u):
        ux, uy = u @ dx.T, u @ dy.T
        wedge = np.cross(ux, uy, axis=0)
        a = h2 * (np.sum(ux * ux) + np.sum(uy * uy))
        v = h2 * np.sum(u * wedge)
        a_fwd = -h2 * np.sum(u * (u @ lap.T))
        return wedge, h2 * np.sum(u * u), a, v, 0.5 * a_fwd + (2.0 / 3.0) * H * v

    def row(t, dt, f, residual, l2, a, v, e):
        d = a + 2.0 * H * v
        return [t, dt, l2, a, e, d, *(delta * a + 2.0 * H * v for delta in deltas),
                f, l2, -2.0 * d, f * (-2.0 * d) - 1.5 * l2 * l2, residual]

    u = u0.reshape(3, -1)
    wedge, l2, a, v, e = measure(u)
    t = f = residual = 0.0
    rows = [row(t, dt0, f, residual, l2, a, v, e)]
    for dt in dts:
        w = np.linalg.solve(solve_eye - dt * lap, (u - 2.0 * dt * H * wedge).T).T
        wedge, l2_new, a, v, e_new = measure(w)
        residual += abs(h2 * np.sum((w - u) ** 2) / dt + e_new - e)
        f += 0.5 * dt * (l2 + l2_new)
        t += dt
        u, l2, e = w, l2_new, e_new
        rows.append(row(t, dt, f, residual, l2, a, v, e))
    return np.array(rows), u.reshape(u0.shape)


def _relative_error(got: np.ndarray, want: np.ndarray, axis=None):
    return np.max(np.abs(got - want), axis=axis) / np.max(np.abs(want), axis=axis)


def _bubble(H: float, multiple: float):
    w = bubble_direction(make_grid(N), H, eps=0.25)
    return w.scaled(multiple * lambda_star(fibering_coeffs(w, H)))


# name: (datum, flow parameters, status, stop reason)
CASES = {
    "decay": (
        lambda: _bubble(1.0, 0.5), FlowParams(H=1.0, dt0=2e-3, t_end=1.0, decay_l2_floor=1e-4), DECAYED_TO_ZERO, None
    ),
    "blowup-H6": (
        lambda: _bubble(6.0, 1.3), FlowParams(H=6.0, dt0=1e-2, t_end=1.0), BLOWUP_SUSPECTED, "gradient-threshold"
    ),
    "heat-H0": (
        lambda: random_bandlimited(make_grid(N), 3, 4, 1.0), FlowParams(H=0.0, dt0=1e-3, t_end=0.05),
        REACHED_HORIZON, None,
    ),
}


@pytest.fixture(scope="module")
def replayed():
    """name: (datum, params, the run's record at record_every 1, the reference rows, the reference final state)."""
    out = {}
    for name, (datum, p, _, _) in CASES.items():
        u0 = datum()
        tr = run(u0, p, DELTAS)
        out[name] = (u0, p, tr, *reference_flow(u0.values, p.H, p.dt0, tr.dt[1:]))
    return out


@pytest.mark.parametrize("name", CASES)
def test_run_matches_the_dense_reference(replayed, name):
    _, p, tr, ref, final = replayed[name]
    assert (tr.status, tr.stop_reason) == CASES[name][2:]
    assert ref.shape == tr.table.shape
    err = _relative_error(ref, tr.table, axis=0)
    assert err.max() <= TOL, dict(zip(tr.columns, err))
    assert _relative_error(final, tr.final_state.values) <= TOL


def test_blowup_case_replays_rejected_attempts(replayed):
    # every halving of dt follows a rejected attempt, so the replayed dt column holds the steps that were kept
    _, p, tr, _, _ = replayed["blowup-H6"]
    assert tr.dt[1:].min() < p.dt0


def test_record_every_rows_and_stop_row_match_the_reference(replayed):
    # the run at record_every 5 keeps every fifth step and the stop row of its twin at record_every 1
    u0, p, twin, ref, final = replayed["blowup-H6"]
    every = 5
    tr = run(u0, dataclasses.replace(p, record_every=every), DELTAS)
    last = len(twin) - 1  # accepted steps
    assert last % every != 0  # so the last row is the stop row, not one of the fifth steps
    rows = [*range(0, last + 1, every), last]
    assert (tr.status, tr.stop_reason) == (twin.status, twin.stop_reason)
    assert tr.table.shape == (len(rows), ref.shape[1])
    assert _relative_error(ref[rows], tr.table, axis=0).max() <= TOL
    assert _relative_error(final, tr.final_state.values) <= TOL
