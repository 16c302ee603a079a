"""Benchmark source system and time steppers.

The plant is a continuous-time ``StateSpaceModel`` ẋ = Ax + Bu,
y = Cx + Du. The benchmark instance discretizes 1-D transport at speed
``a`` on a unit interval with first-order upwind differences: values flow
left to right, the input feeds the left boundary and the output reads the
right one.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .identify import StateSpaceModel
from .linalg import _as_real_matrix, _positive_finite
from .snapshot import TrajectoryData

__all__ = [
    "build_transport_plant",
    "simulate_continuous",
    "simulate_discrete",
    "relative_output_error",
]


def build_transport_plant(speed: float, dx: float) -> StateSpaceModel:
    """Upwind semi-discretization of transport on [0, 1].

    N = round(1/dx) cells. The state operator is lower bidiagonal, with
    -speed/dx on the diagonal and +speed/dx below it, and is stored as a
    sparse CSC array of its 2N - 1 entries. The boundary inflow enters the
    first cell scaled by speed/dx, and the output reads the last cell. A
    NaN, infinite or non-positive speed raises ValueError.
    """
    _positive_finite(speed, "transport speed")
    if not 0 < dx <= 1:
        raise ValueError("dx must lie in (0, 1]")
    n = int(round(1.0 / dx))
    rate = speed / dx
    a = sparse.diags_array([-rate, rate], offsets=[0, -1], shape=(n, n), format="csc")
    b = np.zeros((n, 1))
    b[0, 0] = rate
    c = np.zeros((1, n))
    c[0, -1] = 1.0
    return StateSpaceModel(a, b, c, time_domain="continuous")


def _checked_run(model: StateSpaceModel, domain: str, u, x0):
    """Input samples of shape (inputs, samples) and the initial state.

    ``u`` is M x samples with at least one sample; ``x0=None`` starts at
    rest.
    """
    if model.time_domain != domain:
        raise ValueError(f"simulate_{domain} requires a {domain}-time model")
    r = model.order
    u_arr = _as_real_matrix(u, "u", model.n_inputs)
    if u_arr.shape[1] < 1:
        raise ValueError("need at least one input sample (use zeros for autonomous runs)")
    start = np.zeros(r) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if start.size != r:
        raise ValueError(f"x0 must have {r} entries, got {start.size}")
    return u_arr, start


def simulate_continuous(
    model: StateSpaceModel, u, x0, dt: float, input_timing: str = "end"
) -> TrajectoryData:
    """Implicit-Euler integration of a continuous-time model on a uniform grid.

    The K samples of ``u`` fix the grid: K - 1 steps of width ``dt``. Steps
    x_{k+1} = (I - dt A)^{-1} (x_k + dt B u_*) and reads y_k = C x_k + D u_k.
    ``input_timing`` picks u_*: "end" uses u_{k+1} (stage-time sampling of a
    continuous signal), "start" uses u_k (zero-order hold); both are
    first-order accurate. The sparse LU of (I - dt A) is computed once and
    reused for every step; a sparse A, such as the transport plant's, is
    factored as stored, and a dense one is converted first.
    """
    _positive_finite(dt, "dt")
    if input_timing not in ("end", "start"):
        raise ValueError(f"unknown input_timing {input_timing!r}")
    u_arr, start = _checked_run(model, "continuous", u, x0)
    steps = u_arr.shape[1] - 1
    n = model.order
    lu = splu(sparse.identity(n, format="csc") - dt * sparse.csc_matrix(model.a))

    x = np.empty((n, steps + 1))
    x[:, 0] = start
    shift = 1 if input_timing == "end" else 0
    for k in range(steps):
        rhs = x[:, k] + dt * (model.b @ u_arr[:, k + shift])
        x[:, k + 1] = lu.solve(rhs)
    y = model.c @ x + model.d @ u_arr
    return TrajectoryData(states=x, inputs=u_arr, outputs=y, step_width=dt)


def simulate_discrete(model: StateSpaceModel, u, x0=None) -> TrajectoryData:
    """Iterate a discrete-time state-space model over given input samples.

    x_{k+1} = A x_k + B u_k and y_k = C x_k + D u_k; the trajectory has
    as many samples as the input signal.
    """
    u_arr, start = _checked_run(model, "discrete", u, x0)
    x = np.empty((model.order, u_arr.shape[1]))
    x[:, 0] = start
    for k, drive in enumerate((model.b @ u_arr)[:, :-1].T):
        x[:, k + 1] = model.a @ x[:, k] + drive
    y = model.c @ x + model.d @ u_arr
    return TrajectoryData(states=x, inputs=u_arr, outputs=y, step_width=model.step_width)


def relative_output_error(y_ref, y_test) -> float:
    """Frobenius norm of the output mismatch over the reference norm."""
    ref = _as_real_matrix(y_ref, "y_ref")
    test = _as_real_matrix(y_test, "y_test")
    if ref.shape != test.shape:
        raise ValueError(f"output shapes differ: {ref.shape} vs {test.shape}")
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("reference output has zero norm")
    return float(np.linalg.norm(ref - test) / ref_norm)
