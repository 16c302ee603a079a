"""Benchmark source system and time steppers.

The plant is a continuous-time ``StateSpaceModel`` ẋ = Ax + Bu,
y = Cx + Du. The benchmark instance discretizes 1-D transport at speed
``a`` on a unit interval with first-order upwind differences: values flow
left to right, the input feeds the left boundary and the output reads the
right one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .identify import StateSpaceModel
from .snapshot import TrajectoryData

__all__ = [
    "SimConfig",
    "build_transport_plant",
    "simulate_continuous",
    "simulate_discrete",
    "relative_output_error",
]


@dataclass
class SimConfig:
    """Time grid and stepping options.

    ``input_timing`` picks which input sample enters the implicit update
    for step k -> k+1: "end" uses u_{k+1} (stage-time sampling of a
    continuous signal), "start" uses u_k (zero-order hold). Both are
    first-order accurate.
    """

    dt: float
    horizon: float
    input_timing: str = "end"

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.input_timing not in ("end", "start"):
            raise ValueError(f"unknown input_timing {self.input_timing!r}")
        ratio = self.horizon / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 1:
            raise ValueError("horizon must be a positive integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def build_transport_plant(speed: float, dx: float) -> StateSpaceModel:
    """Upwind semi-discretization of transport on [0, 1].

    N = round(1/dx) cells; the state operator is lower bidiagonal with
    -speed/dx on the diagonal and +speed/dx below it, the boundary inflow
    enters the first cell scaled by speed/dx, and the output reads the
    last cell.
    """
    if speed <= 0:
        raise ValueError("transport speed must be positive")
    if not 0 < dx <= 1:
        raise ValueError("dx must lie in (0, 1]")
    n = int(round(1.0 / dx))
    rate = speed / dx
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = -rate
    a[np.arange(1, n), np.arange(n - 1)] = rate
    b = np.zeros((n, 1))
    b[0, 0] = rate
    c = np.zeros((1, n))
    c[0, -1] = 1.0
    return StateSpaceModel(a, b, c, time_domain="continuous")


def _checked_run(model: StateSpaceModel, domain: str, u, x0, n_samples=None):
    """Input samples of shape (inputs, samples) and the initial state.

    ``u=None`` means zero input over ``n_samples`` samples; without a
    sample count the input must be given. ``x0=None`` starts at rest.
    """
    if model.time_domain != domain:
        raise ValueError(f"simulate_{domain} requires a {domain}-time model")
    if u is None and n_samples is None:
        raise ValueError("input samples are required (use zeros for autonomous runs)")
    m, r = model.n_inputs, model.order
    u_arr = np.zeros((m, n_samples)) if u is None else np.asarray(u, dtype=float)
    if u_arr.ndim == 1:
        u_arr = u_arr.reshape(m, -1)
    if u_arr.ndim != 2 or u_arr.shape[0] != m:
        raise ValueError(f"input samples must have {m} rows, got shape {u_arr.shape}")
    if n_samples is not None and u_arr.shape[1] != n_samples:
        raise ValueError(f"need {n_samples} input samples, got {u_arr.shape[1]}")
    if u_arr.shape[1] < 1:
        raise ValueError("need at least one input sample")
    start = np.zeros(r) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if start.size != r:
        raise ValueError(f"x0 must have {r} entries, got {start.size}")
    return u_arr, start


def simulate_continuous(model: StateSpaceModel, u, x0, cfg: SimConfig) -> TrajectoryData:
    """Implicit-Euler integration of a continuous-time model on a uniform grid.

    Steps x_{k+1} = (I - dt A)^{-1} (x_k + dt B u_*), where u_* is
    u_{k+1} or u_k depending on cfg.input_timing, and reads
    y_k = C x_k + D u_k. The sparse LU of (I - dt A) is computed once and
    reused for every step.
    """
    steps = cfg.n_steps
    u_arr, start = _checked_run(model, "continuous", u, x0, steps + 1)
    n = model.order
    lu = splu(sparse.identity(n, format="csc") - cfg.dt * sparse.csc_matrix(model.a))

    x = np.empty((n, steps + 1))
    x[:, 0] = start
    shift = 1 if cfg.input_timing == "end" else 0
    for k in range(steps):
        rhs = x[:, k] + cfg.dt * (model.b @ u_arr[:, k + shift])
        x[:, k + 1] = lu.solve(rhs)
    y = model.c @ x + model.d @ u_arr
    return TrajectoryData(states=x, inputs=u_arr, outputs=y, step_width=cfg.dt)


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
    return TrajectoryData(
        states=x,
        inputs=u_arr,
        outputs=y,
        step_width=model.step_width if model.step_width is not None else 1.0,
    )


def relative_output_error(y_ref, y_test) -> float:
    """Frobenius norm of the output mismatch over the reference norm."""
    ref = np.atleast_2d(np.asarray(y_ref, dtype=float))
    test = np.atleast_2d(np.asarray(y_test, dtype=float))
    if ref.shape != test.shape:
        raise ValueError(f"output shapes differ: {ref.shape} vs {test.shape}")
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("reference output has zero norm")
    return float(np.linalg.norm(ref - test) / ref_norm)
