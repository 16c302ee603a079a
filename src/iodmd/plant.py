"""Benchmark source system and time steppers.

The plant is a continuous-time LTI system ẋ = Ax + Bu, y = Cx. The
benchmark instance discretizes 1-D transport at speed ``a`` on a unit
interval with first-order upwind differences: values flow left to right,
the input feeds the left boundary and the output reads the right one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .snapshot import TrajectoryData

__all__ = [
    "Plant",
    "SimConfig",
    "build_transport_plant",
    "simulate_continuous",
    "simulate_discrete",
    "relative_output_error",
]


@dataclass
class Plant:
    """Continuous-time system matrices."""

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    c_matrix: np.ndarray

    def __post_init__(self) -> None:
        self.a_matrix = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        n = self.a_matrix.shape[0]
        if self.a_matrix.shape != (n, n):
            raise ValueError(f"a_matrix must be square, got {self.a_matrix.shape}")
        b = np.asarray(self.b_matrix, dtype=float)
        if b.ndim == 1:
            b = b.reshape(n, -1) if b.size else np.zeros((n, 0))
        if b.ndim != 2 or b.shape[0] != n:
            raise ValueError(f"b_matrix must have {n} rows, got shape {b.shape}")
        self.b_matrix = b
        c = np.asarray(self.c_matrix, dtype=float)
        if c.ndim == 1:
            c = c.reshape(-1, n) if c.size else np.zeros((0, n))
        if c.ndim != 2 or c.shape[1] != n:
            raise ValueError(f"c_matrix must have {n} columns, got shape {c.shape}")
        self.c_matrix = c

    @property
    def n_states(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b_matrix.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c_matrix.shape[0]


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


def build_transport_plant(speed: float, dx: float) -> Plant:
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
    return Plant(a_matrix=a, b_matrix=b, c_matrix=c)


def _input_samples(u, m: int, n_samples: int) -> np.ndarray:
    if u is None:
        return np.zeros((m, n_samples))
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if m == 1 else arr.reshape(m, -1)
    if arr.shape != (m, n_samples):
        raise ValueError(
            f"input samples must have shape ({m}, {n_samples}), got {arr.shape}"
        )
    return arr


def simulate_continuous(plant: Plant, u, x0, cfg: SimConfig) -> TrajectoryData:
    """Implicit-Euler integration of the plant on a uniform grid.

    Steps x_{k+1} = (I - dt A)^{-1} (x_k + dt B u_*), where u_* is
    u_{k+1} or u_k depending on cfg.input_timing. The sparse LU of
    (I - dt A) is computed once and reused for every step.
    """
    n = plant.n_states
    steps = cfg.n_steps
    u_arr = _input_samples(u, plant.n_inputs, steps + 1)
    if x0 is None:
        start = np.zeros(n)
    else:
        start = np.asarray(x0, dtype=float).reshape(-1)
        if start.size != n:
            raise ValueError(f"x0 must have {n} entries, got {start.size}")

    stepper = sparse.identity(n, format="csc") - cfg.dt * sparse.csc_matrix(plant.a_matrix)
    lu = splu(stepper)

    x = np.empty((n, steps + 1))
    x[:, 0] = start
    shift = 1 if cfg.input_timing == "end" else 0
    bmat = plant.b_matrix
    for k in range(steps):
        rhs = x[:, k] + cfg.dt * (bmat @ u_arr[:, k + shift])
        x[:, k + 1] = lu.solve(rhs)
    y = plant.c_matrix @ x
    return TrajectoryData(states=x, inputs=u_arr, outputs=y, step_width=cfg.dt)


def simulate_discrete(model, u, x0=None) -> TrajectoryData:
    """Iterate a discrete-time state-space model over given input samples.

    x_{k+1} = A x_k + B u_k and y_k = C x_k + D u_k; the trajectory has
    as many samples as the input signal.
    """
    if model.time_domain != "discrete":
        raise ValueError("simulate_discrete requires a discrete-time model")
    r = model.order
    if u is None:
        raise ValueError("input samples are required (use zeros for autonomous runs)")
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 1:
        u_arr = u_arr.reshape(1, -1) if model.n_inputs == 1 else u_arr.reshape(model.n_inputs, -1)
    if u_arr.ndim != 2 or u_arr.shape[0] != model.n_inputs:
        raise ValueError(
            f"input samples must have {model.n_inputs} rows, got shape {u_arr.shape}"
        )
    n_samples = u_arr.shape[1]
    if n_samples < 1:
        raise ValueError("need at least one input sample")
    if x0 is None:
        start = np.zeros(r)
    else:
        start = np.asarray(x0, dtype=float).reshape(-1)
        if start.size != r:
            raise ValueError(f"x0 must have {r} entries, got {start.size}")

    x = np.empty((r, n_samples))
    x[:, 0] = start
    for k in range(n_samples - 1):
        x[:, k + 1] = model.a @ x[:, k] + model.b @ u_arr[:, k]
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
