"""Trajectory containers and the shifted snapshot pairs DMD fits consume.

A trajectory stores columns x_0 .. x_K on a uniform time grid together with
optional input and output rows. Pairing drops the last column on one side
and the first on the other, so column k of ``x1`` is the successor of
column k of ``x0``. Outputs are aligned with the data equation
``Y0 = C X0 + D U0``: sample k of ``y0`` belongs to state/input sample k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "TrajectoryData",
    "SnapshotPairs",
    "make_pairs",
    "concat_pairs",
    "project_pairs",
    "save_trajectory_csv",
    "load_trajectory_csv",
]


def _channels(m, n_cols: int, name: str) -> np.ndarray:
    """Coerce an optional channel block to a float matrix with n_cols columns."""
    if m is None:
        return np.zeros((0, n_cols))
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a[np.newaxis, :]
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] > 0 and a.shape[1] != n_cols:
        raise ValueError(
            f"{name} has {a.shape[1]} columns, expected {n_cols} to match states"
        )
    if a.shape[0] == 0:
        a = a.reshape(0, n_cols)
    return a


@dataclass
class TrajectoryData:
    """Uniformly sampled state/input/output snapshots from one simulation."""

    states: np.ndarray
    inputs: np.ndarray | None = None
    outputs: np.ndarray | None = None
    step_width: float = 1.0

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2:
            raise ValueError(f"states must be 2-D, got shape {self.states.shape}")
        n_cols = self.states.shape[1]
        self.inputs = _channels(self.inputs, n_cols, "inputs")
        self.outputs = _channels(self.outputs, n_cols, "outputs")
        if self.step_width <= 0:
            raise ValueError("step_width must be positive")

    @property
    def n_samples(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.step_width


@dataclass
class SnapshotPairs:
    """Aligned (x0, x1, u0, y0) matrices; column k of x1 succeeds column k of x0.

    ``step_width`` is carried along from the source trajectory when known;
    it is None for concatenations of differently stepped trajectories.
    """

    x0: np.ndarray
    x1: np.ndarray
    u0: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    y0: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    step_width: float | None = None

    def __post_init__(self) -> None:
        self.x0 = np.asarray(self.x0, dtype=float)
        self.x1 = np.asarray(self.x1, dtype=float)
        if self.x0.shape != self.x1.shape:
            raise ValueError(
                f"x0 and x1 must have equal shapes, got {self.x0.shape} and {self.x1.shape}"
            )
        k = self.x0.shape[1]
        self.u0 = _channels(self.u0, k, "u0")
        self.y0 = _channels(self.y0, k, "y0")

    @property
    def n_states(self) -> int:
        return self.x0.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.u0.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.y0.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.x0.shape[1]


def make_pairs(traj: TrajectoryData) -> SnapshotPairs:
    """Split a trajectory into the shifted snapshot partitions.

    ``x0`` drops the last state column, ``x1`` the first; input and output
    rows drop their last sample.
    """
    if traj.n_samples < 2:
        raise ValueError("need at least 2 snapshots to form pairs")
    return SnapshotPairs(
        x0=traj.states[:, :-1],
        x1=traj.states[:, 1:],
        u0=traj.inputs[:, :-1],
        y0=traj.outputs[:, :-1],
        step_width=traj.step_width,
    )


def concat_pairs(pairs: list[SnapshotPairs]) -> SnapshotPairs:
    """Column-wise concatenation of snapshot pairs from several experiments."""
    if not pairs:
        raise ValueError("cannot concatenate an empty list of pairs")
    first = pairs[0]
    for p in pairs[1:]:
        if (p.n_states, p.n_inputs, p.n_outputs) != (
            first.n_states,
            first.n_inputs,
            first.n_outputs,
        ):
            raise ValueError("all pairs must agree in state/input/output dimensions")
    widths = {p.step_width for p in pairs}
    return SnapshotPairs(
        x0=np.hstack([p.x0 for p in pairs]),
        x1=np.hstack([p.x1 for p in pairs]),
        u0=np.hstack([p.u0 for p in pairs]),
        y0=np.hstack([p.y0 for p in pairs]),
        step_width=widths.pop() if len(widths) == 1 else None,
    )


def project_pairs(pairs: SnapshotPairs, q: np.ndarray) -> SnapshotPairs:
    """Compress the state rows of ``pairs`` through a projection ``q`` (N x n)."""
    q = np.asarray(q, dtype=float)
    if q.shape[0] != pairs.n_states:
        raise ValueError(
            f"projection has {q.shape[0]} rows, expected {pairs.n_states}"
        )
    return SnapshotPairs(
        x0=q.T @ pairs.x0,
        x1=q.T @ pairs.x1,
        u0=pairs.u0,
        y0=pairs.y0,
        step_width=pairs.step_width,
    )


# One row per sample: t, x1..xN, u1..uM, y1..yQ, full double precision.
_FLOAT_FMT = "%.17g"


def _column_names(n: int, m: int, q: int) -> list[str]:
    return (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"u{i + 1}" for i in range(m)]
        + [f"y{i + 1}" for i in range(q)]
    )


def save_trajectory_csv(traj: TrajectoryData, path) -> None:
    """Write a trajectory as CSV with header ``t,x1..xN,u1..uM,y1..yQ``."""
    names = _column_names(
        traj.states.shape[0], traj.inputs.shape[0], traj.outputs.shape[0]
    )
    table = np.vstack([traj.times, traj.states, traj.inputs, traj.outputs]).T
    np.savetxt(
        Path(path),
        table,
        fmt=_FLOAT_FMT,
        delimiter=",",
        header=",".join(names),
        comments="",
    )


def load_trajectory_csv(path) -> TrajectoryData:
    """Read a trajectory written by :func:`save_trajectory_csv`.

    The header must be exactly ``t,x1..xN,u1..uM,y1..yQ`` in that order.
    """
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip()
        names = header.split(",")
        n, m, q = (sum(1 for c in names if c.startswith(p)) for p in "xuy")
        if names != _column_names(n, m, q):
            raise ValueError(
                f"{path}: header {header!r} is not t,x1..xN,u1..uM,y1..yQ"
            )
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(
            f"{path}: rows have {data.shape[1]} values, header {header!r} "
            f"names {len(names)}"
        )
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 samples to recover the step width")
    t = data[:, 0]
    step = float(t[1] - t[0])
    # every sample must sit on the grid t0 + k*step; the slack absorbs a grid
    # built by repeated addition, and a %.17g round trip is exact anyway
    drift = np.abs(t - (t[0] + np.arange(t.size) * step))
    off = np.flatnonzero(~(drift <= 1e-6 * step)) if step > 0.0 else [1]
    if len(off):
        k = int(off[0])
        raise ValueError(
            f"{path}: sample {k} (line {k + 2}) at t = {t[k]!r} breaks the "
            f"uniform increasing time grid t = {t[0]!r} + k * {step!r}"
        )
    return TrajectoryData(
        states=data[:, 1 : 1 + n].T,
        inputs=data[:, 1 + n : 1 + n + m].T if m else None,
        outputs=data[:, 1 + n + m :].T if q else None,
        step_width=step,
    )
