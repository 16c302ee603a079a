"""Trajectory containers and the shifted snapshot pairs DMD fits consume.

A trajectory stores columns x_0 .. x_K on a uniform time grid together with
optional input and output rows. Pairing drops the last column on one side
and the first on the other, so column k of ``x1`` is the successor of
column k of ``x0``. Outputs are aligned with the data equation
``Y0 = C X0 + D U0``: sample k of ``y0`` belongs to state/input sample k.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .linalg import _as_real_matrix, _positive_finite

__all__ = [
    "TrajectoryData",
    "SnapshotPairs",
    "make_pairs",
    "project_pairs",
    "save_trajectory_csv",
    "load_trajectory_csv",
]


@dataclass
class TrajectoryData:
    """Uniformly sampled state/input/output snapshots from one simulation.

    ``states`` is a 2-D N x K matrix; ``inputs`` and ``outputs`` have K
    columns, with None for an empty block. ``step_width`` must be positive
    and finite.
    """

    states: np.ndarray
    inputs: np.ndarray | None = None
    outputs: np.ndarray | None = None
    step_width: float = 1.0

    def __post_init__(self) -> None:
        self.states = _as_real_matrix(self.states, "states")
        n_cols = self.states.shape[1]
        self.inputs = _as_real_matrix(self.inputs, "inputs", cols=n_cols)
        self.outputs = _as_real_matrix(self.outputs, "outputs", cols=n_cols)
        _positive_finite(self.step_width)

    @property
    def n_samples(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.step_width


@dataclass
class SnapshotPairs:
    """Aligned (x0, x1, u0, y0) matrices; column k of x1 succeeds column k of x0.

    ``x0`` is a 2-D N x K matrix and ``x1`` has its shape; ``u0`` and ``y0``
    have K columns, with None for an empty block. ``step_width`` must be
    positive and finite; ``make_pairs`` and ``project_pairs`` carry it along.
    """

    x0: np.ndarray
    x1: np.ndarray
    u0: np.ndarray | None = None
    y0: np.ndarray | None = None
    step_width: float = 1.0

    def __post_init__(self) -> None:
        self.x0 = _as_real_matrix(self.x0, "x0")
        # x1 is never a missing block: asarray makes None 0-D, which fails
        self.x1 = _as_real_matrix(np.asarray(self.x1, dtype=float), "x1", *self.x0.shape)
        k = self.x0.shape[1]
        self.u0 = _as_real_matrix(self.u0, "u0", cols=k)
        self.y0 = _as_real_matrix(self.y0, "y0", cols=k)
        _positive_finite(self.step_width)

    @property
    def n_states(self) -> int:
        return self.x0.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.u0.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.y0.shape[0]


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


def project_pairs(pairs: SnapshotPairs, q: np.ndarray) -> SnapshotPairs:
    """Compress the state rows of ``pairs`` through a projection ``q`` (N x n)."""
    q = _as_real_matrix(q, "projection", rows=pairs.n_states)
    return replace(pairs, x0=q.T @ pairs.x0, x1=q.T @ pairs.x1)


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

    The header must be exactly ``t,x1..xN,u1..uM,y1..yQ`` in that order
    with at least one state column, followed by at least two rows, and
    every value finite.
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
        if n == 0:
            raise ValueError(f"{path}: header {header!r} names no state column x1")
        with warnings.catch_warnings():
            # a header without rows is too few samples, reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 samples to recover the step width")
    if data.shape[1] != len(names):
        raise ValueError(
            f"{path}: rows have {data.shape[1]} values, header {header!r} "
            f"names {len(names)}"
        )
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        k, j = bad[0]
        raise ValueError(
            f"{path}: non-finite value {float(data[k, j])!r} in column {names[j]} "
            f"(line {k + 2})"
        )
    t = data[:, 0]
    step = float(t[1] - t[0])
    # every sample must sit on the grid t0 + k*step; the slack absorbs a grid
    # built by repeated addition, and a %.17g round trip is exact anyway
    drift = np.abs(t - (t[0] + np.arange(t.size) * step))
    off = np.flatnonzero(~(drift <= 1e-6 * step)) if step > 0.0 else [1]
    if len(off):
        k = int(off[0])
        raise ValueError(
            f"{path}: sample {k} (line {k + 2}) at t = {float(t[k])!r} breaks the "
            f"uniform increasing time grid t = {float(t[0])!r} + k * {step!r}"
        )
    return TrajectoryData(
        states=data[:, 1 : 1 + n].T,
        inputs=data[:, 1 + n : 1 + n + m].T if m else None,
        outputs=data[:, 1 + n + m :].T if q else None,
        step_width=step,
    )
