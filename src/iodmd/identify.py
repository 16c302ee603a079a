"""DMD-family least-squares fits of discrete-time state-space models.

Two solves over snapshot pairs:

* plain DMD:    x1 ~ A x0, projected onto the retained left singular basis
* ioDMD:        all four blocks [A B; C D] in a single pseudoinverse solve;
  without output rows it is DMD with control, [A B] = x1 pinv([x0; u0]),
  and without inputs either it is x1 pinv(x0)
* reduced ioDMD: ioDMD on states already compressed through a POD basis
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import Tolerances, pinv_apply, truncated_svd
from .pod import PodBasis
from .snapshot import SnapshotPairs
from .snapshot import project_pairs  # noqa: F401 - bench/tracing.py patches this name

__all__ = [
    "StateSpaceModel",
    "DegenerateDataError",
    "fit_dmd",
    "fit_iodmd",
    "fit_reduced_iodmd",
    "to_continuous",
    "save_model_json",
    "load_model_json",
]


class DegenerateDataError(ValueError):
    """Raised when truncation leaves no usable singular values."""


@dataclass
class StateSpaceModel:
    """State-space blocks (A, B, C, D) with a discrete/continuous tag.

    Input/output blocks may be empty (zero rows or columns). ``basis``
    optionally keeps the projection that lifts reduced states back to full
    dimension; ``underdetermined`` flags fits whose data matrix had lower
    rank than rows, where the returned blocks are the minimum-norm choice.
    """

    a: np.ndarray
    b: np.ndarray | None = None
    c: np.ndarray | None = None
    d: np.ndarray | None = None
    time_domain: str = "discrete"
    step_width: float | None = 1.0
    basis: np.ndarray | None = None
    underdetermined: bool = False

    def __post_init__(self) -> None:
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        r = self.a.shape[0]
        if self.a.shape != (r, r):
            raise ValueError(f"a must be square, got shape {self.a.shape}")

        b = np.zeros((r, 0)) if self.b is None else np.asarray(self.b, dtype=float)
        if b.ndim == 1:
            b = b.reshape(r, -1) if b.size else np.zeros((r, 0))
        if b.ndim != 2 or b.shape[0] != r:
            raise ValueError(f"b must have {r} rows, got shape {b.shape}")
        self.b = b
        m = b.shape[1]

        c = np.zeros((0, r)) if self.c is None else np.asarray(self.c, dtype=float)
        if c.ndim == 1:
            c = c.reshape(-1, r) if c.size else np.zeros((0, r))
        if c.ndim != 2 or c.shape[1] != r:
            raise ValueError(f"c must have {r} columns, got shape {c.shape}")
        self.c = c
        q = c.shape[0]

        d = np.zeros((q, m)) if self.d is None else np.asarray(self.d, dtype=float)
        if d.ndim == 0:
            d = d.reshape(1, 1)
        if d.shape != (q, m):
            if d.size == 0 and q * m == 0:
                d = np.zeros((q, m))
            else:
                raise ValueError(f"d must have shape ({q}, {m}), got {d.shape}")
        self.d = d

        if self.time_domain not in ("discrete", "continuous"):
            raise ValueError(f"unknown time_domain {self.time_domain!r}")
        if self.time_domain == "discrete":
            if self.step_width is None or self.step_width <= 0:
                raise ValueError("discrete models need a positive step_width")
        else:
            self.step_width = None

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    def blocks(self) -> np.ndarray:
        """The stacked operator [A B; C D] of shape (r+Q) x (r+M)."""
        top = np.hstack([self.a, self.b])
        if self.n_outputs == 0:
            return top
        return np.vstack([top, np.hstack([self.c, self.d])])


def _stacked_data(pairs: SnapshotPairs) -> tuple[np.ndarray, np.ndarray]:
    data = np.vstack([pairs.x0, pairs.u0])
    target = np.vstack([pairs.x1, pairs.y0])
    return data, target


def _split_blocks(g: np.ndarray, n: int, pairs: SnapshotPairs, underdetermined: bool) -> StateSpaceModel:
    return StateSpaceModel(
        a=g[:n, :n],
        b=g[:n, n:],
        c=g[n:, :n],
        d=g[n:, n:],
        step_width=pairs.step_width if pairs.step_width is not None else 1.0,
        underdetermined=underdetermined,
    )


def fit_dmd(pairs: SnapshotPairs, tol: Tolerances) -> StateSpaceModel:
    """Plain DMD: project x1 onto the retained left singular basis of x0.

    The returned model has order equal to the number of retained singular
    values; the basis for lifting back to full dimension is kept on the
    model.
    """
    if pairs.n_pairs == 0 or pairs.n_states == 0:
        raise DegenerateDataError("empty snapshot pairs")
    svd = truncated_svd(pairs.x0, tol.svd_truncation_eps)
    if svd.rank == 0:
        raise DegenerateDataError(
            "all singular values fall below the truncation threshold"
        )
    if svd.singular_values[-1] == 0.0:
        raise DegenerateDataError(
            "retained singular values include exact zeros; raise svd_truncation_eps"
        )
    a = svd.left_vectors.T @ pairs.x1 @ svd.right_vectors / svd.singular_values
    model = _split_blocks(a, svd.rank, pairs, underdetermined=False)
    model.basis = svd.left_vectors
    return model


def fit_iodmd(pairs: SnapshotPairs, tol: Tolerances) -> StateSpaceModel:
    """All four blocks from one solve: [A B; C D] = [x1; y0] @ pinv([x0; u0]).

    Empty input or output channels drop out of the stacks, so pairs without
    outputs give DMD with control and autonomous pairs give x1 @ pinv(x0).
    """
    data, target = _stacked_data(pairs)
    g, rank = pinv_apply(data, tol.svd_truncation_eps, target)
    return _split_blocks(g, pairs.n_states, pairs, underdetermined=rank < data.shape[0])


def fit_reduced_iodmd(
    pairs: SnapshotPairs, basis: PodBasis, tol: Tolerances
) -> StateSpaceModel:
    """ioDMD on pairs whose states are in the coordinates of ``basis``, such
    as ``project_pairs(pairs, basis.modes)``: one state row per orthonormal
    basis column, so the model order is the column count. The basis is kept
    on the model for lifting."""
    q = basis.modes
    if not 0 < q.shape[1] == pairs.n_states:
        raise ValueError(
            f"pairs have {pairs.n_states} states, the basis has {q.shape[1]} columns; "
            "need one state per column and at least one column"
        )
    gram_defect = np.linalg.norm(q.T @ q - np.eye(q.shape[1]))
    if gram_defect > max(1e-8, 1e-12 * q.shape[0]):
        raise ValueError(f"basis columns not orthonormal (defect {gram_defect:.2e})")
    model = fit_iodmd(pairs, tol)
    model.basis = q
    return model


def to_continuous(model: StateSpaceModel, h: float) -> StateSpaceModel:
    """First-order Euler conversion of a discrete model to continuous time.

    Inverts x_{k+1} = x_k + h (A_c x_k + B_c u_k): A_c = (A - I)/h and
    B_c = B/h, with C and D unchanged.
    """
    if model.time_domain != "discrete":
        raise ValueError("model is already continuous")
    if h <= 0:
        raise ValueError("step width h must be positive")
    return StateSpaceModel(
        a=(model.a - np.eye(model.order)) / h,
        b=model.b / h,
        c=model.c.copy(),
        d=model.d.copy(),
        time_domain="continuous",
        step_width=None,
        basis=None if model.basis is None else model.basis.copy(),
    )


def save_model_json(model: StateSpaceModel, path) -> None:
    """Serialize a model to JSON, basis and ``underdetermined`` flag included;
    floats round-trip exactly."""
    doc = {
        "order": model.order,
        "m": model.n_inputs,
        "p": model.n_outputs,
        "time_domain": model.time_domain,
        "step_width": model.step_width,
        "underdetermined": model.underdetermined,
        "A": model.a.tolist(),
        "B": model.b.tolist(),
        "C": model.c.tolist(),
        "D": model.d.tolist(),
        "basis": None if model.basis is None else model.basis.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model_json(path) -> StateSpaceModel:
    """Read a model written by ``save_model_json``.

    Files without ``basis`` or ``underdetermined`` load with no basis and
    the flag unset.
    """
    doc = json.loads(Path(path).read_text())
    r, m, p = doc["order"], doc["m"], doc["p"]
    basis = doc.get("basis")
    return StateSpaceModel(
        a=np.asarray(doc["A"], dtype=float).reshape(r, r),
        b=np.asarray(doc["B"], dtype=float).reshape(r, m),
        c=np.asarray(doc["C"], dtype=float).reshape(p, r),
        d=np.asarray(doc["D"], dtype=float).reshape(p, m),
        time_domain=doc["time_domain"],
        step_width=doc["step_width"],
        basis=None if basis is None else np.asarray(basis, dtype=float).reshape(-1, r),
        underdetermined=bool(doc.get("underdetermined", False)),
    )
