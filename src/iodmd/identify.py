"""DMD-family least-squares fits of discrete-time state-space models.

One solve over snapshot pairs, in two forms:

* ioDMD:        all four blocks [A B; C D] in a single pseudoinverse solve;
  without output rows it is DMD with control, [A B] = x1 pinv([x0; u0]),
  and without inputs either it is x1 pinv(x0)
* reduced ioDMD: ioDMD on states already compressed through a POD basis;
  on autonomous pairs projected onto the POD basis of x0 it is projected
  (plain) DMD
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from .linalg import pinv_apply
from .linalg import _as_real_matrix, _positive_finite
from .pod import PodBasis
from .snapshot import SnapshotPairs
from .snapshot import project_pairs  # noqa: F401 - bench/tracing.py patches this name

__all__ = [
    "StateSpaceModel",
    "fit_iodmd",
    "fit_reduced_iodmd",
    "save_model_json",
    "load_model_json",
]


@dataclass
class StateSpaceModel:
    """State-space blocks (A, B, C, D) with a discrete/continuous tag.

    Every block is a 2-D matrix: A is r x r, B is r x M, C is Q x r and D
    is Q x M, with None for an empty block (an all-zero D). A may be a
    ``scipy.sparse`` array, which only the transport plant's is: the
    simulators take it, while ``blocks()``, the fits, the repair and the
    model JSON work on dense blocks; ``blocks()`` and ``save_model_json``
    raise a ValueError on a sparse A. ``basis``
    optionally keeps the N x r projection that lifts reduced states back to
    full dimension; ``underdetermined`` flags fits whose data matrix had
    lower rank than rows, where the returned blocks are the minimum-norm
    choice. Discrete models need a positive finite ``step_width``.
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
        self.a = _as_real_matrix(self.a, "a")
        r = self.a.shape[0]
        if self.a.shape != (r, r):
            raise ValueError(f"a must be square, got shape {self.a.shape}")
        self.b = _as_real_matrix(self.b, "b", rows=r)
        self.c = _as_real_matrix(self.c, "c", cols=r)
        self.d = _as_real_matrix(self.d, "d", self.c.shape[0], self.b.shape[1])
        if self.basis is not None:
            self.basis = _as_real_matrix(self.basis, "basis", cols=r)

        if self.time_domain not in ("discrete", "continuous"):
            raise ValueError(f"unknown time_domain {self.time_domain!r}")
        if self.time_domain == "discrete":
            _positive_finite(self.step_width)
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
        _require_dense_a(self, "blocks()")
        return np.vstack([np.hstack([self.a, self.b]), np.hstack([self.c, self.d])])


def _require_dense_a(model: StateSpaceModel, needs: str) -> None:
    if sparse.issparse(model.a):
        raise ValueError(f"block A is sparse; {needs} needs a dense A")


def _stacked_data(pairs: SnapshotPairs) -> tuple[np.ndarray, np.ndarray]:
    data = np.vstack([pairs.x0, pairs.u0])
    target = np.vstack([pairs.x1, pairs.y0])
    return data, target


def fit_iodmd(pairs: SnapshotPairs, eps: float = 0.0) -> StateSpaceModel:
    """All four blocks from one solve: [A B; C D] = [x1; y0] @ pinv([x0; u0]).

    ``eps`` is the absolute singular-value cutoff of ``pinv_apply`` (0 keeps
    every value above the machine-rank floor). Empty input or output
    channels drop out of the stacks, so pairs without outputs give DMD with
    control and autonomous pairs give x1 @ pinv(x0).
    """
    data, target = _stacked_data(pairs)
    g, rank = pinv_apply(data, eps, target)
    n = pairs.n_states
    return StateSpaceModel(
        a=g[:n, :n],
        b=g[:n, n:],
        c=g[n:, :n],
        d=g[n:, n:],
        step_width=pairs.step_width,
        underdetermined=rank < data.shape[0],
    )


def fit_reduced_iodmd(
    pairs: SnapshotPairs, basis: PodBasis, eps: float = 0.0
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
    return replace(fit_iodmd(pairs, eps), basis=q)


def save_model_json(model: StateSpaceModel, path) -> None:
    """Serialize a model to JSON, basis and ``underdetermined`` flag included;
    floats round-trip exactly."""
    _require_dense_a(model, "save_model_json")
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
    the flag unset. Every block must be nested as the matrix of its declared
    shape; only a block without rows may be the flat ``[]`` that
    ``tolist()`` writes. A missing key, a dimension that is not a nonnegative
    integer, an ``underdetermined`` that is not a JSON boolean, a block of
    another shape and a non-finite entry (NaN, infinity or null) each raise
    a ValueError that names the key.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(doc).__name__}")
    for key in ("order", "m", "p", "time_domain", "step_width", "A", "B", "C", "D"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    for key in ("order", "m", "p"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise ValueError(f"{path}: {key!r} must be a nonnegative integer, got {doc[key]!r}")
    if doc["step_width"] is not None and type(doc["step_width"]) not in (int, float):
        raise ValueError(f"{path}: 'step_width' must be a number, got {doc['step_width']!r}")
    underdetermined = doc.get("underdetermined", False)
    if type(underdetermined) is not bool:
        raise ValueError(f"{path}: 'underdetermined' must be true or false, got {underdetermined!r}")
    r, m, p = doc["order"], doc["m"], doc["p"]
    shapes = {"A": (r, r), "B": (r, m), "C": (p, r), "D": (p, m)}
    if doc.get("basis") is not None:
        shapes["basis"] = (None, r)
    blocks = {}
    for name, (rows, cols) in shapes.items():
        try:
            block = np.asarray(doc[name], dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: block {name} is not a matrix of numbers") from None
        if block.shape == (0,):
            # tolist() writes a block without rows as a flat []
            block = block.reshape(0, cols)
        blocks[name] = _as_real_matrix(block, f"{path}: block {name}", rows, cols)
    for name, block in blocks.items():
        bad = np.argwhere(~np.isfinite(block))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"{path}: block {name} has non-finite entry {float(block[i, j])!r} "
                f"at ({i}, {j})"
            )
    return StateSpaceModel(
        a=blocks["A"],
        b=blocks["B"],
        c=blocks["C"],
        d=blocks["D"],
        time_domain=doc["time_domain"],
        step_width=doc["step_width"],
        basis=blocks.get("basis"),
        underdetermined=underdetermined,
    )
