"""Truncated POD bases with a prescribed projection-error budget.

The basis is cut at the smallest mode count whose discarded tail energy
``sqrt(sum_{i>n} s_i^2)`` stays within the budget; by the Schmidt-Eckart-
Young bound that tail also bounds the Frobenius projection error.

``pod_sweep`` factors the snapshot matrix with a blocked randomized range
finder (Halko, Martinsson & Tropp, *Finding structure with randomness*,
2011) run to the machine-rank floor instead of to a fixed rank, so it only
computes the singular vectors a budget can keep. ``pod_basis`` takes the
dense LAPACK SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _as_real_matrix, machine_rank, truncated_svd

__all__ = ["PodBasis", "pod_basis", "pod_sweep"]

# Gaussian test vectors drawn per range-finder step
_BLOCK = 48
# the sketch is seeded per call, so a matrix always gets the same basis,
# whatever was factored before it
_SKETCH_SEED = 0


@dataclass
class PodBasis:
    """Orthonormal projection columns plus the spectrum bookkeeping."""

    modes: np.ndarray
    retained_singular_values: np.ndarray
    discarded_energy: float
    requested_error: float

    @property
    def order(self) -> int:
        return self.modes.shape[1]


def _dense_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    svd = truncated_svd(x, eps=0.0)
    return svd.left_vectors, svd.singular_values


def check_budget(budget: float) -> float:
    """``budget`` as a float, or ValueError when no basis can meet it."""
    budget = float(budget)
    if not budget >= 0.0:
        raise ValueError("error budget must be nonnegative")
    return budget


def _bases(x, error_budgets, mode: str, factor) -> list[PodBasis]:
    """One basis per budget from the left singular vectors and values that
    ``factor(x)`` returns, which stop at the machine-rank floor. Every
    argument is checked first, so that bad input fails before the
    factorization."""
    if mode not in ("relative", "absolute"):
        raise ValueError(f"unknown mode {mode!r}")
    error_budgets = [check_budget(budget) for budget in error_budgets]
    x = _as_real_matrix(x, "snapshot matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("snapshot matrix contains non-finite entries")
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("cannot build a POD basis from a zero snapshot matrix")

    u, s = factor(x)
    tails = np.sqrt(np.cumsum(s[::-1] ** 2)[::-1])
    out = []
    for budget in error_budgets:
        threshold = budget * norm if mode == "relative" else budget
        # tails[n] is the energy discarded when keeping n modes
        n = int(np.argmax(tails <= threshold)) if tails[-1] <= threshold else s.size
        n = max(n, 1)
        out.append(
            PodBasis(
                modes=u[:, :n],
                retained_singular_values=s[:n],
                discarded_energy=float(tails[n]) if n < tails.size else 0.0,
                requested_error=budget,
            )
        )
    return out


def _range_finder_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading left singular vectors and values of ``x`` down to its
    machine-rank floor.

    The orthonormal basis Q grows by blocks of ``_BLOCK`` columns drawn from
    the residual ``X - Q Q^T X``, which is kept explicitly: estimating its
    norm from ``||X||^2 - ||Q^T X||^2`` cancels below sqrt(eps). Each block
    is orthogonalized against Q twice, with a QR after each pass, and then
    deflates the residual in place, ``_BLOCK`` rows at a time: the residual
    is the only array here the size of X, and it is released before the
    final SVD. Growth stops once
    ``||X - Q Q^T X||_F <= max(m, n) * eps * sigma_1``, the floor below
    which ``machine_rank`` cuts singular values anyway, and the SVD of the
    small matrix ``Q^T X``, cut at that floor, gives the result. A matrix
    whose sketch would reach min(m, n)/2 columns is close to full rank, and
    the dense SVD is cheaper there.
    """
    m, n = x.shape
    rng = np.random.default_rng(_SKETCH_SEED)
    q = np.empty((m, 0))
    residual = x.copy()
    floor = None
    while 2 * (q.shape[1] + _BLOCK) < min(m, n):
        y = residual @ rng.standard_normal((n, _BLOCK))
        for _ in range(2):
            y -= q @ (q.T @ y)
            y, _ = np.linalg.qr(y)
        b = y.T @ residual
        if floor is None:
            # the first block captures the dominant direction of X
            floor = max(m, n) * np.finfo(float).eps * np.linalg.norm(b, 2)
        # y @ b in one piece would be a second array the size of X
        for start in range(0, m, _BLOCK):
            rows = slice(start, start + _BLOCK)
            residual[rows] -= y[rows] @ b
        q = np.hstack([q, y])
        if np.linalg.norm(residual) <= floor:
            break
    else:
        return _dense_svd(x)
    del residual
    ub, s, _ = np.linalg.svd(q.T @ x, full_matrices=False)
    keep = machine_rank(s, max(m, n))
    # slicing after the product keeps every bit of the kept columns
    return (q @ ub)[:, :keep], s[:keep]


def pod_basis(x, error_budget: float, mode: str = "relative") -> PodBasis:
    """Smallest POD basis of the snapshot matrix ``x`` meeting the budget.

    ``mode='relative'`` scales the budget by the Frobenius norm of ``x``,
    ``mode='absolute'`` uses it as-is. At least one mode is always retained.

    The modes are the leading left singular vectors of the dense LAPACK SVD
    (``np.linalg.svd``), column signs included, so anyone holding ``x`` can
    rebuild the basis a model from ``iodmd identify`` was fit on.
    """
    return _bases(x, [error_budget], mode, _dense_svd)[0]


def pod_sweep(x, error_budgets, mode: str = "relative") -> list[PodBasis]:
    """Bases for several budgets, each read as in ``pod_basis``, from one
    factorization of the snapshot matrix.

    The factorization is the range finder of ``_range_finder_svd``, so the
    bases are nested and cut at the same orders as the dense SVD's up to
    singular values at the machine-rank floor; their column signs may
    differ from ``pod_basis``. Every budget is checked before ``x`` is
    factored.
    """
    return _bases(x, error_budgets, mode, _range_finder_svd)
