"""Numerical kernels: truncated SVD, pseudoinverse solves, spectral radius.

All kernels take and return real matrices; complex arithmetic stays inside
the eigendecompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "SvdResult",
    "SpectralRadiusGradient",
    "machine_rank",
    "truncated_svd",
    "pinv_apply",
    "spectral_radius",
    "spectral_radius_gradient",
]


@dataclass
class SvdResult:
    """Truncated singular value decomposition M ~ U diag(s) V^T.

    ``left_vectors`` is N x r, ``right_vectors`` is K x r, and
    ``singular_values`` holds the r retained values in nonincreasing order.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.size


@dataclass
class SpectralRadiusGradient:
    """Gradient of the spectral radius with the eigenvalue it was taken at.

    ``nonsmooth`` is set when several eigenvalues tie for the maximum
    modulus; the gradient then belongs to the tie-broken eigenvalue and
    should be read as a subgradient-like direction.
    """

    matrix: np.ndarray
    eigenvalue: complex
    nonsmooth: bool


def _as_real_matrix(
    m, name: str = "matrix", rows: int | None = None, cols: int | None = None
) -> np.ndarray:
    """``m`` as a 2-D float array: the one shape rule for every matrix argument.

    A given ``rows`` or ``cols`` count must match exactly; None leaves it
    free. When at least one count is fixed, ``m=None`` is the missing block:
    zeros of the fixed counts, with 0 for a free one. Nothing is promoted, so
    a 1-D or scalar ``m``, and None with both counts free, raise ValueError.
    A ``scipy.sparse`` input stays sparse, as float, under the same rule.
    """
    if m is None and (rows, cols) != (None, None):
        return np.zeros((rows or 0, cols or 0))
    a = m.astype(float, copy=False) if sparse.issparse(m) else np.asarray(m, dtype=float)
    if a.ndim != 2 or rows not in (None, a.shape[0]) or cols not in (None, a.shape[1]):
        want = "x".join("*" if k is None else str(k) for k in (rows, cols))
        raise ValueError(f"{name} must be a {want} matrix, got shape {a.shape}")
    return a


def _positive_finite(step, name: str = "step_width") -> None:
    """The one rule for every step width: None, NaN, infinity and <= 0 fail."""
    if step is None or not 0 < step < np.inf:
        raise ValueError(f"need a positive finite {name}, got {step!r}")


def truncated_svd(m, eps: float) -> SvdResult:
    """SVD of ``m`` keeping only singular values >= ``eps`` and above the
    machine-rank floor of ``machine_rank``, so eps = 0 keeps every value
    that carries information.

    A negative or NaN ``eps`` and non-finite entries raise ValueError.
    """
    a = _as_real_matrix(m)
    if not eps >= 0.0:
        raise ValueError("eps must be >= 0")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")

    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = min(int(np.count_nonzero(s >= eps)), machine_rank(s, max(a.shape)))
    return SvdResult(
        left_vectors=u[:, :keep],
        singular_values=s[:keep],
        right_vectors=vt[:keep].T,
    )


def _rounding_floor(dim_max: int, scale: float) -> float:
    """``dim_max * eps_mach * scale``: the size below which a quantity
    computed from data of largest dimension ``dim_max`` and magnitude
    ``scale`` is rounding noise."""
    return dim_max * np.finfo(float).eps * scale


def machine_rank(singular_values: np.ndarray, dim_max: int) -> int:
    """Count singular values above the machine-precision rank floor.

    The floor is ``dim_max * eps_mach * sigma_max``, the usual cutoff below
    which computed singular values carry no information. Values at or below
    it must never be inverted.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > _rounding_floor(dim_max, s[0])))


def pinv_apply(m, eps: float, rhs) -> tuple[np.ndarray, int]:
    """Return ``(rhs @ pinv(m), rank)`` by the eps-truncated SVD pseudoinverse.

    ``m`` is N x K and ``rhs`` is P x K; the solution is P x N and ``rank``
    counts the singular values that were inverted, those ``truncated_svd``
    keeps. For eps = 0 the solution is the minimum-Frobenius-norm
    least-squares solution G of ``G @ m ~ rhs``. Non-finite entries in ``m``
    or ``rhs`` raise ValueError.
    """
    a = _as_real_matrix(m, "m")
    b = _as_real_matrix(rhs, "rhs", cols=a.shape[1])
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite entries")
    svd = truncated_svd(a, eps)
    # rhs @ V @ diag(1/s) @ U^T, evaluated left to right; rank 0 gives zeros
    out = (b @ svd.right_vectors) / svd.singular_values @ svd.left_vectors.T
    return out, svd.rank


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = _as_real_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


# Relative width of the modulus band treated as a tie for the dominant
# eigenvalue; complex conjugate pairs always fall inside it.
_TIE_REL_TOL = 1e-8


def spectral_radius_gradient(a) -> SpectralRadiusGradient:
    """Gradient of the spectral radius at ``a`` from eigenvalue perturbation.

    For the dominant eigenvalue lam with right eigenvector x and left
    eigenvector y scaled so that y^* x = 1, the gradient of |lam| in the
    real matrix space is Re(conj(lam)/|lam| * conj(y) x^T). Modulus ties are
    broken toward the largest real part, then the largest imaginary part,
    and reported through ``nonsmooth``.
    """
    m = _as_real_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")

    lam, vr = np.linalg.eig(m)
    moduli = np.abs(lam)
    rho = float(np.max(moduli))
    if rho == 0.0:
        raise ValueError("spectral radius is zero; gradient undefined")

    tied = np.flatnonzero(moduli >= rho - _TIE_REL_TOL * max(1.0, rho))
    order = sorted(tied, key=lambda i: (lam[i].real, lam[i].imag), reverse=True)
    idx = order[0]
    nonsmooth = len(tied) > 1

    x = vr[:, idx]
    # Left eigenvector of lam = right eigenvector of A^T for the same value.
    lam_t, vl = np.linalg.eig(m.T)
    j = int(np.argmin(np.abs(lam_t - lam[idx])))
    y = vl[:, j].conj()

    scale = y.conj() @ x
    if abs(scale) < 1e-14 * np.linalg.norm(y) * np.linalg.norm(x):
        raise np.linalg.LinAlgError(
            "dominant eigenvalue appears defective; gradient not available"
        )
    y = y / np.conj(scale)

    grad = np.real(np.conj(lam[idx]) / rho * np.outer(np.conj(y), x))
    return SpectralRadiusGradient(matrix=grad, eigenvalue=complex(lam[idx]), nonsmooth=nonsmooth)
