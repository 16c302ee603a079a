"""Numerical kernels: truncated SVD, pseudoinverse solves, spectral radius.

All kernels take and return real matrices; complex arithmetic stays inside
the eigendecompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdResult",
    "Tolerances",
    "SpectralRadiusGradient",
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
    ``discarded_count`` counts the singular values cut by the threshold.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    discarded_count: int

    @property
    def rank(self) -> int:
        return self.singular_values.size


@dataclass
class Tolerances:
    """Numerical tolerances shared by the identification routines.

    ``svd_truncation_eps`` is an absolute cutoff: singular values below it
    are discarded when forming pseudoinverses (0 keeps everything).
    """

    svd_truncation_eps: float = 0.0

    def __post_init__(self) -> None:
        if not self.svd_truncation_eps >= 0.0:
            raise ValueError("svd_truncation_eps must be >= 0")


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


def _as_real_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def truncated_svd(m, eps: float) -> SvdResult:
    """SVD of ``m`` keeping only singular values >= ``eps`` (0 keeps all).

    Non-finite entries raise ValueError.
    """
    a = _as_real_matrix(m)
    if not eps >= 0.0:
        raise ValueError("eps must be >= 0")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")

    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = int(np.count_nonzero(s >= eps)) if eps > 0 else s.size
    return SvdResult(
        left_vectors=u[:, :keep],
        singular_values=s[:keep],
        right_vectors=vt[:keep].T,
        discarded_count=s.size - keep,
    )


def machine_rank(singular_values: np.ndarray, dim_max: int) -> int:
    """Count singular values above the machine-precision rank floor.

    The floor is ``dim_max * eps_mach * sigma_max``, the usual cutoff below
    which computed singular values carry no information. Values at or below
    it must never be inverted.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] == 0.0:
        return 0
    floor = dim_max * np.finfo(float).eps * s[0]
    return int(np.count_nonzero(s > floor))


def pinv_apply(m, eps: float, rhs) -> tuple[np.ndarray, int]:
    """Return ``(rhs @ pinv(m), rank)`` by the eps-truncated SVD pseudoinverse.

    ``m`` is N x K and ``rhs`` is P x K; the solution is P x N and ``rank``
    counts the singular values that were inverted. For eps = 0 the solution
    is the minimum-Frobenius-norm least-squares solution G of
    ``G @ m ~ rhs``; singular values at machine-zero level are never
    inverted.
    """
    a = _as_real_matrix(m, "m")
    b = _as_real_matrix(rhs, "rhs")
    if b.shape[1] != a.shape[1]:
        raise ValueError(
            f"rhs has {b.shape[1]} columns, expected {a.shape[1]} to match m"
        )
    svd = truncated_svd(a, eps)
    rank = min(svd.rank, machine_rank(svd.singular_values, max(a.shape)))
    if rank == 0:
        out = np.zeros((b.shape[0], a.shape[0]))
    else:
        u = svd.left_vectors[:, :rank]
        s = svd.singular_values[:rank]
        v = svd.right_vectors[:, :rank]
        # rhs @ V @ diag(1/s) @ U^T, evaluated left to right
        out = (b @ v) / s @ u.T
    return out, rank


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
