"""Kernels against plain numpy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from iodmd.linalg import (
    _as_real_matrix,
    machine_rank,
    pinv_apply,
    spectral_radius,
    spectral_radius_gradient,
    truncated_svd,
)
from iodmd.snapshot import SnapshotPairs


def random_matrix(seed, shape=(6, 5)):
    return np.random.default_rng(seed).standard_normal(shape)


def test_truncated_svd_reconstructs_full_matrix():
    m = random_matrix(0)
    svd = truncated_svd(m, eps=0.0)
    rebuilt = svd.left_vectors * svd.singular_values @ svd.right_vectors.T
    assert np.allclose(rebuilt, m, atol=1e-12)
    assert svd.rank == 5


def test_truncated_svd_absolute_cutoff_matches_numpy_count():
    m = random_matrix(1, (8, 8))
    s_ref = np.linalg.svd(m, compute_uv=False)
    # cutoff inside the gap so last-ulp SVD differences cannot flip the count
    eps = float(np.sqrt(s_ref[3] * s_ref[4]))
    svd = truncated_svd(m, eps=eps)
    assert svd.rank == 4
    assert np.allclose(svd.singular_values, s_ref[:4])


def test_truncated_svd_cutoff_is_inclusive():
    # a value sitting exactly on the threshold is kept, not dropped
    svd = truncated_svd(np.diag([3.0, 2.0, 1.0]), eps=2.0)
    assert svd.rank == 2
    assert np.array_equal(svd.singular_values, [3.0, 2.0])


def test_truncated_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        truncated_svd(np.array([[np.nan, 0.0]]), eps=0.0)
    with pytest.raises(ValueError):
        truncated_svd(np.ones((2, 2)), eps=-1.0)
    with pytest.raises(ValueError):
        truncated_svd(np.ones(3), eps=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pinv_apply_rejects_non_finite_rhs(value):
    rhs = random_matrix(3, (3, 9))
    rhs[2, 4] = value
    with pytest.raises(ValueError, match="rhs contains non-finite"):
        pinv_apply(random_matrix(2, (4, 9)), 0.0, rhs)


def test_machine_rank_counts_informative_values():
    s = np.array([1.0, 1e-3, 1e-18])
    assert machine_rank(s, 10) == 2
    assert machine_rank(np.zeros(3), 10) == 0
    assert machine_rank(np.array([]), 10) == 0


def test_pinv_apply_matches_lstsq_oracle():
    # G @ m ~ rhs row-wise is m.T @ G.T ~ rhs.T column-wise
    m = random_matrix(2, (4, 9))
    rhs = random_matrix(3, (3, 9))
    g, rank = pinv_apply(m, 0.0, rhs)
    assert rank == 4
    g_ref = np.linalg.lstsq(m.T, rhs.T, rcond=None)[0].T
    assert np.allclose(g, g_ref, atol=1e-10)


def test_pinv_apply_truncation_oracle():
    # build m with a known tiny singular value and drop it by hand
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((7, 5)))
    s = np.array([5.0, 3.0, 1.0, 1e-7, 1e-9])
    m = u * s @ v.T
    rhs = rng.standard_normal((2, 7))
    g, rank = pinv_apply(m, 1e-5, rhs)
    assert rank == 3
    g_ref = (rhs @ v[:, :3]) / s[:3] @ u[:, :3].T
    assert np.allclose(g, g_ref, atol=1e-10)


def test_pinv_apply_never_inverts_machine_zeros():
    m = np.zeros((3, 4))
    g, rank = pinv_apply(m, 0.0, np.ones((2, 4)))
    assert rank == 0
    assert np.array_equal(g, np.zeros((2, 3)))


@pytest.mark.parametrize(
    "m, rows, cols, expected",
    [
        ([[1, 2, 3]], None, None, (1, 3)),
        ([[1, 2, 3]], 1, None, (1, 3)),
        ([[1, 2, 3]], None, 3, (1, 3)),
        ([[1, 2, 3]], 1, 3, (1, 3)),
        (np.zeros((0, 4)), 0, 4, (0, 4)),
        # None is the missing block when a count is fixed
        (None, 3, None, (3, 0)),
        (None, None, 2, (0, 2)),
        (None, 2, 3, (2, 3)),
        # a wrong count, None with both counts free, and nothing promoted
        ([[1, 2, 3]], 3, None, "b must be a 3x* matrix, got shape (1, 3)"),
        ([[1, 2, 3]], None, 2, "b must be a *x2 matrix, got shape (1, 3)"),
        ([[1, 2, 3]], 1, 2, "b must be a 1x2 matrix, got shape (1, 3)"),
        (None, None, None, "b must be a *x* matrix, got shape ()"),
        ([1, 2, 3], None, None, "b must be a *x* matrix, got shape (3,)"),
        ([1, 2, 3], 3, None, "b must be a 3x* matrix, got shape (3,)"),
        (2.0, 1, 1, "b must be a 1x1 matrix, got shape ()"),
        (np.ones((1, 1, 1)), 1, 1, "b must be a 1x1 matrix, got shape (1, 1, 1)"),
        # a sparse matrix stays sparse, as float, under the same rule
        (sparse.csc_array([[1, 0, 3]]), 1, 3, (1, 3)),
        (sparse.csr_matrix([[1, 0, 3]]), None, None, (1, 3)),
        (sparse.csc_array([[1, 0, 3]]), 3, None, "b must be a 3x* matrix, got shape (1, 3)"),
        (sparse.csc_array([[1, 0, 3]]), None, 2, "b must be a *x2 matrix, got shape (1, 3)"),
        (sparse.coo_array([[1, 0, 3]]), 1, 2, "b must be a 1x2 matrix, got shape (1, 3)"),
        (sparse.coo_array([1, 0, 3]), None, None, "b must be a *x* matrix, got shape (3,)"),
    ],
)
def test_one_shape_rule_for_every_matrix(m, rows, cols, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            _as_real_matrix(m, "b", rows, cols)
        assert str(exc.value) == expected
        return
    a = _as_real_matrix(m, "b", rows, cols)
    assert a.dtype == float and a.shape == expected
    assert sparse.issparse(a) == sparse.issparse(m)
    if m is None:
        assert not a.any()
    elif sparse.issparse(m):
        assert np.array_equal(a.toarray(), m.toarray())
    else:
        assert np.array_equal(a, m)


def test_pinv_apply_shape_mismatch():
    with pytest.raises(ValueError):
        pinv_apply(np.ones((3, 4)), 0.0, np.ones((2, 5)))


def test_spectral_radius_triangular():
    a = np.triu(np.ones((4, 4)))
    np.fill_diagonal(a, [0.5, -2.0, 0.1, 1.5])
    assert spectral_radius(a) == pytest.approx(2.0, rel=1e-12)


def test_spectral_radius_companion_matrix():
    # companion of (z - 0.9)(z + 0.4) = z^2 - 0.5 z - 0.36
    a = np.array([[0.5, 0.36], [1.0, 0.0]])
    assert spectral_radius(a) == pytest.approx(0.9, rel=1e-12)


def test_spectral_radius_empty_and_nonsquare():
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))


def central_difference_gradient(a, h=1e-6):
    g = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            ap, am = a.copy(), a.copy()
            ap[i, j] += h
            am[i, j] -= h
            g[i, j] = (spectral_radius(ap) - spectral_radius(am)) / (2 * h)
    return g


def test_spectral_radius_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((6, 6))
        result = spectral_radius_gradient(a)
        fd = central_difference_gradient(a)
        rel = np.linalg.norm(result.matrix - fd) / np.linalg.norm(fd)
        assert rel < 1e-6
        assert abs(result.eigenvalue) == pytest.approx(spectral_radius(a), rel=1e-10)


def test_spectral_radius_gradient_flags_complex_pair_as_nonsmooth():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i tie in modulus
    result = spectral_radius_gradient(a)
    assert result.nonsmooth


def test_spectral_radius_gradient_simple_real_case():
    a = np.diag([2.0, 0.5])
    result = spectral_radius_gradient(a)
    assert not result.nonsmooth
    assert np.allclose(result.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_spectral_radius_gradient_defective_raises():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])  # Jordan block, defective
    with pytest.raises(np.linalg.LinAlgError):
        spectral_radius_gradient(a)


def test_spectral_radius_gradient_zero_matrix_raises():
    with pytest.raises(ValueError):
        spectral_radius_gradient(np.zeros((3, 3)))


def test_tolerances_validation(projected_dmd):
    # the cutoff is a plain argument, checked where truncated_svd uses it
    m, rhs = random_matrix(2, (4, 9)), random_matrix(3, (3, 9))
    with pytest.raises(ValueError, match="eps must be >= 0"):
        pinv_apply(m, -1e-3, rhs)
    with pytest.raises(ValueError, match="eps must be >= 0"):
        projected_dmd(SnapshotPairs(x0=m, x1=m), -1e-3)
    assert pinv_apply(m, 0.0, rhs)[1] == 4


def test_nan_cutoff_is_rejected():
    # NaN fails every comparison; read as "no cutoff" it would keep every
    # singular value where the caller asked for some cutoff
    with pytest.raises(ValueError):
        pinv_apply(np.eye(2), float("nan"), np.eye(2))
    with pytest.raises(ValueError):
        truncated_svd(np.eye(2), eps=float("nan"))


def test_the_machine_rank_floor_cuts_inside_truncated_svd(projected_dmd):
    # a 6x8 product of rank 3: three singular values are rounding noise
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 8))
    svd = truncated_svd(m, 0.0)
    assert svd.rank == 3
    assert svd.left_vectors.shape == (6, 3) and svd.right_vectors.shape == (8, 3)
    # the solves take the rank as truncated_svd returns it
    assert pinv_apply(m, 0.0, rng.standard_normal((2, 8)))[1] == svd.rank
    assert projected_dmd(SnapshotPairs(x0=m, x1=m), 0.0).order == svd.rank


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_spectral_radius_below_frobenius_norm(seed):
    a = np.random.default_rng(seed).standard_normal((5, 5))
    assert spectral_radius(a) <= np.linalg.norm(a) + 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_pinv_apply_satisfies_normal_equations(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 8))
    rhs = rng.standard_normal((2, 8))
    g, _ = pinv_apply(m, 0.0, rhs)
    # least-squares optimality: the residual is orthogonal to the data rows
    residual = g @ m - rhs
    assert np.linalg.norm(residual @ m.T) <= 1e-8 * max(1.0, np.linalg.norm(rhs))
