"""POD truncation against hand-built spectra and the tail-energy bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iodmd import pod
from iodmd.pod import pod_basis, pod_sweep


def matrix_with_spectrum(singular_values, shape=(6, 5), seed=0):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], shape[0])))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], shape[1])))
    k = len(singular_values)
    return u[:, :k] * np.asarray(singular_values, dtype=float) @ v[:, :k].T


def test_absolute_budget_cuts_at_hand_computed_tails():
    # spectrum 3, 2, 1: tails are sqrt(14), sqrt(5), 1, 0
    x = matrix_with_spectrum([3.0, 2.0, 1.0])
    assert pod_basis(x, 2.3, mode="absolute").order == 1  # sqrt(5) = 2.236 fits
    assert pod_basis(x, 2.2, mode="absolute").order == 2
    assert pod_basis(x, 1.0, mode="absolute").order == 2  # tail exactly at budget
    assert pod_basis(x, 0.5, mode="absolute").order == 3


def test_relative_budget_scales_by_frobenius_norm():
    x = matrix_with_spectrum([3.0, 2.0, 1.0])
    norm = np.sqrt(14.0)
    basis = pod_basis(x, 2.3 / norm, mode="relative")
    assert basis.order == 1
    assert pod_basis(x, 0.5 / norm).order == 3  # relative is the default mode


def test_basis_bookkeeping_fields():
    x = matrix_with_spectrum([3.0, 2.0, 1.0])
    basis = pod_basis(x, 2.2, mode="absolute")
    assert np.allclose(basis.retained_singular_values, [3.0, 2.0])
    assert basis.discarded_energy == pytest.approx(1.0, rel=1e-10)
    assert basis.requested_error == 2.2
    assert np.allclose(basis.modes.T @ basis.modes, np.eye(2), atol=1e-12)


def test_huge_budget_still_keeps_one_mode():
    x = matrix_with_spectrum([3.0, 2.0, 1.0])
    assert pod_basis(x, 1e9, mode="absolute").order == 1


def test_sweep_shares_one_decomposition():
    x = matrix_with_spectrum([5.0, 1.0, 0.1])
    bases = pod_sweep(x, [3.0, 0.5, 0.05], mode="absolute")
    assert [b.order for b in bases] == [1, 2, 3]
    # coarser basis is a prefix of the finer one
    assert np.allclose(bases[0].modes, bases[2].modes[:, :1])


def test_pod_rejects_degenerate_inputs():
    x = matrix_with_spectrum([3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        pod_basis(np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError):
        pod_basis(x, -0.1)
    with pytest.raises(ValueError):
        pod_sweep(x, [0.1], mode="fraction")


def test_projection_error_meets_tail_bound():
    x = matrix_with_spectrum([4.0, 2.0, 0.3, 0.01], shape=(8, 6), seed=3)
    for budget in (1e-1, 1e-2, 1e-3):
        basis = pod_basis(x, budget, mode="relative")
        q = basis.modes
        err = np.linalg.norm(x - q @ (q.T @ x))
        assert err <= basis.discarded_energy + 1e-10 * np.linalg.norm(x)


@given(st.integers(0, 10_000), st.sampled_from([1e-1, 1e-2, 1e-4, 1e-6]))
@settings(max_examples=40, deadline=None)
def test_minimality_property(seed, budget):
    x = np.random.default_rng(seed).standard_normal((7, 6))
    basis = pod_basis(x, budget, mode="relative")
    s = np.linalg.svd(x, compute_uv=False)
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[k] drops modes k..end
    threshold = budget * np.linalg.norm(x)
    n = basis.order
    if n < len(s):
        assert tails[n] <= threshold
    if n > 1:
        # one fewer mode must violate the budget
        assert tails[n - 1] > threshold


def graded_matrix(shape=(400, 401), seed=5):
    # sigma_k = 10^(-k/8): the values fall below the machine-rank floor
    # near k = 104, so the range finder stops well short of min(shape)/2
    k = np.arange(min(shape))
    return matrix_with_spectrum(10.0 ** (-k / 8.0), shape=shape, seed=seed)


GRADED_BUDGETS = [10.0**-j for j in range(1, 13)]


def test_range_finder_matches_the_dense_svd_on_a_graded_spectrum(monkeypatch):
    x = graded_matrix()
    u, s, _ = np.linalg.svd(x)
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    expected = [int(np.argmax(tails <= b)) for b in GRADED_BUDGETS]

    def no_dense_svd(*args, **kwargs):
        raise AssertionError("pod_sweep fell back to the dense SVD")

    monkeypatch.setattr(pod, "truncated_svd", no_dense_svd)
    bases = pod_sweep(x, GRADED_BUDGETS, mode="absolute")
    assert [b.order for b in bases] == expected

    finest = bases[-1]
    n = finest.order
    assert np.max(np.abs(finest.retained_singular_values - s[:n])) <= 1e-12 * s[0]
    q = finest.modes
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12
    norm = np.linalg.norm(x)
    for basis in bases:
        q = basis.modes
        err = np.linalg.norm(x - q @ (q.T @ x))
        assert err <= basis.discarded_energy + 1e-12 * norm
    # nested bases, and the modes span the dense singular subspaces
    assert np.array_equal(bases[0].modes, finest.modes[:, : bases[0].order])
    k = bases[0].order
    cosines = np.linalg.svd(u[:, :k].T @ bases[0].modes, compute_uv=False)
    assert np.min(cosines) == pytest.approx(1.0, abs=1e-12)


def test_range_finder_is_reproducible():
    x = graded_matrix(seed=6)
    first = pod_sweep(x, GRADED_BUDGETS[-1:])[0].modes
    second = pod_sweep(x, GRADED_BUDGETS[-1:])[0].modes
    assert np.array_equal(first.view(np.uint64), second.view(np.uint64))


def test_range_finder_holds_one_array_the_size_of_the_snapshots(traced_peak):
    # the residual is the only full-size array: it is deflated in place and
    # released before the final SVD
    x = matrix_with_spectrum(np.logspace(0, -3, 20), shape=(600, 601), seed=3)
    bases, peak = traced_peak(pod_sweep, x, [1e-1, 1e-8], mode="absolute")
    assert bases[-1].order == 20
    assert peak < 1.5 * x.nbytes


@pytest.mark.parametrize("shape", [(60, 50), (200, 150)])
def test_full_rank_matrix_falls_back_to_the_dense_svd(shape):
    # (60, 50): the first block already reaches min(shape)/2; (200, 150):
    # the second block would
    x = np.random.default_rng(8).standard_normal(shape)
    for budget in (1e-1, 1e-3):
        swept = pod_sweep(x, [budget])[0]
        dense = pod_basis(x, budget)
        assert np.array_equal(swept.modes, dense.modes)
        assert np.array_equal(swept.retained_singular_values, dense.retained_singular_values)


def test_sweep_checks_its_input_before_factoring(monkeypatch):
    def no_factorization(*args, **kwargs):
        raise AssertionError("the snapshot matrix was factored")

    monkeypatch.setattr(pod, "_range_finder_svd", no_factorization)
    monkeypatch.setattr(pod, "truncated_svd", no_factorization)
    x = graded_matrix()
    with pytest.raises(ValueError, match="nonnegative"):
        pod_sweep(x, [1e-2, -1e-3, 1e-4])
    with pytest.raises(ValueError, match="nonnegative"):
        pod_basis(x, -1e-3)
    with pytest.raises(ValueError, match="nonnegative"):
        pod_basis(x, float("nan"))
    x[17, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        pod_sweep(x, [1e-2])
    x[17, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        pod_sweep(x, [1e-2])
