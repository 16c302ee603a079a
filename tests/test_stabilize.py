"""Exact-penalty stabilization: analytic scalar cases, report contracts."""

import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iodmd.identify import StateSpaceModel, fit_iodmd
from iodmd.linalg import spectral_radius
from iodmd.snapshot import SnapshotPairs
from iodmd.stabilize import (
    _MEMO_SIZE,
    _MEMORY,
    NotStabilizedError,
    StabilizeReport,
    _InverseHessian,
    _line_search,
    _modulus_clip_shift,
    check_tau,
    save_report_json,
    stabilize,
)

# the package re-exports the function stabilize over its module name
stabilize_module = importlib.import_module("iodmd.stabilize")


def scalar_model(a_value=1.05):
    return StateSpaceModel(a=[[a_value]])


def closest_model_pairs(model):
    """Identity snapshots: the data misfit becomes the distance to the model."""
    n, m = model.order, model.n_inputs
    z0, eye = model.blocks(), np.eye(n + m)
    return SnapshotPairs(x0=eye[:n], x1=z0[:n], u0=eye[n:], y0=z0[n:])


def autonomous_pairs(a_value, k=20):
    x0 = np.ones((1, k))
    return SnapshotPairs(x0=x0, x1=a_value * x0)


def noisy_unstable_fit(seed, order=5, k=60, rho_target=1.3):
    """An unstable model with a strictly positive data misfit."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((order, k))
    u0 = rng.standard_normal((1, k))
    a_true = rng.standard_normal((order, order))
    a_true *= 0.7 / spectral_radius(a_true)
    x1 = a_true @ x0 + rng.standard_normal((order, 1)) @ u0
    x1 += 0.05 * rng.standard_normal(x1.shape)
    y0 = rng.standard_normal((1, order)) @ x0
    pairs = SnapshotPairs(x0=x0, x1=x1, u0=u0, y0=y0)
    model = fit_iodmd(pairs)
    model.a *= rho_target / spectral_radius(model.a)  # push it outside the disk
    return model, pairs


def tied_rotation_model(rho=1.2):
    """Two 2x2 rotation blocks scaled to rho: four eigenvalues tied in modulus."""
    blocks = []
    for angle in (0.3, 1.0):
        c, s = np.cos(angle), np.sin(angle)
        blocks.append(rho * np.array([[c, -s], [s, c]]))
    a = np.block([[blocks[0], np.zeros((2, 2))], [np.zeros((2, 2)), blocks[1]]])
    return StateSpaceModel(a=a, b=np.ones((4, 1)), c=np.ones((1, 4)))


def data_misfit(model, pairs):
    data = np.vstack([pairs.x0, pairs.u0]) if pairs.n_inputs else pairs.x0
    target = (
        np.vstack([pairs.x1, pairs.y0]) if pairs.n_outputs else pairs.x1
    )
    return float(np.sum((model.blocks() @ data - target) ** 2))


def test_already_stable_model_is_returned_unchanged():
    model = scalar_model(0.5)
    out, report = stabilize(model, autonomous_pairs(0.5))
    assert np.array_equal(out.a, model.a)
    assert report.iterations_total == 0
    assert report.iterations_to_first_stable == 0
    assert report.final_objective_ratio == 1.0
    assert report.relative_model_change == 0.0
    assert report.converged


def test_scalar_model_fit_reaches_the_boundary_from_above():
    # constrained optimum of (a - 1.05)^2 over |a| < 1 sits at a -> 1 from below
    model = scalar_model()
    out, report = stabilize(model, closest_model_pairs(model))
    a_s = out.a[0, 0]
    assert 1.0 - 1e-6 <= a_s < 1.0
    assert report.final_spectral_radius == pytest.approx(a_s)
    assert report.iterations_total >= 1
    assert report.iterations_to_first_stable >= 1


def test_scalar_data_fit_with_exact_data():
    # data generated by a = 1.05 exactly: zero initial misfit, so the budget
    # is zero and converged must stay False even though the repair succeeds
    out, report = stabilize(scalar_model(), autonomous_pairs(1.05))
    a_s = out.a[0, 0]
    assert 1.0 - 1e-6 <= a_s < 1.0
    assert np.isinf(report.final_objective_ratio)
    assert not report.converged


def test_tau_moves_the_boundary():
    model = scalar_model(1.2)
    out, report = stabilize(model, closest_model_pairs(model), tau=0.25)
    a_s = out.a[0, 0]
    assert 0.75 - 1e-6 <= a_s < 0.75
    assert report.final_spectral_radius < 0.75


def test_model_fit_moves_only_the_offending_eigenvalue():
    model = StateSpaceModel(a=np.diag([1.5, 0.5]))
    out, report = stabilize(model, closest_model_pairs(model))
    assert spectral_radius(out.a) < 1.0
    assert out.a[0, 0] == pytest.approx(1.0, abs=1e-3)
    assert out.a[1, 1] == pytest.approx(0.5, abs=1e-3)
    # optimal change clips one eigenvalue: |delta| ~ 0.5 over ||Z|| ~ 1.58
    assert report.relative_model_change <= 0.35


def test_closest_model_repair_moves_only_the_a_block():
    # the distance to the model has zero gradient in B, C and D, and the
    # penalty acts on A alone, so those blocks come back bit for bit
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    model = StateSpaceModel(
        a=a * (1.4 / spectral_radius(a)),
        b=rng.standard_normal((4, 2)),
        c=rng.standard_normal((3, 4)),
        d=rng.standard_normal((3, 2)),
    )
    out, report = stabilize(model, closest_model_pairs(model))
    assert spectral_radius(out.a) < 1.0
    for name in ("b", "c", "d"):
        assert np.array_equal(getattr(out, name), getattr(model, name)), name
    change = np.linalg.norm(out.a - model.a) / np.linalg.norm(model.blocks())
    assert report.relative_model_change == pytest.approx(change, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_data_fit_repairs_noisy_unstable_model(seed):
    model, pairs = noisy_unstable_fit(seed)
    f0 = data_misfit(model, pairs)
    assert f0 > 0.0
    out, report = stabilize(model, pairs)
    rho = spectral_radius(out.a)
    assert rho < 1.0 - 1e-12
    assert report.final_spectral_radius == pytest.approx(rho, abs=1e-9)
    f_final = data_misfit(out, pairs)
    assert report.final_objective_ratio == pytest.approx(f_final / f0, rel=1e-9)
    z0, z = model.blocks(), out.blocks()
    change = np.linalg.norm(z - z0) / np.linalg.norm(z0)
    assert report.relative_model_change == pytest.approx(change, rel=1e-9)
    assert report.converged
    assert f_final <= 1000.0 * f0
    assert 1 <= report.iterations_to_first_stable <= report.iterations_total


def test_solver_is_deterministic():
    model, pairs = noisy_unstable_fit(2)
    out_a, rep_a = stabilize(model, pairs)
    out_b, rep_b = stabilize(model, pairs)
    assert np.array_equal(out_a.blocks(), out_b.blocks())
    assert rep_a == rep_b


def test_input_validation():
    model = scalar_model()
    continuous = StateSpaceModel(a=[[1.05]], time_domain="continuous")
    with pytest.raises(ValueError):
        stabilize(continuous, autonomous_pairs(1.05))
    wrong_dim = SnapshotPairs(x0=np.ones((2, 4)), x1=np.ones((2, 4)))
    with pytest.raises(ValueError, match=r"\(2, 0, 0\), the model has \(1, 0, 0\)"):
        stabilize(model, wrong_dim)
    with_inputs = StateSpaceModel(a=[[1.05]], b=[[1.0]])
    with pytest.raises(ValueError, match=r"\(1, 0, 0\), the model has \(1, 1, 0\)"):
        stabilize(with_inputs, autonomous_pairs(1.05))  # pairs carry no inputs


@pytest.mark.parametrize("where", ["a", "d", "x1", "y0"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_inputs_stop_before_the_first_iteration(monkeypatch, where, value):
    def never(a):
        raise AssertionError("the solve started")

    monkeypatch.setattr(stabilize_module, "spectral_radius", never)
    model, pairs = noisy_unstable_fit(0)
    getattr(model if where in ("a", "d") else pairs, where)[0, 0] = value
    with pytest.raises(ValueError, match="non-finite"):
        stabilize(model, pairs)


def test_a_solve_that_never_gets_inside_raises_with_its_closest_attempt(monkeypatch):
    # every radius the solve sees is at least 1.5, so no iterate is stable
    monkeypatch.setattr(
        stabilize_module, "spectral_radius", lambda a: max(spectral_radius(a), 1.5)
    )
    model, pairs = noisy_unstable_fit(0)
    with pytest.raises(
        NotStabilizedError, match="no iterate reached spectral radius below 1.0"
    ) as exc:
        stabilize(model, pairs)
    report = exc.value.report
    assert not report.converged
    assert report.final_spectral_radius >= 1.5
    assert report.iterations_to_first_stable == -1
    assert exc.value.model.order == model.order


def test_config_validation():
    assert check_tau(0.25) == 0.25
    for tau in (1.0, float("nan"), -0.1):
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\)"):
            check_tau(tau)
        # stabilize checks tau before it reads the model or the data
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\)"):
            stabilize(None, None, tau)


def test_report_json_roundtrip(tmp_path):
    report = StabilizeReport(
        iterations_total=7,
        iterations_to_first_stable=3,
        final_objective_ratio=1.25,
        final_spectral_radius=0.99,
        relative_model_change=0.01,
        converged=True,
    )
    path = tmp_path / "report.json"
    save_report_json(report, path)
    expected = {
        "iterations_total": 7,
        "iterations_to_first_stable": 3,
        "final_objective_ratio": 1.25,
        "final_spectral_radius": 0.99,
        "relative_model_change": 0.01,
        "converged": True,
    }
    assert json.loads(path.read_text()) == expected
    # the field order of the report is the key order of the file
    assert path.read_text() == json.dumps(expected, indent=1) + "\n"


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_model_fit_always_lands_inside_the_disk(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    rho0 = spectral_radius(a)
    if rho0 == 0.0:
        return
    a *= float(rng.uniform(1.05, 2.0)) / rho0
    model = StateSpaceModel(a=a)
    out, report = stabilize(model, closest_model_pairs(model))
    assert spectral_radius(out.a) < 1.0 - 1e-12
    assert report.final_spectral_radius < 1.0 - 1e-12
    assert 0.0 < report.relative_model_change <= 1.0


def test_modulus_clip_lands_the_spectrum_on_the_target():
    # The clip is the solver's last escape step: it must contract rho onto
    # the target (up to rounding far inside the 0.99 margin the solver
    # leaves), including where the outer eigenvalues are complex pairs.
    target = 0.9
    complex_outer = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6))
        a *= float(rng.uniform(1.2, 3.0)) / spectral_radius(a)
        lam = np.linalg.eigvals(a)
        complex_outer += bool(lam[np.argmax(np.abs(lam))].imag != 0.0)
        shift = _modulus_clip_shift(a, target)
        assert shift is not None and np.isrealobj(shift)
        assert spectral_radius(a + shift) < target / 0.99, seed
        inside = a * (0.5 * target / spectral_radius(a))
        assert _modulus_clip_shift(inside, target) is None
    assert complex_outer > 50


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pullback_returns_the_stable_point_nearest_the_fit(seed):
    # The polish pulls the repair back toward the fit along the segment
    # between them as far as stability allows: the returned A sits on the
    # boundary, and a step of 0.1% further back leaves the disk.  Without
    # the pullback rho(A) lands between 0.49 and 0.92 on these fits.
    model, pairs = noisy_unstable_fit(seed)
    out, _ = stabilize(model, pairs)
    assert 1.0 - 1e-6 <= spectral_radius(out.a) < 1.0
    z0 = model.blocks()
    back = z0 + 0.999 * (out.blocks() - z0)
    assert spectral_radius(back[: model.order, : model.order]) > 1.0


def test_line_search_takes_a_strict_decrease_the_slope_overstates():
    # At a kink the claimed slope (-1) promises far more decrease than phi
    # gives (-1e-6 per unit step), so no step meets the Armijo condition;
    # the strict-decrease pass still takes the unit step, which lowers phi.
    t, phi_t, ok = _line_search(lambda t: 1.0 - 1e-6 * t, lambda t: -1e-6, 1.0, -1.0)
    assert (t, phi_t, ok) == (1.0, 0.999999, True)


def textbook_bfgs_update(h, s, y):
    """Dense inverse-Hessian BFGS update through full n x n outer products."""
    sy = float(s @ y)
    hy = h @ y
    yhy = float(y @ hy)
    h += ((sy + yhy) / sy**2) * np.outer(s, s)
    cross = np.outer(hy, s) / sy
    h -= cross + cross.T


def dense_inverse_hessian(pairs, n):
    """BFGS matrix from scale * I, scale from the newest pair, over pairs in order."""
    s_new, y_new = pairs[-1]
    h = (float(s_new @ y_new) / float(y_new @ y_new)) * np.eye(n)
    for s, y in pairs:
        textbook_bfgs_update(h, s, y)
    return h


def test_two_loop_recursion_matches_the_dense_bfgs_matrix():
    n = 50
    rng = np.random.default_rng(0)
    hessian = _InverseHessian()
    pairs = []
    for _ in range(_MEMORY + 1):
        s = rng.standard_normal(n)
        y = s + 0.3 * rng.standard_normal(n)
        assert hessian.update(s, y)
        pairs.append((s, y))
        g = rng.standard_normal(n)
        # the pair past the history length evicts the oldest
        kept = dense_inverse_hessian(pairs[-_MEMORY:], n)
        assert np.allclose(hessian.apply(g), kept @ g)
    assert not np.allclose(hessian.apply(g), dense_inverse_hessian(pairs, n) @ g)


@pytest.mark.parametrize("rho_target", [1.3, 5.0])
def test_no_a_block_is_decomposed_twice_within_the_memo_bound(
    monkeypatch, rho_target
):
    seen = {"spectral_radius": [], "spectral_radius_gradient": []}

    def recording(name):
        original = getattr(stabilize_module, name)

        def record(a):
            seen[name].append((a.shape, a.tobytes()))
            return original(a)

        return record

    for name in seen:
        monkeypatch.setattr(stabilize_module, name, recording(name))
    model, pairs = noisy_unstable_fit(0, rho_target=rho_target)
    stabilize(model, pairs)
    for name, keys in seen.items():
        assert keys, name
        for i, key in enumerate(keys):
            assert key not in keys[max(0, i - _MEMO_SIZE) : i], (name, i)


def test_back_to_back_solves_match_solo_solves():
    # both models have order 5, so a memo that outlived one solve or keyed
    # on less than the block's bytes would feed one model the other's radii
    problems = [noisy_unstable_fit(3), noisy_unstable_fit(4)]
    first = [stabilize(model, pairs) for model, pairs in problems]
    again = [stabilize(model, pairs) for model, pairs in reversed(problems)][::-1]
    for (out_a, rep_a), (out_b, rep_b) in zip(first, again):
        assert np.array_equal(out_a.blocks(), out_b.blocks())
        assert rep_a == rep_b


def test_tied_unstable_moduli_are_repaired():
    model = tied_rotation_model()
    out, report = stabilize(model, closest_model_pairs(model))
    rho = spectral_radius(out.a)
    assert rho < 1.0 - 1e-12
    assert report.final_spectral_radius == pytest.approx(rho, abs=1e-9)
    # about as close as rescaling A onto the unit circle, the repair that
    # moves all four tied eigenvalues the same way
    rescale = np.linalg.norm(model.a) * (1.0 - 1.0 / 1.2) / np.linalg.norm(model.blocks())
    assert report.relative_model_change <= 1.05 * rescale


def test_repair_never_needs_the_tied_gradients(monkeypatch):
    def unused(*args):
        raise AssertionError("tied-modulus gradients were computed")

    monkeypatch.setattr(stabilize_module, "_tied_modulus_gradients", unused)
    tied = tied_rotation_model()
    for model, pairs in (noisy_unstable_fit(0), (tied, closest_model_pairs(tied))):
        out, _ = stabilize(model, pairs)
        assert spectral_radius(out.a) < 1.0
