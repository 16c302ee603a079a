"""Certified stabilization: analytic scalar cases, the certificate, report contracts."""

from dataclasses import replace
import importlib

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from iodmd.excite import ExcitationSpec, generate_excitation
from iodmd.identify import StateSpaceModel, fit_iodmd, fit_reduced_iodmd
from iodmd.linalg import spectral_radius
from iodmd.plant import build_transport_plant
from iodmd.pod import pod_sweep
from iodmd.snapshot import SnapshotPairs, make_pairs, project_pairs
from iodmd.stabilize import (
    NotStabilizedError,
    check_tau,
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
    assert report.final_objective_ratio == 1.0
    assert report.relative_model_change == 0.0
    assert report.primal_residual == report.dual_residual == 0.0
    assert np.isnan(report.objective) and np.isnan(report.objective_halfway)

    # a 5-state fit from 3 pairs is underdetermined; with a basis attached,
    # the stable fit and its repair both keep the flag and the basis
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 4))
    pairs = SnapshotPairs(x0=x[:, :-1], x1=x[:, 1:])
    basis = np.eye(7)[:, :5]
    fit = replace(fit_iodmd(pairs), basis=basis)
    assert fit.underdetermined and spectral_radius(fit.a) < 1.0
    unstable = replace(fit, a=fit.a * (1.5 / spectral_radius(fit.a)))
    for model, pairs in ((fit, pairs), (unstable, closest_model_pairs(unstable))):
        out, _ = stabilize(model, pairs)
        assert out.underdetermined
        assert np.array_equal(out.basis, basis)


def test_scalar_model_fit_reaches_the_boundary_from_above():
    # constrained optimum of (a - 1.05)^2 over |a| < 1 sits at a -> 1 from below
    model = scalar_model()
    out, report = stabilize(model, closest_model_pairs(model))
    a_s = out.a[0, 0]
    assert 1.0 - 1e-6 <= a_s < 1.0
    assert report.final_spectral_radius == pytest.approx(a_s)
    assert report.iterations_total >= 1


def test_scalar_data_fit_with_exact_data():
    # data generated by a = 1.05 exactly: zero initial misfit, so the misfit
    # term drops out, the repair is the clip onto the bound, and any change
    # is an infinite misfit ratio
    out, report = stabilize(scalar_model(), autonomous_pairs(1.05))
    a_s = out.a[0, 0]
    assert 1.0 - 1e-6 <= a_s < 1.0
    assert report.certificate == pytest.approx(a_s, rel=1e-15)
    assert np.isinf(report.final_objective_ratio)


@pytest.mark.parametrize("seed", range(4))
def test_noise_free_fit_is_repaired_as_an_exact_fit(seed):
    # exact data leave a misfit of rounding noise, not 0; counted as 0, it
    # drops out as for identity pairs instead of swamping the ADMM penalty
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    a *= 1.2 / spectral_radius(a)
    b, c = rng.standard_normal((4, 2)), rng.standard_normal((1, 4))
    x0, u0 = rng.standard_normal((4, 30)), rng.standard_normal((2, 30))
    pairs = SnapshotPairs(x0=x0, x1=a @ x0 + b @ u0, u0=u0, y0=c @ x0)
    model = fit_iodmd(pairs)
    assert 0.0 < data_misfit(model, pairs)
    _, report = stabilize(model, pairs)
    _, closest = stabilize(model, closest_model_pairs(model))
    assert report.primal_residual < 1e-10
    assert np.isinf(report.final_objective_ratio)
    assert report.final_objective_ratio == closest.final_objective_ratio


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
    # B re-solved against identity pairs is the model's own B, and C and D
    # stay as fitted, so those blocks come back bit for bit
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
    # an exact fit drops the misfit term: J is gamma ||A - A0||_F^2 / ||A0||_F^2
    distance = 100.0 * np.sum((out.a - model.a) ** 2) / np.sum(model.a**2)
    assert report.objective == pytest.approx(distance, rel=1e-9)


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
    assert f_final <= 1000.0 * f0
    assert report.iterations_total >= 1
    assert report.primal_residual >= 0.0 and report.dual_residual >= 0.0


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
    sparse_a = StateSpaceModel(a=sparse.csc_array(1.1 * np.eye(2)), b=np.ones((2, 1)))
    pairs = SnapshotPairs(x0=np.eye(2, 3), x1=1.1 * np.eye(2, 3), u0=np.ones((1, 3)))
    with pytest.raises(ValueError, match="block A is sparse; stabilize needs a dense A"):
        stabilize(sparse_a, pairs)


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
    # every radius the final check sees is at least 1.5, so the repair fails
    monkeypatch.setattr(
        stabilize_module, "spectral_radius", lambda a: max(spectral_radius(a), 1.5)
    )
    model, pairs = noisy_unstable_fit(0)
    with pytest.raises(
        NotStabilizedError, match=r"repaired spectral radius 1\.5 is not below 1\.0"
    ) as exc:
        stabilize(model, pairs)
    report = exc.value.report
    assert report.final_spectral_radius >= 1.5
    # the attached model is the repair itself, certified though the check failed
    assert report.certificate <= 1.0 - 1e-7
    assert spectral_radius(exc.value.model.a) < 1.0
    assert exc.value.model.order == model.order


def test_tau_validation():
    assert check_tau(0.25) == 0.25
    for tau in (1.0, float("nan"), -0.1):
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\)"):
            check_tau(tau)
        # stabilize checks tau before it reads the model or the data
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\)"):
            stabilize(None, None, tau)


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


def whitened_norm(model, pairs):
    """||S A S^-1||_2 with S = diag(1/s), s the row norms of x0 (zero taken as 1)."""
    s = np.linalg.norm(pairs.x0, axis=1)
    s[s == 0.0] = 1.0
    return float(np.linalg.norm(model.a / s[:, None] * s[None, :], 2))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, "tied"])
def test_repair_is_certified_on_the_boundary(seed):
    # every iterate of the solve meets ||S A S^-1||_2 <= c, and a fit outside
    # the bound is repaired onto it, not deeper inside
    if seed == "tied":
        model = tied_rotation_model()
        pairs = closest_model_pairs(model)
    else:
        model, pairs = noisy_unstable_fit(seed)
    out, report = stabilize(model, pairs)
    c = 1.0 - 1e-7
    certificate = whitened_norm(out, pairs)
    assert c - 1e-12 <= certificate <= c
    assert report.certificate == certificate
    assert report.final_spectral_radius < 1.0 - 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_closest_model_repair_is_the_svd_clip(seed):
    # identity pairs fit the model exactly and have S = I, so the repair is
    # the nearest A with ||A||_2 <= c: the singular values clipped at c
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5))
    model = StateSpaceModel(
        a=a * (1.3 / spectral_radius(a)), b=rng.standard_normal((5, 2))
    )
    out, report = stabilize(model, closest_model_pairs(model))
    u, sv, vt = np.linalg.svd(model.a)
    clipped = (u * np.minimum(sv, 1.0 - 1e-7)) @ vt
    assert np.max(np.abs(out.a - clipped)) <= 1e-12
    assert np.array_equal(out.b, model.b)


@pytest.fixture(scope="module")
def noise_fits():
    """The benchmark sweep's pe_noise fits at budgets 1e-2, 1e-3 and 1e-4,
    built as the sweep builds them: one projection onto the widest basis,
    sliced."""
    plant = build_transport_plant(1.3, 1e-3)
    spec = ExcitationSpec(kind="pe_gaussian_noise", seed=42)
    traj = generate_excitation(plant, spec, 1.0, 1e-3)
    budgets = (1e-2, 1e-3, 1e-4)
    bases = pod_sweep(traj.states, budgets, mode="absolute")
    projected = project_pairs(make_pairs(traj), bases[-1].modes)
    fits = {}
    for budget, basis in zip(budgets, bases):
        n = basis.order
        pairs = replace(projected, x0=projected.x0[:n], x1=projected.x1[:n])
        fits[budget] = fit_reduced_iodmd(pairs, basis), pairs
    return fits


@pytest.mark.parametrize("budget", [1e-2, 1e-4])
def test_repair_is_stable_under_rounding_of_the_fit(noise_fits, budget):
    # A0 times 1 + 1e-14 N(0, 1) entrywise is the same fit up to rounding,
    # so its repair must be the same up to rounding too
    model, pairs = noise_fits[budget]
    assert spectral_radius(model.a) >= 1.0
    rng = np.random.default_rng(7)
    nudged = replace(model, a=model.a * (1.0 + 1e-14 * rng.standard_normal(model.a.shape)))
    _, report = stabilize(model, pairs)
    _, nudged_report = stabilize(nudged, pairs)
    for name in ("relative_model_change", "final_objective_ratio"):
        value, nudged_value = getattr(report, name), getattr(nudged_report, name)
        assert nudged_value == pytest.approx(value, rel=1e-6), name


@pytest.mark.parametrize("budget", [1e-3, 1e-4])
def test_repair_reaches_its_optimum_within_its_steps(monkeypatch, noise_fits, budget):
    # orders 63 and 69: J of the repair is within 1e-5 of J after 4000
    # steps, which stands in for the optimum J*
    model, pairs = noise_fits[budget]
    _, report = stabilize(model, pairs)
    monkeypatch.setattr(stabilize_module, "_ITERATIONS", 4000)
    _, converged = stabilize(model, pairs)
    assert report.objective - converged.objective <= 1e-5
    assert converged.objective <= report.objective_halfway


def test_each_repair_factors_its_row_systems_once(monkeypatch, noise_fits):
    # the ADMM penalty is fixed per solve, so the row systems of a repair are
    # inverted as one batch before the first step, and a stable model
    # inverts nothing
    inv, shapes = np.linalg.inv, []

    def counted(a):
        shapes.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    tied = tied_rotation_model()
    cases = [
        (*noise_fits[1e-2], 1),
        (tied, closest_model_pairs(tied), 1),
        (scalar_model(0.5), autonomous_pairs(0.5), 0),
    ]
    for model, pairs, expected in cases:
        shapes.clear()
        stabilize(model, pairs)
        assert shapes == [(model.order,) * 3] * expected


def test_back_to_back_solves_match_solo_solves():
    # both models have order 5, so spectral data that outlived one solve
    # would feed one model the other's radii
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
