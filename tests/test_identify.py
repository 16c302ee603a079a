"""Least-squares identification against closed-form and lstsq oracles."""

import json

import numpy as np
import pytest

from iodmd.identify import (
    DegenerateDataError,
    StateSpaceModel,
    fit_dmd,
    fit_iodmd,
    fit_reduced_iodmd,
    load_model_json,
    save_model_json,
    to_continuous,
)
from iodmd.linalg import Tolerances
from iodmd.pod import PodBasis, pod_basis
from iodmd.snapshot import SnapshotPairs, TrajectoryData, make_pairs, project_pairs
from iodmd.plant import simulate_discrete


def random_system(seed, n=4, m=2, q=1, rho=0.8):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= rho / np.max(np.abs(np.linalg.eigvals(a)))
    return StateSpaceModel(
        a=a,
        b=rng.standard_normal((n, m)),
        c=rng.standard_normal((q, n)),
        d=rng.standard_normal((q, m)),
        step_width=1.0,
    )


def pairs_from(system, seed, k=60):
    rng = np.random.default_rng(seed + 1)
    u = rng.standard_normal((system.n_inputs, k))
    traj = simulate_discrete(system, u, x0=rng.standard_normal(system.order))
    return make_pairs(traj)


def test_iodmd_recovers_all_blocks_exactly():
    for seed in range(3):
        system = random_system(seed)
        fitted = fit_iodmd(pairs_from(system, seed), Tolerances())
        assert np.linalg.norm(fitted.a - system.a) < 1e-10
        assert np.linalg.norm(fitted.b - system.b) < 1e-10
        assert np.linalg.norm(fitted.c - system.c) < 1e-10
        assert np.linalg.norm(fitted.d - system.d) < 1e-10
        assert not fitted.underdetermined
        assert fitted.step_width == 1.0


def test_dmdc_recovers_state_equation():
    # DMD with control is the ioDMD solve on pairs without outputs
    system = random_system(11)
    full = pairs_from(system, 11)
    pairs = SnapshotPairs(x0=full.x0, x1=full.x1, u0=full.u0)
    fitted = fit_iodmd(pairs, Tolerances())
    oracle = pairs.x1 @ np.linalg.pinv(np.vstack([pairs.x0, pairs.u0]))
    assert np.allclose(fitted.blocks(), oracle, atol=1e-10)
    assert np.linalg.norm(fitted.a - system.a) < 1e-10
    assert np.linalg.norm(fitted.b - system.b) < 1e-10
    assert fitted.n_outputs == 0


def test_iodmd_minimizes_least_squares_on_noisy_data():
    # with inconsistent data the fit must still satisfy the normal equations
    system = random_system(7)
    pairs = pairs_from(system, 7)
    rng = np.random.default_rng(99)
    noisy = SnapshotPairs(
        x0=pairs.x0,
        x1=pairs.x1 + 0.1 * rng.standard_normal(pairs.x1.shape),
        u0=pairs.u0,
        y0=pairs.y0,
        step_width=pairs.step_width,
    )
    fitted = fit_iodmd(noisy, Tolerances())
    data = np.vstack([noisy.x0, noisy.u0])
    target = np.vstack([noisy.x1, noisy.y0])
    residual = fitted.blocks() @ data - target
    assert np.linalg.norm(residual @ data.T) < 1e-8


def test_iodmd_underdetermined_takes_minimum_norm_solution():
    system = random_system(3)
    pairs = pairs_from(system, 3, k=5)  # 4 pairs for 6 data rows
    fitted = fit_iodmd(pairs, Tolerances())
    assert fitted.underdetermined
    data = np.vstack([pairs.x0, pairs.u0])
    target = np.vstack([pairs.x1, pairs.y0])
    oracle = target @ np.linalg.pinv(data)
    assert np.allclose(fitted.blocks(), oracle, atol=1e-9)


def test_truncation_eps_matches_manual_svd_oracle():
    system = random_system(5)
    pairs = pairs_from(system, 5)
    data = np.vstack([pairs.x0, pairs.u0])
    target = np.vstack([pairs.x1, pairs.y0])
    u, s, vt = np.linalg.svd(data, full_matrices=False)
    eps = float(s[3])  # keep exactly three singular values
    fitted = fit_iodmd(pairs, Tolerances(svd_truncation_eps=eps * 1.0000001))
    oracle = (target @ vt[:3].T) / s[:3] @ u[:, :3].T
    assert np.allclose(fitted.blocks(), oracle, atol=1e-9)
    assert fitted.underdetermined


def test_plain_dmd_recovers_spectrum_from_autonomous_data():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    x = np.empty((4, 30))
    x[:, 0] = rng.standard_normal(4)
    for k in range(29):
        x[:, k + 1] = a @ x[:, k]
    traj = TrajectoryData(states=x)
    model = fit_dmd(make_pairs(traj), Tolerances())
    assert model.order == 4
    lifted = model.basis @ model.a @ model.basis.T
    assert np.linalg.norm(lifted - a) < 1e-8
    got = np.sort_complex(np.linalg.eigvals(model.a))
    want = np.sort_complex(np.linalg.eigvals(a))
    assert np.allclose(got, want, atol=1e-8)


def test_fit_dmd_degenerate_data():
    with pytest.raises(DegenerateDataError):
        fit_dmd(SnapshotPairs(x0=np.zeros((2, 3)), x1=np.zeros((2, 3))), Tolerances())
    pairs = SnapshotPairs(x0=np.ones((2, 3)), x1=np.ones((2, 3)))
    with pytest.raises(DegenerateDataError):
        fit_dmd(pairs, Tolerances(svd_truncation_eps=1e9))


def test_iodmd_fits_autonomous_pairs():
    # no inputs and no outputs: the solve is x1 @ pinv(x0)
    rng = np.random.default_rng(17)
    pairs = SnapshotPairs(x0=rng.standard_normal((3, 8)), x1=rng.standard_normal((3, 8)))
    fitted = fit_iodmd(pairs, Tolerances())
    assert np.allclose(fitted.a, pairs.x1 @ np.linalg.pinv(pairs.x0), atol=1e-12)
    assert (fitted.n_inputs, fitted.n_outputs) == (0, 0)
    assert not fitted.underdetermined


def test_reduced_iodmd_reproduces_projected_dynamics():
    system = random_system(21, n=6, m=1, q=1)
    pairs = pairs_from(system, 21, k=80)
    basis = pod_basis(pairs.x0, 1e-12, mode="relative")
    model = fit_reduced_iodmd(project_pairs(pairs, basis.modes), basis, Tolerances())
    assert model.order == basis.order
    assert model.basis is basis.modes
    q = basis.modes
    residual = model.a @ (q.T @ pairs.x0) + model.b @ pairs.u0 - q.T @ pairs.x1
    # full-rank reduced data: the projected one-step map is matched exactly
    assert np.linalg.norm(residual) < 1e-8


def test_reduced_iodmd_rejects_non_orthonormal_basis():
    system = random_system(2)
    pairs = pairs_from(system, 2)
    basis = pod_basis(pairs.x0, 1e-6)
    basis.modes = 2.0 * basis.modes
    with pytest.raises(ValueError, match="not orthonormal"):
        fit_reduced_iodmd(project_pairs(pairs, basis.modes), basis, Tolerances())


def test_reduced_iodmd_needs_pairs_in_basis_coordinates():
    # full-order pairs next to a reduced basis: one state row per basis column
    system = random_system(3, n=6)
    pairs = pairs_from(system, 3)
    basis = pod_basis(pairs.x0, 1e-1)
    assert 0 < basis.order < pairs.n_states
    with pytest.raises(ValueError, match=f"6 states, the basis has {basis.order} columns"):
        fit_reduced_iodmd(pairs, basis, Tolerances())
    fewer = project_pairs(pairs, basis.modes[:, :-1])
    with pytest.raises(ValueError, match=f"{basis.order - 1} states, the basis has {basis.order} columns"):
        fit_reduced_iodmd(fewer, basis, Tolerances())
    empty = PodBasis(np.zeros((6, 0)), np.zeros(0), 0.0, 0.0)
    with pytest.raises(ValueError, match="0 states, the basis has 0 columns"):
        fit_reduced_iodmd(project_pairs(pairs, empty.modes), empty, Tolerances())


def test_to_continuous_inverts_explicit_euler():
    model = random_system(31)
    cont = to_continuous(model, h=0.25)
    assert cont.time_domain == "continuous"
    assert cont.step_width is None
    assert np.allclose(cont.a, (model.a - np.eye(model.order)) / 0.25)
    assert np.allclose(cont.b, model.b / 0.25)
    assert np.array_equal(cont.c, model.c)
    assert np.array_equal(cont.d, model.d)
    with pytest.raises(ValueError):
        to_continuous(cont, h=0.25)
    with pytest.raises(ValueError):
        to_continuous(model, h=0.0)


def test_model_json_roundtrip_exact(tmp_path):
    model = random_system(41)
    model.basis = np.linalg.qr(np.random.default_rng(42).standard_normal((9, 4)))[0]
    model.underdetermined = True
    path = tmp_path / "model.json"
    save_model_json(model, path)
    back = load_model_json(path)
    for name in ("a", "b", "c", "d", "basis"):
        got, want = getattr(back, name), getattr(model, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
    assert back.underdetermined is True
    assert back.time_domain == "discrete"
    assert back.step_width == model.step_width


def test_model_json_without_basis_loads_as_before(tmp_path):
    # files written before the basis and the flag were stored
    model = random_system(43)
    path = tmp_path / "model.json"
    save_model_json(model, path)
    doc = json.loads(path.read_text())
    del doc["basis"], doc["underdetermined"]
    path.write_text(json.dumps(doc))
    back = load_model_json(path)
    assert back.basis is None
    assert back.underdetermined is False
    assert np.array_equal(back.blocks(), model.blocks())


def test_state_space_model_validation():
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.ones((2, 3)))
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.eye(2), b=np.ones((3, 1)))
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.eye(2), c=np.ones((1, 3)), time_domain="continuous")
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.eye(2), time_domain="hybrid")
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.eye(2), step_width=0.0)
    blocks = StateSpaceModel(a=np.eye(2), b=np.ones((2, 1))).blocks()
    assert blocks.shape == (2, 3)
