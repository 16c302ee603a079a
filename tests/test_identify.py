"""Least-squares identification against closed-form and lstsq oracles."""

import json

import numpy as np
import pytest

from iodmd.identify import (
    StateSpaceModel,
    fit_iodmd,
    fit_reduced_iodmd,
    load_model_json,
    save_model_json,
)
from iodmd.pod import PodBasis, pod_basis
from iodmd.snapshot import SnapshotPairs, TrajectoryData, make_pairs, project_pairs
from iodmd.plant import build_transport_plant, simulate_discrete


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
        fitted = fit_iodmd(pairs_from(system, seed))
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
    fitted = fit_iodmd(pairs)
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
    fitted = fit_iodmd(noisy)
    data = np.vstack([noisy.x0, noisy.u0])
    target = np.vstack([noisy.x1, noisy.y0])
    residual = fitted.blocks() @ data - target
    assert np.linalg.norm(residual @ data.T) < 1e-8


def test_iodmd_underdetermined_takes_minimum_norm_solution():
    system = random_system(3)
    pairs = pairs_from(system, 3, k=5)  # 4 pairs for 6 data rows
    fitted = fit_iodmd(pairs)
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
    fitted = fit_iodmd(pairs, eps * 1.0000001)
    oracle = (target @ vt[:3].T) / s[:3] @ u[:, :3].T
    assert np.allclose(fitted.blocks(), oracle, atol=1e-9)
    assert fitted.underdetermined


def test_plain_dmd_recovers_spectrum_from_autonomous_data(projected_dmd):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    x = np.empty((4, 30))
    x[:, 0] = rng.standard_normal(4)
    for k in range(29):
        x[:, k + 1] = a @ x[:, k]
    traj = TrajectoryData(states=x)
    model = projected_dmd(make_pairs(traj))
    assert model.order == 4
    lifted = model.basis @ model.a @ model.basis.T
    assert np.linalg.norm(lifted - a) < 1e-8
    got = np.sort_complex(np.linalg.eigvals(model.a))
    want = np.sort_complex(np.linalg.eigvals(a))
    assert np.allclose(got, want, atol=1e-8)


def test_projected_dmd_never_inverts_machine_noise_singular_values(projected_dmd):
    # rank-3 snapshots of 6 states: three singular values are rounding noise
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    x0 = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 40))
    x1 = a @ x0
    model = projected_dmd(SnapshotPairs(x0=x0, x1=x1))
    assert model.order == 3
    u = model.basis
    residual = np.linalg.norm(u @ model.a @ u.T @ x0 - u @ u.T @ x1)
    assert residual <= 1e-10 * np.linalg.norm(x1)


def test_iodmd_fits_autonomous_pairs():
    # no inputs and no outputs: the solve is x1 @ pinv(x0)
    rng = np.random.default_rng(17)
    pairs = SnapshotPairs(x0=rng.standard_normal((3, 8)), x1=rng.standard_normal((3, 8)))
    fitted = fit_iodmd(pairs)
    assert np.allclose(fitted.a, pairs.x1 @ np.linalg.pinv(pairs.x0), atol=1e-12)
    assert (fitted.n_inputs, fitted.n_outputs) == (0, 0)
    assert not fitted.underdetermined


def test_reduced_iodmd_reproduces_projected_dynamics():
    system = random_system(21, n=6, m=1, q=1)
    pairs = pairs_from(system, 21, k=80)
    basis = pod_basis(pairs.x0, 1e-12, mode="relative")
    model = fit_reduced_iodmd(project_pairs(pairs, basis.modes), basis)
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
        fit_reduced_iodmd(project_pairs(pairs, basis.modes), basis)


def test_reduced_iodmd_needs_pairs_in_basis_coordinates():
    # full-order pairs next to a reduced basis: one state row per basis column
    system = random_system(3, n=6)
    pairs = pairs_from(system, 3)
    basis = pod_basis(pairs.x0, 1e-1)
    assert 0 < basis.order < pairs.n_states
    with pytest.raises(ValueError, match=f"6 states, the basis has {basis.order} columns"):
        fit_reduced_iodmd(pairs, basis)
    fewer = project_pairs(pairs, basis.modes[:, :-1])
    with pytest.raises(ValueError, match=f"{basis.order - 1} states, the basis has {basis.order} columns"):
        fit_reduced_iodmd(fewer, basis)
    empty = PodBasis(np.zeros((6, 0)), np.zeros(0), 0.0, 0.0)
    with pytest.raises(ValueError, match="0 states, the basis has 0 columns"):
        fit_reduced_iodmd(project_pairs(pairs, empty.modes), empty)


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


@pytest.mark.parametrize(
    "block, value", [("A", np.nan), ("A", np.inf), ("D", -np.inf), ("basis", np.nan)]
)
def test_model_json_save_refuses_non_finite_entries(tmp_path, block, value):
    # json.dumps would write a bare NaN or Infinity token, which is not
    # standard JSON and which the loader rejects: the save refuses first,
    # naming the entry that a load of such a file names
    model = random_system(41)
    model.basis = np.linalg.qr(np.random.default_rng(42).standard_normal((9, 4)))[0]
    path, finite = tmp_path / "model.json", tmp_path / "finite.json"
    save_model_json(model, finite)
    doc = json.loads(finite.read_text())
    doc[block][0][1] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as loaded:
        load_model_json(path)
    path.unlink()
    getattr(model, block.lower())[0, 1] = value
    with pytest.raises(ValueError, match=f"block {block} has non-finite entry") as saved:
        save_model_json(model, path)
    assert str(saved.value) == str(loaded.value)
    assert not path.exists()


@pytest.mark.parametrize(
    "model",
    [
        StateSpaceModel(a=0.5 * np.eye(2), b=np.ones((2, 1))),
        StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.ones((1, 1))),
    ],
    ids=["no_outputs", "order_zero"],
)
def test_model_json_roundtrip_keeps_empty_blocks(tmp_path, model):
    # tolist() writes a block without rows as a flat []
    path = tmp_path / "model.json"
    save_model_json(model, path)
    back = load_model_json(path)
    for name in ("a", "b", "c", "d"):
        got, want = getattr(back, name), getattr(model, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def test_blocks_needs_a_dense_a():
    with pytest.raises(ValueError, match=r"block A is sparse; blocks\(\) needs a dense A"):
        build_transport_plant(1.0, 0.5).blocks()


def test_model_json_needs_a_dense_a(tmp_path):
    plant = build_transport_plant(1.0, 0.5)
    model = StateSpaceModel(plant.a, plant.b, plant.c, step_width=0.1)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="block A is sparse; save_model_json needs a dense A"):
        save_model_json(model, path)
    assert not path.exists()


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


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "edit, message",
    [
        (without("D"), "missing key 'D'"),
        (without("step_width"), "missing key 'step_width'"),
        (lambda doc: {**doc, "order": 1.5}, "'order' must be a nonnegative integer, got 1.5"),
        (lambda doc: {**doc, "step_width": "0.1"}, "'step_width' must be a number, got '0.1'"),
        (lambda doc: {**doc, "A": doc["A"][:3]}, "block A must be a 4x4 matrix, got shape (3, 4)"),
        (
            lambda doc: {**doc, "A": sum(doc["A"], [])},
            "block A must be a 4x4 matrix, got shape (16,)",
        ),
        (
            lambda doc: {**doc, "B": [[row] for row in doc["B"]]},
            "block B must be a 4x2 matrix, got shape (4, 1, 2)",
        ),
        (lambda doc: {**doc, "C": [[1.0, "x", 0.0, 0.0]]}, "block C is not a matrix of numbers"),
        (lambda doc: [doc], "expected a JSON object, found list"),
        (
            lambda doc: {**doc, "underdetermined": "false"},
            "'underdetermined' must be true or false, got 'false'",
        ),
        (
            lambda doc: {**doc, "underdetermined": "no"},
            "'underdetermined' must be true or false, got 'no'",
        ),
        (
            lambda doc: {**doc, "underdetermined": 2},
            "'underdetermined' must be true or false, got 2",
        ),
        (
            lambda doc: {**doc, "underdetermined": {"x": 1}},
            "'underdetermined' must be true or false, got {'x': 1}",
        ),
    ],
    ids=[
        "no_d",
        "no_step_width",
        "half_order",
        "string_step_width",
        "short_a",
        "flat_a",
        "nested_b",
        "text_c",
        "list",
        "text_false_flag",
        "text_no_flag",
        "integer_flag",
        "object_flag",
    ],
)
def test_malformed_model_json_names_the_file_and_the_key(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model_json(random_system(44), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError) as exc:
        load_model_json(path)
    assert str(exc.value) == f"{path}: {message}"


def test_state_space_model_validation():
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.ones((2, 3)))
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.eye(2), b=np.ones((3, 1)))
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.eye(2), c=np.ones((1, 3)), time_domain="continuous")
    with pytest.raises(ValueError):
        StateSpaceModel(a=np.eye(2), time_domain="hybrid")
    for step in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive finite step_width"):
            StateSpaceModel(a=np.eye(2), step_width=step)
    blocks = StateSpaceModel(a=np.eye(2), b=np.ones((2, 1))).blocks()
    assert blocks.shape == (2, 3)
    # every block is 2-D: no 1-D or scalar form is promoted
    b, c = np.ones((2, 1)), np.ones((1, 2))
    for kwargs, message in (
        ({"b": np.ones(2)}, "b must be a 2x* matrix, got shape (2,)"),
        ({"c": np.ones(2)}, "c must be a *x2 matrix, got shape (2,)"),
        ({"b": b, "c": c, "d": 0.5}, "d must be a 1x1 matrix, got shape ()"),
        ({"b": b, "c": c, "d": np.ones((2, 2))}, "d must be a 1x1 matrix, got shape (2, 2)"),
        ({"b": b, "d": np.zeros((0, 0))}, "d must be a 0x1 matrix, got shape (0, 0)"),
        ({"basis": np.eye(3)}, "basis must be a *x2 matrix, got shape (3, 3)"),
    ):
        with pytest.raises(ValueError) as exc:
            StateSpaceModel(a=np.eye(2), **kwargs)
        assert str(exc.value) == message
    model = StateSpaceModel(a=np.eye(2), b=b, c=c)
    assert np.array_equal(model.d, [[0.0]])
