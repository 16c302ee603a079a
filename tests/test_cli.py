"""Command-line entry points driven through main()."""

import json

import numpy as np
import pytest

from iodmd import cli
from iodmd.cli import main, parse_budgets
from iodmd.excite import ExcitationSpec, excite_pe
from iodmd.identify import StateSpaceModel, load_model_json, save_model_json
from iodmd.linalg import spectral_radius
from iodmd.plant import build_transport_plant
from iodmd.snapshot import TrajectoryData, save_trajectory_csv
from iodmd.stabilize import StabilizeConfig, StabilizeReport


def test_parse_budgets_decade_range():
    assert parse_budgets("1e-1..1e-4") == (1e-1, 1e-2, 1e-3, 1e-4)
    assert parse_budgets("1e-3..1e-1") == (1e-3, 1e-2, 1e-1)
    assert parse_budgets("1..1") == (1.0,)


def test_parse_budgets_comma_list():
    assert parse_budgets("0.5,0.05,0.005") == (0.5, 0.05, 0.005)
    assert parse_budgets(" 1e-2 ") == (0.01,)


def test_parse_budgets_rejects_bad_ranges():
    with pytest.raises(ValueError):
        parse_budgets("3e-1..1e-4")  # endpoint not a power of ten
    with pytest.raises(ValueError):
        parse_budgets("-0.1..1e-3")
    with pytest.raises(ValueError):
        parse_budgets("abc")


def test_run_success_exit_code(tmp_path, capsys):
    code = main(
        [
            "run",
            "--excitations",
            "target",
            "--budgets",
            "1e-1,1e-2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "errors.csv").exists()
    out = capsys.readouterr().out
    assert "2 cells, 0 failed" in out


def test_run_failing_cell_exit_code(tmp_path, capsys):
    # unstabilized noise fit at a tight budget overflows: cell failure
    code = main(
        [
            "run",
            "--excitations",
            "pe_noise",
            "--budgets",
            "1e-3",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "1 failed" in capsys.readouterr().out


def write_noise_trajectory(path):
    plant = build_transport_plant(1.3, 1e-2)
    traj = excite_pe(plant, ExcitationSpec(kind="pe_gaussian_noise", seed=7), 1.0, 1e-2)
    save_trajectory_csv(traj, path)


def test_identify_then_stabilize_roundtrip(tmp_path, capsys):
    data = tmp_path / "traj.csv"
    write_noise_trajectory(data)
    model_path = tmp_path / "model.json"
    code = main(
        [
            "identify",
            "--data",
            str(data),
            "--budget",
            "1e-6",
            "--out",
            str(model_path),
        ]
    )
    assert code == 0
    model = load_model_json(model_path)
    assert spectral_radius(model.a) > 1.0  # noise fit at this budget is unstable

    stabilized_path = tmp_path / "model_s.json"
    code = main(
        [
            "stabilize",
            "--model",
            str(model_path),
            "--data",
            str(data),
            "--out",
            str(stabilized_path),
        ]
    )
    assert code == 0
    repaired = load_model_json(stabilized_path)
    assert spectral_radius(repaired.a) < 1.0
    assert repaired.order == model.order
    out = capsys.readouterr().out
    assert "unstable" in out and "stabilized in" in out


def test_identify_absolute_budget_mode(tmp_path):
    data = tmp_path / "traj.csv"
    write_noise_trajectory(data)
    model_path = tmp_path / "model.json"
    code = main(
        [
            "identify",
            "--data",
            str(data),
            "--budget",
            "1e-2",
            "--budget-mode",
            "absolute",
            "--out",
            str(model_path),
        ]
    )
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["order"] >= 1
    assert np.asarray(doc["A"]).shape == (doc["order"], doc["order"])


def test_stabilize_forwards_only_tau(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    order, k = 3, 20
    model = StateSpaceModel(
        a=1.1 * np.eye(order),
        b=rng.standard_normal((order, 1)),
        c=rng.standard_normal((1, order)),
        d=np.zeros((1, 1)),
    )
    model_path = tmp_path / "model.json"
    save_model_json(model, model_path)
    data = tmp_path / "traj.csv"
    traj = TrajectoryData(
        states=rng.standard_normal((order, k)),
        inputs=rng.standard_normal((1, k)),
        outputs=rng.standard_normal((1, k)),
    )
    save_trajectory_csv(traj, data)
    configs = []

    def fake_stabilize(model, pairs, config):
        configs.append(config)
        report = StabilizeReport(
            iterations_total=1,
            iterations_to_first_stable=1,
            final_objective_ratio=1.0,
            final_spectral_radius=0.5,
            relative_model_change=0.0,
            converged=True,
        )
        return model, report

    monkeypatch.setattr(cli, "stabilize", fake_stabilize)
    code = main(
        [
            "stabilize",
            "--model",
            str(model_path),
            "--data",
            str(data),
            "--tau",
            "0.1",
            "--out",
            str(tmp_path / "model_s.json"),
        ]
    )
    assert code == 0
    assert configs == [StabilizeConfig(tau=0.1)]
