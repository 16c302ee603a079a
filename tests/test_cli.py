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
from iodmd.pod import pod_basis
from iodmd.snapshot import (
    TrajectoryData,
    load_trajectory_csv,
    make_pairs,
    project_pairs,
    save_trajectory_csv,
)
from iodmd.stabilize import StabilizeConfig, StabilizeReport, stabilize


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

    # the model file carries the basis the fit used, and the CLI repair is
    # the library repair of the data projected onto it, bit for bit
    traj = load_trajectory_csv(data)
    expected_basis = pod_basis(traj.states, 1e-6).modes
    assert np.array_equal(model.basis.view(np.uint64), expected_basis.view(np.uint64))
    expected, _ = stabilize(
        model, project_pairs(make_pairs(traj), model.basis), StabilizeConfig()
    )
    assert np.array_equal(repaired.blocks().view(np.uint64), expected.blocks().view(np.uint64))
    assert np.array_equal(repaired.basis, model.basis)


def test_stabilize_needs_the_basis_of_a_reduced_model(tmp_path):
    data = tmp_path / "traj.csv"
    write_noise_trajectory(data)
    model_path = tmp_path / "model.json"
    save_model_json(StateSpaceModel(a=1.1 * np.eye(3), b=np.ones((3, 1)), c=np.ones((1, 3))), model_path)
    with pytest.raises(SystemExit, match="stores no basis"):
        main(
            [
                "stabilize",
                "--model",
                str(model_path),
                "--data",
                str(data),
                "--out",
                str(tmp_path / "model_s.json"),
            ]
        )


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stabilize", "--model", "{missing}", "--data", "{missing}",
          "--out", "{out}", "--tau", "1.5"], "tau must lie in [0, 1)"),
        (["identify", "--data", "{missing}", "--budget", "-0.1",
          "--out", "{out}"], "error budget must be nonnegative"),
        (["run", "--budgets", "3e-1..1e-4", "--out", "{out}"],
         "range endpoints must be powers of ten"),
        (["run", "--budgets", "1e-1,x", "--out", "{out}"],
         "could not convert string to float"),
        (["run", "--budgets", "1e-3,1e-1", "--out", "{out}"],
         "projection budgets must be strictly decreasing"),
        (["run", "--budgets", "nan", "--out", "{out}"],
         "projection budgets must be positive"),
        (["run", "--excitations", "chirp", "--out", "{out}"],
         "unknown excitation tags ['chirp']"),
        (["run", "--excitations", "target,target", "--out", "{out}"],
         "duplicate excitation tags"),
        (["run", "--reg-eps", "nan", "--out", "{out}"],
         "svd_truncation_eps must be >= 0"),
        (["identify", "--data", "{missing}", "--budget", "0.1",
          "--reg-eps", "nan", "--out", "{out}"], "svd_truncation_eps must be >= 0"),
        # negative values in e-notation reach the same checks
        (["identify", "--data", "{missing}", "--budget", "-1e-3",
          "--out", "{out}"], "error budget must be nonnegative"),
        (["stabilize", "--model", "{missing}", "--data", "{missing}",
          "--out", "{out}", "--tau", "-1e-1"], "tau must lie in [0, 1)"),
        (["run", "--reg-eps", "-1e-5", "--out", "{out}"],
         "svd_truncation_eps must be >= 0"),
        # and so do negative infinities and NaN
        (["identify", "--data", "{missing}", "--budget", "-inf",
          "--out", "{out}"], "error budget must be nonnegative"),
        (["identify", "--data", "{missing}", "--budget", "-nan",
          "--out", "{out}"], "error budget must be nonnegative"),
        (["stabilize", "--model", "{missing}", "--data", "{missing}",
          "--out", "{out}", "--tau", "-inf"], "tau must lie in [0, 1)"),
        (["run", "--reg-eps", "-inf", "--out", "{out}"],
         "svd_truncation_eps must be >= 0"),
        (["run", "--reg-eps", "-Infinity", "--out", "{out}"],
         "svd_truncation_eps must be >= 0"),
        (["run", "--seed", "-1", "--excitations", "pe_noise", "--budgets", "1e-1",
          "--out", "{out}"], "seed must be nonnegative"),
    ],
)
def test_bad_values_are_usage_errors_before_any_file_is_touched(
    tmp_path, capsys, argv, message
):
    missing = tmp_path / "missing"
    out = tmp_path / "out"
    argv = [a.format(missing=missing, out=out) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"iodmd {argv[0]}: error: argument" in err
    assert message in err
    assert not out.exists()


def test_unreadable_or_mismatched_inputs_stop_with_one_line(tmp_path, capsys):
    data = tmp_path / "traj.csv"
    rng = np.random.default_rng(0)
    # three states, two inputs, one output
    save_trajectory_csv(
        TrajectoryData(
            states=rng.standard_normal((3, 6)),
            inputs=rng.standard_normal((2, 6)),
            outputs=rng.standard_normal((1, 6)),
            step_width=0.1,
        ),
        data,
    )
    one_input = tmp_path / "model.json"
    save_model_json(
        StateSpaceModel(a=1.1 * np.eye(3), b=np.ones((3, 1)), c=np.ones((1, 3))), one_input
    )
    missing = tmp_path / "missing"
    out = tmp_path / "out.json"
    cases = [
        (["identify", "--data", str(missing), "--budget", "1e-1"], str(missing)),
        (["stabilize", "--model", str(missing), "--data", str(data)], str(missing)),
        (
            ["stabilize", "--model", str(one_input), "--data", str(data)],
            "has 1 inputs and 1 outputs, but",
        ),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        # a string code: Python prints it as one line and exits 1
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert message in exc.value.code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()
