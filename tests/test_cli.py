"""Command-line entry points driven through main()."""

import json

import numpy as np
import pytest

from iodmd import cli
from iodmd.cli import main, parse_budgets
from iodmd.excite import ExcitationSpec, generate_excitation
from iodmd.harness import ExperimentConfig, ExperimentRow
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
from iodmd.stabilize import NotStabilizedError, StabilizeReport, stabilize


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
            str(tmp_path / "new" / "tables"),
        ]
    )
    assert code == 0
    # unlike identify and stabilize, run creates its output directory
    assert (tmp_path / "new" / "tables" / "errors.csv").exists()
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


# no option set, then every option set: each reaches its config field
@pytest.mark.parametrize(
    "options, expected",
    [
        ([], ExperimentConfig()),
        (
            ["--excitations", "pe_step,target", "--budgets", "1e-1..1e-3",
             "--reg-eps", "1e-5", "--stabilize", "--seed", "7"],
            ExperimentConfig(
                excitations=("pe_step", "target"),
                projection_budgets=(1e-1, 1e-2, 1e-3),
                regularization_eps=1e-5,
                stabilize=True,
                seed=7,
            ),
        ),
    ],
    ids=["none_set", "all_set"],
)
def test_run_leaves_unset_options_to_the_config(tmp_path, monkeypatch, options, expected):
    configs = []

    def fake_run(cfg):
        configs.append(cfg)
        return [ExperimentRow("target", 1e-1)]

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert main(["run", *options, "--out", str(tmp_path)]) == 0
    assert configs == [expected]


def write_noise_trajectory(path, dx=1e-2):
    plant = build_transport_plant(1.3, dx)
    traj = generate_excitation(plant, ExcitationSpec(kind="pe_gaussian_noise", seed=7), 1.0, 1e-2)
    save_trajectory_csv(traj, path)


# a 100-cell plant reduced at relative budget 1e-6, and a 3-cell plant kept
# whole at budget 0: a basis of order 3 that keeps every state
@pytest.mark.parametrize("dx, budget", [(1e-2, "1e-6"), (1 / 3, "0")], ids=["reduced", "full_order"])
def test_identify_then_stabilize_roundtrip(tmp_path, capsys, dx, budget):
    data = tmp_path / "traj.csv"
    write_noise_trajectory(data, dx)
    model_path = tmp_path / "model.json"
    code = main(
        [
            "identify",
            "--data",
            str(data),
            "--budget",
            budget,
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
    expected_basis = pod_basis(traj.states, float(budget)).modes
    assert np.array_equal(model.basis.view(np.uint64), expected_basis.view(np.uint64))
    expected, _ = stabilize(model, project_pairs(make_pairs(traj), model.basis))
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


def write_small_model_and_data(tmp_path):
    """An unstable order-3 model file and a matching 3-state trajectory CSV."""
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
    return model_path, data


def test_stabilize_forwards_only_tau(tmp_path, monkeypatch):
    model_path, data = write_small_model_and_data(tmp_path)
    taus = []

    def fake_stabilize(model, pairs, tau):
        taus.append(tau)
        report = StabilizeReport(
            iterations_total=1,
            final_objective_ratio=1.0,
            final_spectral_radius=0.5,
            relative_model_change=0.0,
            certificate=0.5,
            objective=1.0,
            objective_halfway=1.0,
            primal_residual=0.0,
            dual_residual=0.0,
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
    assert taus == [0.1]


def test_a_failed_repair_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    model_path, data = write_small_model_and_data(tmp_path)

    def fail(model, pairs, tau):
        report = StabilizeReport(
            iterations_total=9,
            final_objective_ratio=2.0,
            final_spectral_radius=1.2,
            relative_model_change=0.1,
            certificate=0.99,
            objective=1.0,
            objective_halfway=1.0,
            primal_residual=1e-3,
            dual_residual=1e-3,
        )
        raise NotStabilizedError("no iterate reached spectral radius below 1.0", model, report)

    monkeypatch.setattr(cli, "stabilize", fail)
    out = tmp_path / "model_s.json"
    code = main(["stabilize", "--model", str(model_path), "--data", str(data), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "stabilization failed: no iterate reached spectral radius below 1.0\n"
    assert captured.out == ""
    assert not out.exists()


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
         "regularization_eps must be >= 0"),
        (["identify", "--data", "{missing}", "--budget", "0.1",
          "--reg-eps", "nan", "--out", "{out}"], "regularization_eps must be >= 0"),
        # negative values in e-notation reach the same checks
        (["identify", "--data", "{missing}", "--budget", "-1e-3",
          "--out", "{out}"], "error budget must be nonnegative"),
        (["stabilize", "--model", "{missing}", "--data", "{missing}",
          "--out", "{out}", "--tau", "-1e-1"], "tau must lie in [0, 1)"),
        (["run", "--reg-eps", "-1e-5", "--out", "{out}"],
         "regularization_eps must be >= 0"),
        # and so do negative infinities and NaN
        (["identify", "--data", "{missing}", "--budget", "-inf",
          "--out", "{out}"], "error budget must be nonnegative"),
        (["identify", "--data", "{missing}", "--budget", "-nan",
          "--out", "{out}"], "error budget must be nonnegative"),
        (["stabilize", "--model", "{missing}", "--data", "{missing}",
          "--out", "{out}", "--tau", "-inf"], "tau must lie in [0, 1)"),
        (["run", "--reg-eps", "-inf", "--out", "{out}"],
         "regularization_eps must be >= 0"),
        (["run", "--reg-eps", "-Infinity", "--out", "{out}"],
         "regularization_eps must be >= 0"),
        (["run", "--seed", "-1", "--excitations", "pe_noise", "--budgets", "1e-1",
          "--out", "{out}"], "seed must be nonnegative"),
        # an output file that is a directory or lies in one that does not exist
        (["identify", "--data", "{missing}", "--budget", "0.1",
          "--out", "{missing}/o.json"], "argument --out: directory"),
        (["stabilize", "--model", "{missing}", "--data", "{missing}",
          "--out", "{missing}/o.json"], "argument --out: directory"),
        (["identify", "--data", "{missing}", "--budget", "0.1",
          "--out", "{tmp}"], "is a directory"),
        # a table directory that is a file or lies under one
        (["run", "--excitations", "target", "--budgets", "1e-1", "--out", "/dev/null"],
         "argument --out: /dev/null is not a directory"),
        (["run", "--excitations", "target", "--budgets", "1e-1", "--out", "/dev/null/sub"],
         "argument --out: /dev/null is not a directory"),
    ],
)
def test_bad_values_are_usage_errors_before_any_file_is_touched(
    tmp_path, capsys, argv, message
):
    missing = tmp_path / "missing"
    out = tmp_path / "out"
    argv = [a.format(missing=missing, out=out, tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"iodmd {argv[0]}: error: argument" in err
    assert message in err
    assert not out.exists()


def test_unreadable_or_mismatched_inputs_stop_with_one_line(tmp_path, capsys):
    rng = np.random.default_rng(0)
    # three states, two inputs, one output
    traj = TrajectoryData(
        states=rng.standard_normal((3, 6)),
        inputs=rng.standard_normal((2, 6)),
        outputs=rng.standard_normal((1, 6)),
        step_width=0.1,
    )
    data, nan_state, inf_output = (tmp_path / f"{n}.csv" for n in ("traj", "nan", "inf"))
    save_trajectory_csv(traj, data)
    # the savers refuse non-finite values, so these files are edited copies:
    # x2 of sample 2 (line 4) and y1 of sample 4 (line 6)
    for path, line, column, token in ((nan_state, 3, 2, "nan"), (inf_output, 5, 6, "inf")):
        lines = data.read_text().splitlines()
        fields = lines[line].split(",")
        fields[column] = token
        lines[line] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    one_input, nan_model = tmp_path / "model.json", tmp_path / "nan.json"
    two_outputs = tmp_path / "two_outputs.json"
    a = 1.1 * np.eye(3)
    save_model_json(StateSpaceModel(a=a, b=np.ones((3, 1)), c=np.ones((1, 3))), one_input)
    save_model_json(StateSpaceModel(a=a, b=np.ones((3, 2)), c=np.ones((2, 3))), two_outputs)
    # malformed model files: a missing key, a fractional order, a list, and
    # a NaN in A, which json.dumps writes as a bare NaN token
    matching = tmp_path / "matching.json"
    save_model_json(
        StateSpaceModel(a=1.1 * np.eye(3), b=np.ones((3, 2)), c=np.ones((1, 3))), matching
    )
    doc = json.loads(matching.read_text())
    nan_a = json.loads(matching.read_text())
    nan_a["A"][2][1] = float("nan")
    nan_model.write_text(json.dumps(nan_a))
    malformed = {
        "no_d": {k: v for k, v in doc.items() if k != "D"},
        "no_step": {k: v for k, v in doc.items() if k != "step_width"},
        "half_order": {**doc, "order": 1.5},
        "list": [doc],
    }
    for name, edited in malformed.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(edited))
    continuous, wide_basis = tmp_path / "continuous.json", tmp_path / "wide.json"
    save_model_json(
        StateSpaceModel(
            a=-np.eye(3), b=np.ones((3, 2)), c=np.ones((1, 3)), time_domain="continuous"
        ),
        continuous,
    )
    save_model_json(
        StateSpaceModel(
            a=np.eye(2), b=np.ones((2, 2)), c=np.ones((1, 2)), basis=np.eye(5)[:, :2]
        ),
        wide_basis,
    )
    # a basis-carrying model of the data's order: the data must be full order
    reduced_basis = tmp_path / "reduced.json"
    save_model_json(
        StateSpaceModel(
            a=np.eye(3), b=np.ones((3, 2)), c=np.ones((1, 3)), basis=np.eye(5)[:, :3]
        ),
        reduced_basis,
    )
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(data.read_text().splitlines()[0] + "\n")
    no_state = tmp_path / "no_state.csv"
    no_state.write_text("t,u1,y1\n0,1,2\n0.1,3,4\n")
    zero_states = tmp_path / "zero_states.csv"
    zero_states.write_text("t,x1,x2,u1,y1\n0,0,0,1,2\n0.1,0,0,3,4\n0.2,0,0,5,6\n")
    missing = tmp_path / "missing"
    out = tmp_path / "out.json"
    cases = [
        (["identify", "--data", str(missing), "--budget", "1e-1"], str(missing)),
        (["stabilize", "--model", str(missing), "--data", str(data)], str(missing)),
        (
            ["stabilize", "--model", str(one_input), "--data", str(data)],
            f"cannot use {one_input} with {data}: snapshot pairs have "
            "(states, inputs, outputs) = (3, 2, 1), the model has (3, 1, 1)",
        ),
        (
            ["stabilize", "--model", str(two_outputs), "--data", str(data)],
            f"cannot use {two_outputs} with {data}: snapshot pairs have "
            "(states, inputs, outputs) = (3, 2, 1), the model has (3, 2, 2)",
        ),
        # non-finite values: the loaders name the first one
        (
            ["identify", "--data", str(nan_state), "--budget", "1e-1"],
            f"cannot read {nan_state}: {nan_state}: non-finite value nan in column x2 (line 4)",
        ),
        (
            ["identify", "--data", str(inf_output), "--budget", "1e-1"],
            f"cannot read {inf_output}: {inf_output}: non-finite value inf in column y1 (line 6)",
        ),
        (
            ["stabilize", "--model", str(nan_model), "--data", str(data)],
            f"cannot read {nan_model}: {nan_model}: block A has non-finite entry nan at (2, 1)",
        ),
        *(
            (
                ["stabilize", "--model", str(tmp_path / f"{name}.json"), "--data", str(data)],
                f"cannot read {tmp_path / name}.json: {tmp_path / name}.json: {message}",
            )
            for name, message in (
                ("no_d", "missing key 'D'"),
                ("no_step", "missing key 'step_width'"),
                ("half_order", "'order' must be a nonnegative integer, got 1.5"),
                ("list", "expected a JSON object, found list"),
            )
        ),
        (
            ["stabilize", "--model", str(continuous), "--data", str(data)],
            f"cannot use {continuous} with {data}: "
            "stabilization operates on discrete-time models",
        ),
        (
            ["stabilize", "--model", str(wide_basis), "--data", str(data)],
            f"the basis in {wide_basis} has 5 rows, but {data} has 3 states",
        ),
        (
            ["stabilize", "--model", str(reduced_basis), "--data", str(data)],
            f"the basis in {reduced_basis} has 5 rows, but {data} has 3 states",
        ),
        (
            ["identify", "--data", str(header_only), "--budget", "1e-1"],
            f"cannot read {header_only}: {header_only}: need at least 2 samples",
        ),
        (
            ["stabilize", "--model", str(matching), "--data", str(header_only)],
            f"cannot read {header_only}: {header_only}: need at least 2 samples",
        ),
        (
            ["identify", "--data", str(no_state), "--budget", "1e-1"],
            f"cannot read {no_state}: {no_state}: header 't,u1,y1' names no state column",
        ),
        # well-formed, but all-zero states span no POD basis
        (
            ["identify", "--data", str(zero_states), "--budget", "1e-1"],
            f"cannot use {zero_states}: cannot build a POD basis from a zero snapshot matrix",
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
