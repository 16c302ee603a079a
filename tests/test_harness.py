"""Sweep driver: config contracts and table layout."""

import warnings

import numpy as np
import pytest

from iodmd import harness
from iodmd.harness import (
    EXCITATIONS,
    ExperimentConfig,
    ExperimentRow,
    _score,
    emit_tables,
    run_experiment,
)
from iodmd.identify import StateSpaceModel
from iodmd.plant import simulate_discrete
from iodmd.snapshot import make_pairs, project_pairs
from iodmd.stabilize import NotStabilizedError, StabilizeReport


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(excitations=())
    with pytest.raises(ValueError):
        ExperimentConfig(excitations=("target", "chirp"))
    with pytest.raises(ValueError):
        ExperimentConfig(excitations=("target", "target"))
    with pytest.raises(ValueError):
        ExperimentConfig(projection_budgets=())
    with pytest.raises(ValueError):
        ExperimentConfig(projection_budgets=(1e-2, 1e-1))  # must decrease
    with pytest.raises(ValueError):
        ExperimentConfig(projection_budgets=(1e-1, 1e-1))
    with pytest.raises(ValueError):
        ExperimentConfig(projection_budgets=(1e-1, 0.0))
    with pytest.raises(ValueError):
        ExperimentConfig(regularization_eps=-1e-9)
    # rejected up front, even for a sweep with no random excitation
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        ExperimentConfig(excitations=("target",), seed=-1)
    assert len(ExperimentConfig().projection_budgets) == 8
    assert ExperimentConfig().excitations == tuple(EXCITATIONS)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(projection_budgets=(float("nan"),)),
        dict(projection_budgets=(1e-1, float("nan"))),
        dict(regularization_eps=float("nan")),
    ],
)
def test_config_rejects_nan(overrides):
    with pytest.raises(ValueError):
        ExperimentConfig(**overrides)


def test_single_cell_run():
    cfg = ExperimentConfig(excitations=("target",), projection_budgets=(1e-1,))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.excitation == "target"
    assert row.budget == 1e-1
    assert row.reduced_order >= 1
    assert np.isfinite(row.rel_output_error) and row.rel_output_error >= 0.0
    assert row.wall_time_s > 0.0
    assert row.note == ""
    assert row.rho_before == row.rho_after


def test_unstable_cell_is_tagged_not_killed():
    # a noise fit at a tight budget overflows when replayed unstabilized
    cfg = ExperimentConfig(excitations=("pe_noise",), projection_budgets=(1e-3,))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert not rows[0].stable_before
    assert rows[0].note == "nonfinite_output"
    assert np.isinf(rows[0].rel_output_error)


def assert_no_model(row, tag, budget, note):
    """The row of a cell that produced no model still says where it was,
    why it failed and how long it took."""
    assert (row.excitation, row.budget, row.note) == (tag, budget, note)
    assert row.reduced_order == 0 and row.rel_output_error == float("inf")
    assert not row.stable_before and not row.stabilized
    assert row.stabilize_iterations == 0
    assert np.isnan(row.rho_before) and np.isnan(row.rho_after)
    assert np.isnan(row.stabilize_objective_ratio)
    assert np.isnan(row.stabilize_model_change)
    assert row.wall_time_s > 0.0


def test_a_stage_error_becomes_a_row_while_the_other_cells_finish(monkeypatch):
    real_fit = harness.fit_reduced_iodmd

    def fit(pairs, basis, eps):
        if basis.requested_error == 1e-2:
            raise np.linalg.LinAlgError("injected")
        return real_fit(pairs, basis, eps)

    monkeypatch.setattr(harness, "fit_reduced_iodmd", fit)
    budgets = (1e-1, 1e-2, 1e-3)
    rows = run_experiment(
        ExperimentConfig(excitations=("target",), projection_budgets=budgets)
    )
    assert [r.note for r in rows] == ["", "error:LinAlgError", ""]
    assert_no_model(rows[1], "target", 1e-2, "error:LinAlgError")
    for row in rows[::2]:
        assert row.reduced_order > 0 and np.isfinite(row.rel_output_error)


def test_an_excitation_error_tags_every_budget_of_that_excitation(monkeypatch):
    real_generate = harness.generate_excitation

    def generate(plant, spec, *rest):
        if spec.kind == "pe_step":
            raise RuntimeError("injected")
        return real_generate(plant, spec, *rest)

    monkeypatch.setattr(harness, "generate_excitation", generate)
    budgets = (1e-1, 1e-2)
    rows = run_experiment(
        ExperimentConfig(excitations=("pe_step", "target"), projection_budgets=budgets)
    )
    for row, budget in zip(rows[:2], budgets):
        assert_no_model(row, "pe_step", budget, "error:RuntimeError")
    assert [(r.excitation, r.note) for r in rows[2:]] == [("target", "")] * 2


def test_a_failed_repair_keeps_the_unstable_fit_and_its_report(monkeypatch):
    report = StabilizeReport(
        iterations_total=17,
        final_objective_ratio=3.5,
        final_spectral_radius=1.01,
        relative_model_change=0.02,
        certificate=0.99,
        primal_residual=1e-3,
        dual_residual=1e-3,
    )

    def fail(model, pairs, tau):
        raise NotStabilizedError("injected", model, report)

    # the noise fit at budget 1e-1 is unstable, yet its replay stays finite
    cell = dict(excitations=("pe_noise",), projection_budgets=(1e-1,))
    (plain,) = run_experiment(ExperimentConfig(**cell))
    assert not plain.stable_before and plain.note == ""
    monkeypatch.setattr(harness, "stabilize", fail)
    (row,) = run_experiment(ExperimentConfig(**cell, stabilize=True))
    assert row.note == "not_stabilized" and not row.stabilized
    # scored on the fit itself, with the failed solve's diagnostics
    for name in ("reduced_order", "stable_before", "rho_before", "rel_output_error"):
        assert getattr(row, name) == getattr(plain, name)
    assert row.stabilize_iterations == 17
    assert row.rho_after == 1.01
    assert row.stabilize_objective_ratio == 3.5
    assert row.stabilize_model_change == 0.02


def test_score_of_a_finite_but_huge_replay_is_inf_without_warnings():
    # growth 2 per step: the replay stays finite, but its squares overflow
    # inside the error norm
    model = StateSpaceModel(a=[[2.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    u_hat = y_ref = np.ones((1, 1001))
    y = simulate_discrete(model, u_hat).outputs
    assert np.all(np.isfinite(y)) and y.max() > 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _score(model, u_hat, y_ref) == float("inf")


def test_each_excitation_is_projected_once_for_fit_and_repair(monkeypatch):
    names = ("generate_excitation", "project_pairs", "fit_reduced_iodmd", "stabilize")
    real = {name: getattr(harness, name) for name in names}
    trajs, projected_kinds, fits, repairs = {}, [], {}, {}
    cell = {}

    def generate(plant, spec, *rest):
        cell["kind"] = spec.kind
        trajs[spec.kind] = real["generate_excitation"](plant, spec, *rest)
        return trajs[spec.kind]

    def project(pairs, q):
        projected_kinds.append(cell["kind"])
        return real["project_pairs"](pairs, q)

    def fit(pairs, basis, eps):
        cell["key"] = (cell["kind"], basis.requested_error)
        fits[cell["key"]] = (pairs, basis)
        return real["fit_reduced_iodmd"](pairs, basis, eps)

    def repair(model, pairs, tau):
        repairs[cell["key"]] = pairs
        return real["stabilize"](model, pairs, tau)

    for name, wrapper in zip(names, (generate, project, fit, repair)):
        monkeypatch.setattr(harness, name, wrapper)

    cfg = ExperimentConfig(
        excitations=("target", "pe_noise"),
        projection_budgets=(2e-1, 1e-1, 5e-2),
        stabilize=True,
    )
    rows = run_experiment(cfg)
    assert not [r.note for r in rows if r.note.startswith("error")]
    assert projected_kinds == ["target_input", "pe_gaussian_noise"]
    assert len(fits) == 6
    # the noise fits are unstable, so the repair runs on them
    assert repairs
    for key, pairs in repairs.items():
        assert pairs is fits[key][0]
    for (kind, _), (pairs, basis) in fits.items():
        expected = project_pairs(make_pairs(trajs[kind]), basis.modes)
        for got, want in ((pairs.x0, expected.x0), (pairs.x1, expected.x1)):
            assert got.shape == want.shape == (basis.order, expected.x0.shape[1])
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(pairs.u0, expected.u0)
        assert np.array_equal(pairs.y0, expected.y0)


def test_rows_follow_config_order():
    cfg = ExperimentConfig(
        excitations=("ce_shifted", "target"), projection_budgets=(1e-1, 1e-2)
    )
    rows = run_experiment(cfg)
    assert [(r.excitation, r.budget) for r in rows] == [
        ("ce_shifted", 1e-1),
        ("ce_shifted", 1e-2),
        ("target", 1e-1),
        ("target", 1e-2),
    ]


def make_row(tag, budget, **overrides):
    base = dict(
        excitation=tag,
        budget=budget,
        reduced_order=3,
        rel_output_error=0.5,
        stable_before=True,
        stabilized=False,
        stabilize_iterations=0,
        wall_time_s=0.1,
        rho_before=0.9,
        rho_after=0.9,
    )
    base.update(overrides)
    return ExperimentRow(**base)


def test_emit_tables_layout(tmp_path):
    rows = [
        make_row("target", 1e-1),
        make_row("target", 1e-2),
        make_row("pe_step", 1e-1, reduced_order=4),
        make_row("pe_step", 1e-2, rel_output_error=0.25),
    ]
    paths = emit_tables(rows, tmp_path)
    assert sorted(p.name for p in paths.values()) == [
        "errors.csv",
        "orders.csv",
        "rows.csv",
        "runtimes.csv",
        "stabilization.csv",
    ]
    errors = (tmp_path / "errors.csv").read_text().splitlines()
    assert errors[0] == "budget,target,pe_step"
    assert errors[1] == "0.1,0.5,0.5"
    assert errors[2] == "0.01,0.5,0.25"
    orders = (tmp_path / "orders.csv").read_text().splitlines()
    assert orders[1] == "0.1,3,4"
    # no unstable rows: header only
    assert (tmp_path / "stabilization.csv").read_text().splitlines() == [
        "excitation,budget,reduced_order,rho_before,stabilized,iterations,"
        "objective_ratio,model_change,rho_after,note"
    ]


def test_emit_tables_missing_cells_stay_empty(tmp_path):
    rows = [make_row("target", 1e-1), make_row("pe_step", 1e-2)]
    emit_tables(rows, tmp_path)
    errors = (tmp_path / "errors.csv").read_text().splitlines()
    assert errors[1] == "0.1,0.5,"
    assert errors[2] == "0.01,,0.5"


def test_emit_tables_rejects_empty_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_tables([], tmp_path)


def test_emit_tables_lists_unstable_cells(tmp_path):
    rows = [
        make_row("pe_noise", 1e-1, stable_before=False, rho_before=1.5,
                 stabilized=True, stabilize_iterations=12, rho_after=0.99,
                 stabilize_objective_ratio=1.5, stabilize_model_change=0.01),
        make_row("target", 1e-1),
    ]
    emit_tables(rows, tmp_path)
    stab = (tmp_path / "stabilization.csv").read_text().splitlines()
    assert len(stab) == 2
    assert stab[1] == "pe_noise,0.1,3,1.5,true,12,1.5,0.01,0.99,"


def failed_repair_and_failed_cell():
    """A repair that failed on a fit whose replay overflowed, and a cell
    that produced no model at all."""
    return [
        make_row("pe_noise", 1e-3, rel_output_error=float("inf"), stable_before=False,
                 stabilize_iterations=40, rho_before=1.2, rho_after=1.01,
                 stabilize_objective_ratio=2.5, note="not_stabilized;nonfinite_output"),
        ExperimentRow("ce_random", 1e-2, wall_time_s=0.2, note="error:LinAlgError"),
    ]


def test_rows_csv_writes_every_field_in_declaration_order(tmp_path):
    emit_tables(failed_repair_and_failed_cell(), tmp_path)
    assert (tmp_path / "rows.csv").read_text().splitlines() == [
        "excitation,budget,reduced_order,rel_output_error,stable_before,stabilized,"
        "stabilize_iterations,wall_time_s,rho_before,rho_after,"
        "stabilize_objective_ratio,stabilize_model_change,note",
        "pe_noise,0.001,3,inf,false,false,40,0.1,1.2,1.01,2.5,nan,"
        "not_stabilized;nonfinite_output",
        "ce_random,0.01,0,inf,false,false,0,0.2,nan,nan,nan,nan,error:LinAlgError",
    ]


def test_stabilization_csv_lists_failed_repairs_but_not_failed_cells(tmp_path):
    # the failed cell is not stable before either, but it has no fit to list
    emit_tables(failed_repair_and_failed_cell(), tmp_path)
    assert (tmp_path / "stabilization.csv").read_text().splitlines()[1:] == [
        "pe_noise,0.001,3,1.2,false,40,2.5,nan,1.01,not_stabilized;nonfinite_output"
    ]


def test_emit_is_deterministic(tmp_path):
    rows = [make_row("target", 1e-1), make_row("target", 1e-2)]
    emit_tables(rows, tmp_path / "a")
    emit_tables(rows, tmp_path / "b")
    for name in ("rows.csv", "errors.csv", "orders.csv", "runtimes.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_tables_writes_the_rows_of_a_run(tmp_path):
    rows = run_experiment(ExperimentConfig(excitations=("target",), projection_budgets=(1e-1,)))
    paths = emit_tables(rows, tmp_path / "tables")
    assert sorted(paths) == ["errors.csv", "orders.csv", "rows.csv", "runtimes.csv", "stabilization.csv"]
    assert all(path.exists() for path in paths.values())
    header, line = (tmp_path / "tables" / "orders.csv").read_text().splitlines()
    assert (header, line) == ("budget,target", f"0.1,{rows[0].reduced_order}")


def test_ce_shifted_orders_grow_with_tighter_budgets():
    cfg = ExperimentConfig(excitations=("ce_shifted",))
    rows = run_experiment(cfg)
    orders = [r.reduced_order for r in rows]
    assert all(a <= b for a, b in zip(orders, orders[1:]))


def test_target_errors_keep_falling_with_the_budget():
    # the bell trains at zero-order hold, the data equation of the snapshot
    # pairs, so target errors keep falling with pe_step's to about 2e-11; when
    # it trained with u_{k+1} driving step k -> k+1 they sat on a floor of
    # 1.3e-7 from budget 1e-5 on, set by the timing mismatch
    cfg = ExperimentConfig(excitations=("target",))
    rows = run_experiment(cfg)
    errs = [r.rel_output_error for r in rows]
    assert all(b <= a * 1.001 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 0.01 * errs[0]
    assert errs[-1] <= 0.05 * errs[-3]
