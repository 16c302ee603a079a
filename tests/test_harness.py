"""Sweep driver: config contracts and table layout."""

import warnings

import numpy as np
import pytest

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


def test_emit_is_deterministic(tmp_path):
    rows = [make_row("target", 1e-1), make_row("target", 1e-2)]
    emit_tables(rows, tmp_path / "a")
    emit_tables(rows, tmp_path / "b")
    for name in ("rows.csv", "errors.csv", "orders.csv", "runtimes.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_writes_tables_when_output_dir_set(tmp_path):
    cfg = ExperimentConfig(
        excitations=("target",), projection_budgets=(1e-1,), output_dir=tmp_path
    )
    run_experiment(cfg)
    assert (tmp_path / "errors.csv").exists()
    assert (tmp_path / "rows.csv").exists()


def test_ce_shifted_orders_grow_with_tighter_budgets():
    cfg = ExperimentConfig(excitations=("ce_shifted",))
    rows = run_experiment(cfg)
    orders = [r.reduced_order for r in rows]
    assert all(a <= b for a, b in zip(orders, orders[1:]))


def test_target_errors_fall_then_sit_on_a_floor():
    # the bell input only excites a low-dimensional slice of the dynamics,
    # so target errors improve steeply early and then flatten out
    cfg = ExperimentConfig(excitations=("target",))
    rows = run_experiment(cfg)
    errs = [r.rel_output_error for r in rows]
    assert all(b <= a * 1.001 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 0.01 * errs[0]
    assert errs[-1] >= 0.5 * errs[-3]
