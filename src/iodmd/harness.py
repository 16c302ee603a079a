"""Benchmark experiment driver for the transport plant.

One experiment is a sweep over excitation variants and projection-error
budgets. Per excitation it generates training data, builds nested POD bases
for all budgets from one range-finder factorization and projects the
snapshot pairs once onto the widest; per budget it fits a reduced ioDMD
model on the leading rows, repairs an unstable fit on the same pairs if
asked, and scores the model by replaying the bell input against the plant.
Rows land in a list and, with an output directory, in plottable CSV tables.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .excite import ExcitationSpec, generate_excitation, target_input
from .identify import StateSpaceModel, fit_reduced_iodmd
from .linalg import Tolerances, spectral_radius
from .plant import (
    SimConfig,
    build_transport_plant,
    relative_output_error,
    simulate_continuous,
    simulate_discrete,
)
from .pod import PodBasis, pod_sweep
from .snapshot import SnapshotPairs, make_pairs, project_pairs
from .stabilize import NotStabilizedError, StabilizeConfig, stabilize

__all__ = [
    "EXCITATIONS",
    "ExperimentConfig",
    "ExperimentRow",
    "run_experiment",
    "emit_tables",
]

# Row tag -> excitation kind; insertion order fixes the CSV column order.
EXCITATIONS = {
    "target": "target_input",
    "pe_noise": "pe_gaussian_noise",
    "pe_step": "pe_step",
    "ce_random": "ce_gaussian_init",
    "ce_shifted": "ce_shifted_init",
}

_DEFAULT_BUDGETS = tuple(10.0**-k for k in range(1, 9))


@dataclass
class ExperimentConfig:
    """Sweep layout over the fixed benchmark plant.

    Projection budgets are absolute Frobenius tail-energy levels and must be
    strictly decreasing. regularization_eps is the absolute singular-value
    cutoff of the identification solve (0 keeps everything). The plant and
    its time grid are class constants, readable on every instance: upwind
    transport at speed 1.3 on 1000 cells, step 1e-3 over a 1 s horizon.
    """

    excitations: tuple[str, ...] = tuple(EXCITATIONS)
    projection_budgets: tuple[float, ...] = _DEFAULT_BUDGETS
    regularization_eps: float = 0.0
    stabilize: bool = False
    seed: int = 42
    output_dir: str | pathlib.Path | None = None
    transport_speed: ClassVar[float] = 1.3
    dx: ClassVar[float] = 1e-3
    dt: ClassVar[float] = 1e-3
    horizon: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        self.excitations = tuple(self.excitations)
        if not self.excitations:
            raise ValueError("need at least one excitation")
        unknown = [tag for tag in self.excitations if tag not in EXCITATIONS]
        if unknown:
            raise ValueError(
                f"unknown excitation tags {unknown}; valid tags: {tuple(EXCITATIONS)}"
            )
        if len(set(self.excitations)) != len(self.excitations):
            raise ValueError("duplicate excitation tags")
        self.projection_budgets = tuple(float(b) for b in self.projection_budgets)
        if not self.projection_budgets:
            raise ValueError("need at least one projection budget")
        if any(not b > 0.0 for b in self.projection_budgets):
            raise ValueError("projection budgets must be positive")
        if any(
            b1 <= b2
            for b1, b2 in zip(self.projection_budgets, self.projection_budgets[1:])
        ):
            raise ValueError("projection budgets must be strictly decreasing")
        if not self.regularization_eps >= 0.0:
            raise ValueError("regularization_eps must be >= 0")
        # the spec the sweep builds from the seed checks it
        ExcitationSpec(kind=EXCITATIONS[self.excitations[0]], seed=self.seed)


@dataclass
class ExperimentRow:
    """One cell of the sweep: how the model was built and how it scored.

    rho_* are the spectral radii before and after the optional stabilization
    step; the stabilize_* diagnostics are NaN when no solve ran. note carries
    failure tags ("not_stabilized", "nonfinite_output", stage errors) and is
    empty for clean cells.
    """

    excitation: str
    budget: float
    reduced_order: int
    rel_output_error: float
    stable_before: bool
    stabilized: bool
    stabilize_iterations: int
    wall_time_s: float
    rho_before: float
    rho_after: float
    stabilize_objective_ratio: float = float("nan")
    stabilize_model_change: float = float("nan")
    note: str = ""


def _score(model: StateSpaceModel, u_hat: np.ndarray, y_ref: np.ndarray) -> float:
    """Relative output error of the model replaying the bell input.

    The model starts from the zero reduced state, matching the plant's zero
    initial condition under any orthonormal projection. Unstable models
    overflow in finite arithmetic; that surfaces as an infinite error, also
    when the replay stays finite but the error norm overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y_test = simulate_discrete(model, u_hat).outputs
        if not np.all(np.isfinite(y_test)):
            return float("inf")
        return relative_output_error(y_ref, y_test)


def _failed_row(tag: str, budget: float, note: str, wall_s: float) -> ExperimentRow:
    nan = float("nan")
    return ExperimentRow(
        excitation=tag,
        budget=budget,
        reduced_order=0,
        rel_output_error=float("inf"),
        stable_before=False,
        stabilized=False,
        stabilize_iterations=0,
        wall_time_s=wall_s,
        rho_before=nan,
        rho_after=nan,
        note=note,
    )


def _run_cell(
    cfg: ExperimentConfig,
    tag: str,
    budget: float,
    basis: PodBasis,
    projected: SnapshotPairs,
    u_hat: np.ndarray,
    y_ref: np.ndarray,
    shared_s: float,
) -> ExperimentRow:
    t0 = time.perf_counter()
    note = ""
    nan = float("nan")
    try:
        pairs = replace(projected, x0=projected.x0[: basis.order], x1=projected.x1[: basis.order])
        model = fit_reduced_iodmd(
            pairs, basis, Tolerances(svd_truncation_eps=cfg.regularization_eps)
        )
        rho_before = spectral_radius(model.a)
        stable_before = bool(rho_before < 1.0)
        stabilized = False
        iterations = 0
        ratio = nan
        change = nan
        rho_after = rho_before
        if cfg.stabilize and not stable_before:
            try:
                model, report = stabilize(model, pairs, StabilizeConfig())
                stabilized = True
            except NotStabilizedError as exc:
                # keep the unstable fit for scoring, flag the row
                note = "not_stabilized"
                report = exc.report
            iterations = report.iterations_total
            ratio = report.final_objective_ratio
            change = report.relative_model_change
            rho_after = report.final_spectral_radius
        error = _score(model, u_hat, y_ref)
        if not np.isfinite(error):
            note = f"{note};nonfinite_output" if note else "nonfinite_output"
    except Exception as exc:  # noqa: BLE001 - a broken cell must not kill the sweep
        wall = time.perf_counter() - t0 + shared_s
        return _failed_row(tag, budget, f"error:{type(exc).__name__}", wall)
    return ExperimentRow(
        excitation=tag,
        budget=budget,
        reduced_order=model.order,
        rel_output_error=error,
        stable_before=stable_before,
        stabilized=stabilized,
        stabilize_iterations=iterations,
        wall_time_s=time.perf_counter() - t0 + shared_s,
        rho_before=rho_before,
        rho_after=rho_after,
        stabilize_objective_ratio=ratio,
        stabilize_model_change=change,
        note=note,
    )


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Run the sweep and return one row per (excitation, budget) cell.

    Training data, the POD spectrum and the projected snapshot pairs are
    computed once per excitation and amortized evenly into the wall times of
    that excitation's rows. Rows are always returned in config order; when
    cfg.output_dir is set the CSV tables are written as well.
    """
    plant = build_transport_plant(cfg.transport_speed, cfg.dx)
    eval_cfg = SimConfig(dt=cfg.dt, horizon=cfg.horizon, input_timing="start")
    times = np.arange(eval_cfg.n_steps + 1) * cfg.dt
    u_hat = np.tile(target_input(times), (plant.n_inputs, 1))
    y_ref = simulate_continuous(plant, u_hat, None, eval_cfg).outputs

    def sweep_one(tag: str) -> list[ExperimentRow]:
        t_shared = time.perf_counter()
        try:
            spec = ExcitationSpec(kind=EXCITATIONS[tag], seed=cfg.seed)
            traj = generate_excitation(plant, spec, cfg.horizon, cfg.dt)
            bases = pod_sweep(traj.states, cfg.projection_budgets, mode="absolute")
            widest = max(bases, key=lambda basis: basis.order)
            projected = project_pairs(make_pairs(traj), widest.modes)
        except Exception as exc:  # noqa: BLE001 - failure becomes row tags
            per = (time.perf_counter() - t_shared) / len(cfg.projection_budgets)
            return [
                _failed_row(tag, b, f"error:{type(exc).__name__}", per)
                for b in cfg.projection_budgets
            ]
        shared = (time.perf_counter() - t_shared) / len(cfg.projection_budgets)
        return [
            _run_cell(cfg, tag, budget, basis, projected, u_hat, y_ref, shared)
            for budget, basis in zip(cfg.projection_budgets, bases)
        ]

    rows = [row for tag in cfg.excitations for row in sweep_one(tag)]
    if cfg.output_dir is not None:
        emit_tables(rows, cfg.output_dir)
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path: pathlib.Path, lines: list[str]) -> pathlib.Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def _first_seen(values) -> list:
    seen = []
    for v in values:
        if v not in seen:
            seen.append(v)
    return seen


def emit_tables(
    rows: list[ExperimentRow], output_dir: str | pathlib.Path
) -> dict[str, pathlib.Path]:
    """Write the row dump plus four pivoted budget-by-excitation tables.

    errors.csv, orders.csv and runtimes.csv have one line per budget and one
    column per excitation; stabilization.csv lists every cell that was
    unstable before processing with the solve diagnostics. Column and row
    order follow first appearance in the row list, so a fixed config yields
    a fixed layout. Floats are written with repr for exact round-trips.
    """
    if not rows:
        raise ValueError("no rows to write")
    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tags = _first_seen([r.excitation for r in rows])
    budgets = _first_seen([r.budget for r in rows])
    by_cell = {(r.excitation, r.budget): r for r in rows}

    paths: dict[str, pathlib.Path] = {}
    row_fields = [f.name for f in fields(ExperimentRow)]
    lines = [",".join(row_fields)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, name)) for name in row_fields))
    paths["rows.csv"] = _write_lines(out / "rows.csv", lines)

    pivots = (
        ("errors.csv", lambda r: _fmt(r.rel_output_error)),
        ("orders.csv", lambda r: _fmt(r.reduced_order)),
        ("runtimes.csv", lambda r: _fmt(r.wall_time_s)),
    )
    for name, getter in pivots:
        lines = ["budget," + ",".join(tags)]
        for budget in budgets:
            cells = [
                getter(by_cell[(tag, budget)]) if (tag, budget) in by_cell else ""
                for tag in tags
            ]
            lines.append(_fmt(budget) + "," + ",".join(cells))
        paths[name] = _write_lines(out / name, lines)

    lines = [
        "excitation,budget,reduced_order,rho_before,stabilized,iterations,"
        "objective_ratio,model_change,rho_after,note"
    ]
    for r in rows:
        # cells that never produced a model carry no spectral information
        if r.stable_before or r.reduced_order == 0:
            continue
        lines.append(
            ",".join(
                (
                    r.excitation,
                    _fmt(r.budget),
                    _fmt(r.reduced_order),
                    _fmt(r.rho_before),
                    _fmt(r.stabilized),
                    _fmt(r.stabilize_iterations),
                    _fmt(r.stabilize_objective_ratio),
                    _fmt(r.stabilize_model_change),
                    _fmt(r.rho_after),
                    r.note,
                )
            )
        )
    paths["stabilization.csv"] = _write_lines(out / "stabilization.csv", lines)
    return paths
