"""Benchmark experiment driver for the transport plant.

One experiment is a sweep over excitation variants and projection-error
budgets. Per excitation it generates training data, builds nested POD bases
for all budgets from one range-finder factorization and projects the
snapshot pairs once onto the widest; per budget it fits a reduced ioDMD
model on the leading rows, repairs an unstable fit on the same pairs if
asked, and scores the model by replaying the bell input against the plant.
Rows land in a list, which ``emit_tables`` writes as plottable CSV tables.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .excite import EXCITATIONS, ExcitationSpec, generate_excitation
from .identify import StateSpaceModel, fit_reduced_iodmd
from .linalg import spectral_radius
from .plant import build_transport_plant, relative_output_error, simulate_discrete
from .plant import simulate_continuous  # noqa: F401 - bench/tracing.py patches this name
from .pod import PodBasis, pod_sweep
from .snapshot import SnapshotPairs, make_pairs, project_pairs
from .stabilize import NotStabilizedError, stabilize

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "run_experiment",
    "emit_tables",
]

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

    The defaults describe a cell that produced no model: order 0, infinite
    error, NaN radii. rho_* are the spectral radii before and after the
    optional stabilization step; the stabilize_* diagnostics are NaN when no
    solve ran. note carries failure tags ("not_stabilized",
    "nonfinite_output", stage errors) and is empty for clean cells. A new
    field reaches rows.csv with no further edit; a stabilization.csv column
    is one entry of _STABILIZATION_COLUMNS.
    """

    excitation: str
    budget: float
    reduced_order: int = 0
    rel_output_error: float = float("inf")
    stable_before: bool = False
    stabilized: bool = False
    stabilize_iterations: int = 0
    wall_time_s: float = 0.0
    rho_before: float = float("nan")
    rho_after: float = float("nan")
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
    row = ExperimentRow(tag, budget)
    try:
        pairs = replace(projected, x0=projected.x0[: basis.order], x1=projected.x1[: basis.order])
        # the fit and the repair take three positional arguments each, the
        # form in which bench/run.py's SweepCapture wraps them
        model = fit_reduced_iodmd(pairs, basis, cfg.regularization_eps)
        row.reduced_order = model.order
        row.rho_before = row.rho_after = spectral_radius(model.a)
        row.stable_before = bool(row.rho_before < 1.0)
        if cfg.stabilize and not row.stable_before:
            try:
                model, report = stabilize(model, pairs, 0.0)
                row.stabilized = True
            except NotStabilizedError as exc:
                # keep the unstable fit for scoring, flag the row
                row.note, report = "not_stabilized", exc.report
            row.stabilize_iterations = report.iterations_total
            row.stabilize_objective_ratio = report.final_objective_ratio
            row.stabilize_model_change = report.relative_model_change
            row.rho_after = report.final_spectral_radius
        row.rel_output_error = _score(model, u_hat, y_ref)
        if not np.isfinite(row.rel_output_error):
            row.note = f"{row.note};nonfinite_output" if row.note else "nonfinite_output"
    except Exception as exc:  # noqa: BLE001 - a broken cell must not kill the sweep
        row = ExperimentRow(tag, budget, note=f"error:{type(exc).__name__}")
    row.wall_time_s = time.perf_counter() - t0 + shared_s
    return row


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Run the sweep and return one row per (excitation, budget) cell.

    Training data, the POD spectrum and the projected snapshot pairs are
    computed once per excitation and amortized evenly into the wall times of
    that excitation's rows. Rows are returned in config order.
    """
    plant = build_transport_plant(cfg.transport_speed, cfg.dx)
    reference = generate_excitation(plant, ExcitationSpec(kind="target_input"), cfg.horizon, cfg.dt)
    u_hat, y_ref = reference.inputs, reference.outputs
    # scoring needs only the bell's input and output: free its state record
    del reference

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
            note = f"error:{type(exc).__name__}"
            return [ExperimentRow(tag, b, wall_time_s=per, note=note) for b in cfg.projection_budgets]
        shared = (time.perf_counter() - t_shared) / len(cfg.projection_budgets)
        return [
            _run_cell(cfg, tag, budget, basis, projected, u_hat, y_ref, shared)
            for budget, basis in zip(cfg.projection_budgets, bases)
        ]

    return [row for tag in cfg.excitations for row in sweep_one(tag)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path: pathlib.Path, lines: list[str]) -> pathlib.Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def _listing(
    path: pathlib.Path, rows: list[ExperimentRow], columns: dict[str, str]
) -> pathlib.Path:
    """One line per row and one column per ``{header: ExperimentRow field}``."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(getattr(r, name)) for name in columns.values()) for r in rows]
    return _write_lines(path, lines)


# stabilization.csv header -> ExperimentRow field, in column order
_STABILIZATION_COLUMNS = {
    "excitation": "excitation",
    "budget": "budget",
    "reduced_order": "reduced_order",
    "rho_before": "rho_before",
    "stabilized": "stabilized",
    "iterations": "stabilize_iterations",
    "objective_ratio": "stabilize_objective_ratio",
    "model_change": "stabilize_model_change",
    "rho_after": "rho_after",
    "note": "note",
}

_PIVOTS = {
    "errors.csv": "rel_output_error",
    "orders.csv": "reduced_order",
    "runtimes.csv": "wall_time_s",
}


def emit_tables(
    rows: list[ExperimentRow], output_dir: str | pathlib.Path
) -> dict[str, pathlib.Path]:
    """Write the row dump, three budget-by-excitation pivots and the repairs.

    errors.csv, orders.csv and runtimes.csv have one line per budget and one
    column per excitation; stabilization.csv lists every cell whose fit was
    unstable before processing, with the solve diagnostics. Column and row
    order follow first appearance in the row list, so a fixed config yields
    a fixed layout. Floats are written with repr for exact round-trips.
    """
    if not rows:
        raise ValueError("no rows to write")
    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    every_field = {f.name: f.name for f in fields(ExperimentRow)}
    paths = {"rows.csv": _listing(out / "rows.csv", rows, every_field)}

    tags = dict.fromkeys(r.excitation for r in rows)
    budgets = dict.fromkeys(r.budget for r in rows)
    for name, field in _PIVOTS.items():
        cell = {(r.excitation, r.budget): _fmt(getattr(r, field)) for r in rows}
        lines = [",".join(["budget", *tags])]
        lines += [",".join([_fmt(b), *(cell.get((t, b), "") for t in tags)]) for b in budgets]
        paths[name] = _write_lines(out / name, lines)

    # cells that never produced a model carry no spectral information
    unstable = [r for r in rows if not r.stable_before and r.reduced_order > 0]
    paths["stabilization.csv"] = _listing(
        out / "stabilization.csv", unstable, _STABILIZATION_COLUMNS
    )
    return paths
