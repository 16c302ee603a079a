"""Command-line front end.

Three subcommands: `run` executes an excitation-by-budget sweep on the
transport benchmark and writes CSV tables, `identify` fits one reduced
model from a trajectory CSV, `stabilize` repairs a saved model against the
data it was identified from. Exit code 0 means full success; 1 means an
input file cannot be read or used, reported in one line that names it; 2
means at least one sweep cell failed or the requested solve did not
succeed, and is also argparse's code for a usage error.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import re
import sys
from dataclasses import fields

from .excite import EXCITATIONS
from .harness import ExperimentConfig, emit_tables, run_experiment
from .identify import fit_reduced_iodmd, load_model_json, save_model_json
from .linalg import spectral_radius
from .linalg import truncated_svd  # noqa: F401 - bench/tracing.py patches this name
from .pod import check_budget, pod_basis
from .snapshot import load_trajectory_csv, make_pairs, project_pairs
from .stabilize import NotStabilizedError, check_tau, stabilize

__all__ = ["main", "parse_budgets"]


def parse_budgets(text: str) -> tuple[float, ...]:
    """Budget list from a comma list or a decade range like ``1e-1..1e-8``.

    The range form requires both endpoints to be powers of ten and walks
    from the first to the second one decade at a time.
    """
    text = text.strip()
    if ".." in text:
        first_s, last_s = text.split("..", 1)
        exponents = []
        for part in (first_s, last_s):
            value = float(part)
            if value <= 0.0:
                raise ValueError(f"budget {part!r} must be positive")
            k = math.log10(value)
            if abs(k - round(k)) > 1e-9:
                raise ValueError(
                    f"range endpoints must be powers of ten, got {part!r}"
                )
            exponents.append(round(k))
        k_first, k_last = exponents
        step = -1 if k_first >= k_last else 1
        return tuple(10.0**k for k in range(k_first, k_last + step, step))
    return tuple(float(part) for part in text.split(","))


class _Parser(argparse.ArgumentParser):
    """Takes ``-1e-3``, ``-inf`` and ``-nan`` for numbers, which argparse's
    own pattern (plain decimals) reads as options, leaving ``--budget`` empty."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)


def _arg_type(parse):
    """argparse type that turns the ValueError of ``parse`` into a usage
    error, so a bad value stops the command before any file is read."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _config_field(field: str, parse):
    """argparse type for the ExperimentConfig field ``field``: ``parse``
    reads the text and the config's own rule checks the value."""
    return _arg_type(lambda text: getattr(ExperimentConfig(**{field: parse(text)}), field))


def _file_in_existing_directory(text: str) -> str:
    path = pathlib.Path(text)
    if not path.parent.is_dir():
        raise ValueError(f"directory {path.parent} does not exist")
    if path.is_dir():
        raise ValueError(f"{path} is a directory")
    return text


def _directory_to_create(text: str) -> str:
    path = pathlib.Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"{existing} is not a directory")
    return text


# every subcommand writes --out after all its work, so check it first
_OUT_FILE = _arg_type(_file_in_existing_directory)
_OUT_DIR = _arg_type(_directory_to_create)


def _add_run(subparsers) -> None:
    p = subparsers.add_parser(
        "run",
        help="sweep the transport benchmark and write CSV tables",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument(
        "--excitations",
        type=_config_field(
            "excitations", lambda text: tuple(t.strip() for t in text.split(",") if t.strip())
        ),
        help=f"comma list from {{{','.join(EXCITATIONS)}}} (default: all)",
    )
    p.add_argument(
        "--budgets",
        dest="projection_budgets",
        metavar="BUDGETS",
        type=_config_field("projection_budgets", parse_budgets),
        help="comma list or decade range of projection-error budgets",
    )
    p.add_argument(
        "--reg-eps",
        dest="regularization_eps",
        metavar="REG_EPS",
        type=_config_field("regularization_eps", float),
        help="absolute singular-value cutoff of the identification solve",
    )
    p.add_argument(
        "--stabilize", action="store_true", help="repair unstable fitted models"
    )
    p.add_argument("--seed", type=_config_field("seed", int))
    p.add_argument("--out", type=_OUT_DIR, required=True, help="directory for the CSV tables")
    p.set_defaults(func=_cmd_run)


def _cmd_run(args) -> int:
    # each option stores its config field, and an option left unset is not
    # in args, so the sweep defaults live in ExperimentConfig alone
    given = vars(args)
    cfg = ExperimentConfig(
        **{f.name: given[f.name] for f in fields(ExperimentConfig) if f.name in given}
    )
    rows = run_experiment(cfg)
    emit_tables(rows, args.out)
    failed = 0
    for r in rows:
        flag = f"  [{r.note}]" if r.note else ""
        print(
            f"{r.excitation:>10s}  budget {r.budget:8.0e}  order {r.reduced_order:3d}"
            f"  error {r.rel_output_error:11.4e}  {r.wall_time_s:6.2f} s{flag}"
        )
        failed += bool(r.note)
    print(f"{len(rows)} cells, {failed} failed; tables in {args.out}")
    return 2 if failed else 0


def _add_identify(subparsers) -> None:
    p = subparsers.add_parser(
        "identify", help="fit a reduced model from a trajectory CSV"
    )
    p.add_argument("--data", required=True, help="trajectory CSV (t,x*,u*,y* columns)")
    p.add_argument(
        "--budget",
        type=_arg_type(check_budget),
        required=True,
        help="projection-error budget",
    )
    p.add_argument(
        "--budget-mode",
        choices=("relative", "absolute"),
        default="relative",
        help="interpret the budget relative to the snapshot norm or as-is",
    )
    p.add_argument("--reg-eps", type=_config_field("regularization_eps", float), default=0.0)
    p.add_argument("--out", type=_OUT_FILE, required=True, help="path of the model JSON")
    p.set_defaults(func=_cmd_identify)


def _read(load, path):
    """``load(path)``, or a one-line exit naming the file it could not read."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None


def _cmd_identify(args) -> int:
    traj = _read(load_trajectory_csv, args.data)
    try:
        basis = pod_basis(traj.states, args.budget, mode=args.budget_mode)
    except ValueError as exc:
        # the loader passes finite states; all-zero ones have no basis
        raise SystemExit(f"cannot use {args.data}: {exc}") from None
    pairs = project_pairs(make_pairs(traj), basis.modes)
    model = fit_reduced_iodmd(pairs, basis, args.reg_eps)
    save_model_json(model, args.out)
    rho = spectral_radius(model.a)
    print(
        f"order {model.order}, spectral radius {rho:.6f} "
        f"({'stable' if rho < 1.0 else 'unstable'}); model written to {args.out}"
    )
    return 0


def _add_stabilize(subparsers) -> None:
    p = subparsers.add_parser(
        "stabilize", help="repair a saved model against its identification data"
    )
    p.add_argument("--model", required=True, help="model JSON to repair")
    p.add_argument("--data", required=True, help="trajectory CSV the model was fit from")
    p.add_argument("--out", type=_OUT_FILE, required=True, help="path of the repaired model JSON")
    p.add_argument("--tau", type=_arg_type(check_tau), default=0.0, help="stability margin in [0,1)")
    p.set_defaults(func=_cmd_stabilize)


def _cmd_stabilize(args) -> int:
    model = _read(load_model_json, args.model)
    traj = _read(load_trajectory_csv, args.data)
    pairs = make_pairs(traj)
    # the stored basis decides: the data are the full-order states the fit
    # was made from, compressed with the basis the fit used
    if model.basis is not None:
        if model.basis.shape[0] != pairs.n_states:
            raise SystemExit(
                f"the basis in {args.model} has {model.basis.shape[0]} rows, "
                f"but {args.data} has {pairs.n_states} states"
            )
        pairs = project_pairs(pairs, model.basis)
    elif pairs.n_states != model.order:
        raise SystemExit(
            f"{args.model} has order {model.order} and stores no basis, so "
            f"the {pairs.n_states}-state data in {args.data} cannot be "
            "projected onto it"
        )
    try:
        repaired, report = stabilize(model, pairs, args.tau)
    except ValueError as exc:
        # the repair's own input checks: time domain and block sizes
        raise SystemExit(f"cannot use {args.model} with {args.data}: {exc}") from None
    except NotStabilizedError as exc:
        print(f"stabilization failed: {exc}", file=sys.stderr)
        return 2
    save_model_json(repaired, args.out)
    print(
        f"stabilized in {report.iterations_total} iterations: spectral radius "
        f"{report.final_spectral_radius:.9f}, objective ratio "
        f"{report.final_objective_ratio:.4g}, model change "
        f"{report.relative_model_change:.3%}; written to {args.out}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="iodmd",
        description="Data-driven reduced-order system identification toolkit.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run(subparsers)
    _add_identify(subparsers)
    _add_stabilize(subparsers)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
