#!/usr/bin/env python3
"""Run the transport benchmark in its four standard variants.

Each variant sweeps the five excitation strategies against the eight
projection budgets 1e-1 .. 1e-8 and writes a table set (rows.csv,
errors.csv, orders.csv, runtimes.csv, stabilization.csv) into its own
subdirectory of --out. A compact error table per variant goes to stdout.

Variants:
    plain                   exact pseudoinverse, unstable fits kept as-is
    stabilized              exact pseudoinverse + post-hoc stabilization
    regularized             singular values below 1e-5 discarded
    regularized_stabilized  both
"""

import argparse
import pathlib
import sys
import time

from iodmd.harness import ExperimentConfig, _first_seen, run_experiment

VARIANTS = {
    "plain": {"regularization_eps": 0.0, "stabilize": False},
    "stabilized": {"regularization_eps": 0.0, "stabilize": True},
    "regularized": {"regularization_eps": 1e-5, "stabilize": False},
    "regularized_stabilized": {"regularization_eps": 1e-5, "stabilize": True},
}


def print_error_table(rows):
    tags = _first_seen([r.excitation for r in rows])
    budgets = _first_seen([r.budget for r in rows])
    cell = {(r.excitation, r.budget): r for r in rows}
    print(f"  {'budget':>8}  " + "  ".join(f"{t:>12}" for t in tags))
    for b in budgets:
        line = [f"  {b:>8.0e}"]
        for t in tags:
            r = cell[(t, b)]
            mark = "" if r.stable_before else ("s" if r.stabilized else "!")
            line.append(f"{r.rel_output_error:>11.3e}{mark or ' '}")
        print("  ".join(line))
    print("  (s = stabilized after the fit, ! = left unstable)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("benchmark_out"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(VARIANTS),
        help="run only this variant (repeatable)",
    )
    args = parser.parse_args(argv)

    failed_repairs = 0
    for name in args.only or list(VARIANTS):
        cfg = ExperimentConfig(
            seed=args.seed, output_dir=args.out / name, **VARIANTS[name]
        )
        t0 = time.perf_counter()
        rows = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        print(f"\n== {name} ({elapsed:.1f}s, tables in {args.out / name}) ==")
        print_error_table(rows)
        if cfg.stabilize:
            failed_repairs += sum(
                1 for r in rows if not r.stable_before and not r.stabilized
            )
    return 0 if failed_repairs == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
