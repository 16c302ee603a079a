"""End-to-end acceptance checks.

Eight binding criteria, one test each, covering exact recovery, the POD
tail bound, the spectral-radius gradient, benchmark error trends, cross
excitation stability, stabilizer efficacy, the regularization floor, and
byte-level determinism of the emitted tables. Every test prints a single
PASS/FAIL line so a -s run doubles as a checklist.
"""

import time

import numpy as np
import pytest

from iodmd.harness import ExperimentConfig, run_experiment
from iodmd.identify import StateSpaceModel, fit_iodmd
from iodmd.linalg import spectral_radius, spectral_radius_gradient
from iodmd.pod import pod_basis
from iodmd.plant import simulate_discrete
from iodmd.snapshot import make_pairs


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def raw_sweep(tmp_path_factory):
    """Full benchmark sweep without regularization, unstable fits repaired."""
    out = tmp_path_factory.mktemp("sweep_raw")
    cfg = ExperimentConfig(stabilize=True, output_dir=out)
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    return {"rows": rows, "dir": out, "elapsed": time.perf_counter() - t0, "cfg": cfg}


@pytest.fixture(scope="session")
def regularized_sweep(tmp_path_factory):
    """The same sweep with the 1e-5 singular-value cutoff."""
    out = tmp_path_factory.mktemp("sweep_reg")
    cfg = ExperimentConfig(regularization_eps=1e-5, stabilize=True, output_dir=out)
    rows = run_experiment(cfg)
    return {"rows": rows, "dir": out}


def by_tag(rows, tag):
    return [r for r in rows if r.excitation == tag]


def test_criterion_1_exact_recovery_of_random_systems():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        a = rng.standard_normal((10, 10))
        a *= float(rng.uniform(0.3, 0.95)) / spectral_radius(a)
        system = StateSpaceModel(
            a=a,
            b=rng.standard_normal((10, 2)),
            c=rng.standard_normal((2, 10)),
            d=rng.standard_normal((2, 2)),
        )
        u = rng.standard_normal((2, 100))
        traj = simulate_discrete(system, u, x0=rng.standard_normal(10))
        fitted = fit_iodmd(make_pairs(traj), eps=0.0)
        for got, want in (
            (fitted.a, system.a),
            (fitted.b, system.b),
            (fitted.c, system.c),
            (fitted.d, system.d),
        ):
            worst = max(worst, float(np.linalg.norm(got - want)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-8 and elapsed < 5.0,
        f"20 systems recovered, worst block error {worst:.2e} "
        f"(bound 1e-8), {elapsed:.2f}s (bound 5s)",
    )


def test_criterion_2_pod_tail_bound_and_minimality():
    t0 = time.perf_counter()
    budgets = [10.0**-k for k in range(1, 9)]
    worst_excess = -np.inf
    minimal = True
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        x = rng.standard_normal((18, 12)) * rng.uniform(0.1, 10.0)
        norm = np.linalg.norm(x)
        s = np.linalg.svd(x, compute_uv=False)
        tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
        for budget in budgets:
            basis = pod_basis(x, budget, mode="relative")
            q = basis.modes
            err = float(np.linalg.norm(x - q @ (q.T @ x)))
            worst_excess = max(worst_excess, err - basis.discarded_energy - 1e-10 * norm)
            n = basis.order
            if n > 1 and tails[n - 1] <= budget * norm:
                minimal = False
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst_excess <= 0.0 and minimal and elapsed < 5.0,
        f"projection error within tail bound (worst excess {worst_excess:.2e}) "
        f"and mode counts minimal, {elapsed:.2f}s (bound 5s)",
    )


def test_criterion_3_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3000)
    checked = 0
    worst = 0.0
    while checked < 20:
        a = rng.standard_normal((8, 8))
        lam = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
        dominant = np.linalg.eigvals(a)[np.argmax(np.abs(np.linalg.eigvals(a)))]
        # criterion restricts to simple dominant eigenvalues: real and separated
        if abs(dominant.imag) > 1e-9 or lam[0] - lam[1] < 1e-3 * lam[0]:
            continue
        checked += 1
        grad = spectral_radius_gradient(a).matrix
        h = 1e-6
        fd = np.zeros_like(a)
        for i in range(8):
            for j in range(8):
                ap, am = a.copy(), a.copy()
                ap[i, j] += h
                am[i, j] -= h
                fd[i, j] = (spectral_radius(ap) - spectral_radius(am)) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst <= 1e-5 and elapsed < 2.0,
        f"20 matrices, worst relative gradient mismatch {worst:.2e} "
        f"(bound 1e-5), {elapsed:.2f}s (bound 2s)",
    )


def test_criterion_4_errors_fall_with_tighter_budgets(raw_sweep):
    rows, elapsed = raw_sweep["rows"], raw_sweep["elapsed"]
    ratios = {}
    for tag in ("pe_step", "ce_shifted"):
        cells = {r.budget: r.rel_output_error for r in by_tag(rows, tag)}
        ratios[tag] = cells[1e-8] / cells[1e-1]
    ok = all(v <= 0.1 for v in ratios.values()) and elapsed < 120.0
    report(
        4,
        ok,
        f"error(1e-8)/error(1e-1): pe_step {ratios['pe_step']:.2e}, "
        f"ce_shifted {ratios['ce_shifted']:.2e} (bound 0.1), "
        f"sweep {elapsed:.1f}s (bound 120s)",
    )


def test_criterion_5_cross_excitation_always_stable(raw_sweep, regularized_sweep):
    worst = 0.0
    count = 0
    for rows in (raw_sweep["rows"], regularized_sweep["rows"]):
        for tag in ("ce_shifted", "ce_random"):
            for r in by_tag(rows, tag):
                worst = max(worst, r.rho_before)
                count += 1
    report(
        5,
        count == 32 and worst < 1.0 - 1e-12,
        f"{count} cross-excitation fits, largest spectral radius {worst:.6f} "
        f"(bound 1 - 1e-12), no stabilization needed",
    )


def test_criterion_6_every_unstable_model_is_stabilized(raw_sweep, regularized_sweep):
    unstable = [
        r
        for rows in (raw_sweep["rows"], regularized_sweep["rows"])
        for r in rows
        if not r.stable_before
    ]
    assert len(raw_sweep["rows"]) == 40 and len(regularized_sweep["rows"]) == 40
    failed = [r for r in unstable if not (r.stabilized and r.rho_after < 1.0)]
    worst_ratio = max(r.stabilize_objective_ratio for r in unstable)
    worst_change = max(r.stabilize_model_change for r in unstable)
    total_wall = sum(r.wall_time_s for r in unstable)
    iters = [r.stabilize_iterations for r in unstable]
    ok = (
        len(unstable) > 0
        and not failed
        and worst_ratio <= 1000.0
        and worst_change <= 0.05
        and total_wall < 600.0
    )
    not_repaired = "".join(
        f"; not stabilized: {r.excitation} budget {r.budget:g} rho_after {r.rho_after:.6g}"
        for r in failed
    )
    report(
        6,
        ok,
        f"{len(unstable) - len(failed)} of {len(unstable)} unstable fits stabilized; "
        f"worst objective ratio {worst_ratio:.3g} (bound 1000), worst model change "
        f"{worst_change:.4%} (bound 5%), iterations {min(iters)}..{max(iters)} "
        f"(reported only), total {total_wall:.1f}s (bound 600s){not_repaired}",
    )


def test_criterion_7_regularization_floors_the_accuracy(regularized_sweep):
    rows = regularized_sweep["rows"]
    ratios = {}
    for tag in ("pe_step", "ce_shifted"):
        cells = {r.budget: r.rel_output_error for r in by_tag(rows, tag)}
        ratios[tag] = cells[1e-8] / cells[1e-6]
    ok = all(v >= 0.5 for v in ratios.values())
    report(
        7,
        ok,
        f"error(1e-8)/error(1e-6) with cutoff 1e-5: pe_step {ratios['pe_step']:.3f}, "
        f"ce_shifted {ratios['ce_shifted']:.3f} (bound 0.5: no further improvement)",
    )


def test_criterion_8_sweeps_are_byte_deterministic(raw_sweep, tmp_path_factory):
    rerun_dir = tmp_path_factory.mktemp("sweep_rerun")
    cfg = ExperimentConfig(stabilize=True, output_dir=rerun_dir)
    run_experiment(cfg)
    # rows.csv and runtimes.csv embed wall-clock measurements and are the
    # only outputs allowed to differ between runs
    same = {
        name: (raw_sweep["dir"] / name).read_bytes() == (rerun_dir / name).read_bytes()
        for name in ("errors.csv", "orders.csv", "stabilization.csv")
    }
    report(
        8,
        all(same.values()),
        f"repeat run with seed 42 byte-identical: " + ", ".join(
            f"{name} {'yes' if ok else 'NO'}" for name, ok in same.items()
        ),
    )
