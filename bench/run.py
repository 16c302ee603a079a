"""Benchmark of the iodmd pipeline: the paper sweep, a fit-only sweep and
the command-line file round trip.

Run from the repository root:

    python3 bench/run.py --workload sweep_and_cli --seed 1 --seconds 50 --trace 0

It imports the package from ``src/``, times whole passes of the workload
for about ``--seconds`` seconds, checks the outputs against computations of
its own (``checks.py``) and prints one JSON object as its last line:
``correct``, ``attempted`` and ``failed`` operations, and the metrics. With
``--trace 0`` these are the end-to-end metrics (median pass wall time,
set-up time, peak memory, worst objective ratio); with ``--trace 1`` the
run adds one traced pass and prints the per-layer metrics of
``tracing.py`` together with the tracing overhead. The spans of a traced
pass are written to ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# Pin the BLAS before numpy loads: the stabilizer's path depends on the
# thread count, and every workload runs the package's serial sweep.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("IODMD_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import fields  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
SETUP_CHILD = """\
import time
import numpy, scipy, scipy.linalg, scipy.sparse
import iodmd
iodmd.build_transport_plant(1.3, 1e-3)
print(repr(time.monotonic()))
"""

PAPER_BUDGETS = tuple(10.0**-k for k in range(1, 9))
# The pe_noise record whose fits the stabilizer repairs. Its path is
# chaotic in the noise realization (one budget-1e-1 cell takes 12 to 623
# iterations over seeds 1-4), so the repaired workloads keep the paper's
# seed and --seed varies only what leaves the work unchanged.
PAPER_SEED = 42
SWEEP_TAGS = ("target", "pe_noise", "pe_step", "ce_random", "ce_shifted")
FIT_TAGS = ("target", "pe_step", "ce_random", "ce_shifted")
CLI_BUDGET = "1e-1"


def environment() -> dict:
    """Python, numpy, scipy, BLAS and processor facts of this run."""
    blas = {}
    with contextlib.suppress(KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup() -> float:
    """Median time from process start until iodmd is imported and the
    transport plant is built, over fresh interpreter processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


class SweepCapture:
    """Keeps, per sweep cell, copies of the fitted and the repaired model.

    Wraps the names ``harness`` calls; the copies are small (order at most
    about 100) and nothing large is held between cells, so the capture
    leaves the pass's time and memory alone.
    """

    def __init__(self, harness):
        self.harness = harness
        self.fits: dict = {}
        self.repairs: dict = {}
        self._kind = None
        self._cell = None

    def reset(self) -> None:
        self.fits.clear()
        self.repairs.clear()

    def _generate(self, fn):
        def generate(plant, spec, *args, **kwargs):
            self._kind = spec.kind
            return fn(plant, spec, *args, **kwargs)

        return generate

    def _fit(self, fn):
        def fit(pairs, basis, tol):
            model = fn(pairs, basis, tol)
            self._cell = (self._kind, basis.requested_error)
            self.fits[self._cell] = model.blocks()
            return model

        return fit

    def _stabilize(self, fn):
        def stabilize(model, pairs, config):
            z0 = model.blocks()
            repaired, report = fn(model, pairs, config)
            reduced = (pairs.x0, pairs.x1, pairs.u0, pairs.y0)
            self.repairs[self._cell] = (z0, repaired.blocks(), reduced)
            return repaired, report

        return stabilize

    def installed(self):
        """Context in which the harness calls go through the capture."""
        return tracing.patched([
            (self.harness, "generate_excitation", self._generate),
            (self.harness, "fit_reduced_iodmd", self._fit),
            (self.harness, "stabilize", self._stabilize),
        ])


def bell(times):
    """The benchmark's reference input, written out here: a Gaussian bell
    of unit height centered at t = 0.1 with width parameter 1000."""
    return np.exp(-((np.asarray(times) - 0.1) ** 2) / 1000.0)


class Sweep:
    """One pass is one ``run_experiment`` call; an operation is one cell."""

    def __init__(self, tags, budgets, stabilize, seeded):
        self.tags = tags
        self.budgets = budgets
        self.stabilize = stabilize
        # seeded: --seed drives the ce_random initial state; otherwise the
        # inputs keep PAPER_SEED and --seed only orders the excitations
        self.seeded = seeded

    def prepare(self, iodmd, seed: int) -> None:
        self.iodmd = iodmd
        tags = list(self.tags)
        if not self.seeded:
            random.Random(seed).shuffle(tags)
        self.cfg = iodmd.harness.ExperimentConfig(
            excitations=tuple(tags),
            projection_budgets=self.budgets,
            stabilize=self.stabilize,
            seed=seed % 2**32 if self.seeded else PAPER_SEED,
        )
        self.capture = SweepCapture(iodmd.harness)
        times = np.arange(int(round(self.cfg.horizon / self.cfg.dt)) + 1) * self.cfg.dt
        self.u_hat = bell(times)

    def session(self):
        return self.capture.installed()

    def run_pass(self):
        self.capture.reset()
        rows = self.iodmd.harness.run_experiment(self.cfg)
        return [repr(_row_result(r)) for r in rows], rows

    @staticmethod
    def program_failures(result) -> list[int]:
        return [i for i, r in enumerate(result[1]) if r.note]

    def check(self, result) -> tuple[dict, dict]:
        rows = result[1]
        cfg = self.cfg
        fails: dict[int, list[str]] = {}

        def fail(i: int, message: str) -> None:
            fails.setdefault(i, []).append(message)

        tags = self.iodmd.harness.EXCITATIONS
        y_ref = checks.transport_output(self.u_hat, cfg.transport_speed, cfg.dx, cfg.dt)
        ratios, changes = [1.0], [0.0]
        for i, r in enumerate(rows):
            cell = (tags[r.excitation], r.budget)
            name = f"{r.excitation}@{r.budget:g}"
            if r.note:
                continue  # a failed operation, counted by program_failures
            z = self.capture.fits.get(cell)
            if z is None:
                fail(i, f"{name}: no fitted model")
                continue
            order = r.reduced_order
            if z.shape[0] != order + 1:
                fail(i, f"{name}: row order {order}, fitted {z.shape[0] - 1}")
                continue
            rho_fit = checks.spectral_radius(z[:order, :order])
            repair = self.capture.repairs.get(cell)
            if repair is not None:
                z0, z, reduced = repair
                if not np.array_equal(z0, self.capture.fits[cell]):
                    fail(i, f"{name}: stabilizer was given another model than the fit")
                rho = checks.spectral_radius(z[:order, :order])
                change = checks.relative_change(z, z0)
                ratio = checks.misfit(z, *reduced) / checks.misfit(z0, *reduced)
                changes.append(change)
                ratios.append(ratio)
                if not rho < 1.0:
                    fail(i, f"{name}: repaired spectral radius {rho!r}")
                if not change <= checks.MAX_MODEL_CHANGE:
                    fail(i, f"{name}: model change {change:.4%}")
                if not ratio <= checks.MAX_OBJECTIVE_RATIO:
                    fail(i, f"{name}: objective ratio {ratio:.4g}")
            elif rho_fit >= 1.0 and (cfg.stabilize or r.excitation.startswith("ce_")):
                fail(i, f"{name}: unrepaired fit has spectral radius {rho_fit!r}")
            mismatch = checks.replay_mismatch(
                y_ref, checks.replay_output(z, order, self.u_hat), r.rel_output_error
            )
            if not mismatch <= checks.REPLAY_TOL:
                fail(i, f"{name}: bell replay disagrees with the row by {mismatch:.3g}")

        self._check_pod(rows, fail)
        for tag in ("pe_step", "ce_shifted"):
            errs = {r.budget: (i, r.rel_output_error) for i, r in enumerate(rows) if r.excitation == tag}
            first, last = self.budgets[0], self.budgets[-1]
            if first in errs and last in errs and last <= 1e-8:
                i, tight = errs[last]
                fall = errs[first][1] / tight
                if not fall >= checks.MIN_ERROR_FALL:
                    fail(i, f"{tag}: error falls only {fall:.3g}x from {first:g} to {last:g}")
        metrics = {
            "worst_objective_ratio": max(ratios),
            "worst_model_change_pct": 100.0 * max(changes),
        }
        return fails, metrics

    def _check_pod(self, rows, fail) -> None:
        """Every basis meets its budget on the excitation's state record."""
        iodmd, cfg = self.iodmd, self.cfg
        plant = iodmd.plant.build_transport_plant(cfg.transport_speed, cfg.dx)
        index = {(r.excitation, r.budget): i for i, r in enumerate(rows)}
        for tag in cfg.excitations:
            spec = iodmd.excite.ExcitationSpec(kind=iodmd.harness.EXCITATIONS[tag], seed=cfg.seed)
            states = iodmd.excite.generate_excitation(plant, spec, cfg.horizon, cfg.dt).states
            bases = iodmd.pod.pod_sweep(states, cfg.projection_budgets, mode="absolute")
            for budget, basis in zip(cfg.projection_budgets, bases):
                i = index[(tag, budget)]
                if basis.order != rows[i].reduced_order:
                    fail(i, f"{tag}@{budget:g}: basis order {basis.order}, row {rows[i].reduced_order}")
                excess = checks.pod_excess(states, basis.modes, budget)
                if excess > 0.0:
                    fail(i, f"{tag}@{budget:g}: projection error exceeds the budget by {excess:.3g}")


def _row_result(row) -> dict:
    """A row without its wall time: what must repeat exactly between passes."""
    return {f.name: getattr(row, f.name) for f in fields(row) if f.name != "wall_time_s"}


class CliRoundtrip:
    """Write the trajectory CSV, identify, stabilize, load the result.

    An operation is one CLI subcommand; a pass makes two.
    """

    def prepare(self, iodmd, seed: int) -> None:
        self.iodmd = iodmd
        plant = iodmd.plant.build_transport_plant(1.3, 1e-3)
        spec = iodmd.excite.ExcitationSpec(kind="pe_gaussian_noise", seed=PAPER_SEED)
        self.traj = iodmd.excite.generate_excitation(plant, spec, 1.0, 1e-3)
        self.work = OUT_DIR / f"cli-{os.getpid()}"
        self.csv = self.work / "traj.csv"
        self.fitted = self.work / "model.json"
        self.repaired = self.work / "stable.json"

    @contextlib.contextmanager
    def session(self):
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            yield
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def run_pass(self):
        iodmd = self.iodmd
        for path in (self.fitted, self.repaired):
            path.unlink(missing_ok=True)
        iodmd.snapshot.save_trajectory_csv(self.traj, self.csv)
        # the subcommands' reports go to stderr: stdout ends with the result
        with contextlib.redirect_stdout(sys.stderr):
            codes = (
                iodmd.cli.main(
                    ["identify", "--data", str(self.csv), "--budget", CLI_BUDGET,
                     "--budget-mode", "absolute", "--out", str(self.fitted)]
                ),
                iodmd.cli.main(
                    ["stabilize", "--model", str(self.fitted), "--data", str(self.csv),
                     "--out", str(self.repaired)]
                ),
            )
        model = iodmd.identify.load_model_json(self.repaired) if codes[1] == 0 else None
        # per subcommand: its exit code and a digest of the model it wrote
        outputs = [f"{code} {_digest(path)}" for code, path in zip(codes, (self.fitted, self.repaired))]
        return outputs, (codes, model)

    @staticmethod
    def program_failures(result) -> list[int]:
        return [i for i, code in enumerate(result[1][0]) if code != 0]

    def check(self, result) -> tuple[dict, dict]:
        codes, loaded = result[1]
        if any(codes):
            return {}, {}  # failed operations, counted by program_failures
        traj = self.traj
        identify_fails: list[str] = []
        stabilize_fails: list[str] = []

        table = _read_csv(self.csv)
        expected = np.vstack([traj.times, traj.states, traj.inputs, traj.outputs]).T
        if table.shape != expected.shape or not np.array_equal(
            table.view(np.uint64), expected.view(np.uint64)
        ):
            identify_fails.append("trajectory CSV does not read back bit-identical")

        fitted, order = _read_model(self.fitted)
        repaired, order_after = _read_model(self.repaired)
        x = traj.states
        tails = checks.pod_tails(x)
        budget = float(CLI_BUDGET)
        if not (tails[order] <= budget < tails[order - 1]):
            identify_fails.append(f"order {order} is not the smallest meeting budget {budget:g}")
        u, _, _ = np.linalg.svd(x, full_matrices=False)
        q = u[:, :order]
        if checks.pod_excess(x, q, budget) > 0.0:
            identify_fails.append("projection error exceeds the budget")
        xr = q.T @ x
        reduced = (xr[:, :-1], xr[:, 1:], traj.inputs[:, :-1], traj.outputs[:, :-1])
        # the fit is the least-squares solution on these pairs: its
        # normal-equation residual vanishes (this also pins the basis signs)
        data = np.vstack(reduced[::2])
        target = np.vstack(reduced[1::2])
        normal = np.linalg.norm((fitted @ data - target) @ data.T)
        scale = np.linalg.norm(fitted) * np.linalg.norm(data @ data.T)
        if not normal <= 1e-9 * scale:
            identify_fails.append(f"fit is not least squares (normal residual {normal / scale:.3g})")

        rho = checks.spectral_radius(repaired[:order_after, :order_after])
        change = checks.relative_change(repaired, fitted)
        ratio = checks.misfit(repaired, *reduced) / checks.misfit(fitted, *reduced)
        if order_after != order:
            stabilize_fails.append(f"repaired order {order_after}, fitted {order}")
        if not rho < 1.0:
            stabilize_fails.append(f"repaired spectral radius {rho!r}")
        if not change <= checks.MAX_MODEL_CHANGE:
            stabilize_fails.append(f"model change {change:.4%}")
        if not ratio <= checks.MAX_OBJECTIVE_RATIO:
            stabilize_fails.append(f"objective ratio {ratio:.4g}")
        if loaded is None or not np.array_equal(loaded.blocks(), repaired):
            stabilize_fails.append("load_model_json disagrees with the JSON text")
        fails = {i: m for i, m in enumerate((identify_fails, stabilize_fails)) if m}
        metrics = {"worst_objective_ratio": ratio, "worst_model_change_pct": 100.0 * change}
        return fails, metrics


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def _read_csv(path: Path):
    with open(path) as fh:
        fh.readline()
        return np.array([[float(v) for v in line.split(",")] for line in fh])


def _read_model(path: Path):
    doc = json.loads(Path(path).read_text())
    z = np.block([[np.array(doc["A"]), np.array(doc["B"])], [np.array(doc["C"]), np.array(doc["D"])]])
    return z, doc["order"]


class SweepAndCli:
    """The stabilized sweep at budget 1e-3, then the CLI round trip.

    The two repair paths in one pass: the sweep repairs the order-63
    pe_noise fit with the limited-memory history, the CLI the order-47 one
    with full-memory BFGS. Operations are the sweep's cells, then the two
    subcommands.
    """

    def __init__(self):
        self.sweep = Sweep(SWEEP_TAGS, (1e-3,), stabilize=True, seeded=False)
        self.cli = CliRoundtrip()

    def prepare(self, iodmd, seed: int) -> None:
        self.sweep.prepare(iodmd, seed)
        self.cli.prepare(iodmd, seed)

    @contextlib.contextmanager
    def session(self):
        with self.sweep.session(), self.cli.session():
            yield

    def run_pass(self):
        sweep, cli = self.sweep.run_pass(), self.cli.run_pass()
        return sweep[0] + cli[0], (sweep, cli)

    def program_failures(self, result) -> list[int]:
        sweep, cli = result[1]
        cells = len(sweep[0])
        return self.sweep.program_failures(sweep) + [
            cells + i for i in self.cli.program_failures(cli)
        ]

    def check(self, result) -> tuple[dict, dict]:
        sweep, cli = result[1]
        fails, metrics = self.sweep.check(sweep)
        cli_fails, cli_metrics = self.cli.check(cli)
        fails.update({len(sweep[0]) + i: m for i, m in cli_fails.items()})
        for name, value in cli_metrics.items():
            metrics[name] = max(metrics.get(name, value), value)
        return fails, metrics


WORKLOADS = {
    "sweep_and_cli": SweepAndCli,
    "fit_sweep": lambda: Sweep(FIT_TAGS, PAPER_BUDGETS, stabilize=False, seeded=True),
    # the full 40-cell stabilized table, the ROADMAP's end-to-end figure;
    # one pass takes over a minute, too long for the timed runs
    "paper_sweep_full": lambda: Sweep(SWEEP_TAGS, PAPER_BUDGETS, stabilize=True, seeded=False),
}


def timed_passes(run_pass, seconds: float):
    """Whole passes until another one would end after ``seconds``."""
    walls, results = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_pass())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iodmd" / "__init__.py").is_file():
        print(f"no iodmd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import iodmd
    import iodmd.cli

    if not Path(iodmd.__file__).resolve().is_relative_to(SRC):
        print(f"iodmd imported from {iodmd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env", json.dumps(env), flush=True)
    setup_s = measure_setup()

    workload = WORKLOADS[args.workload]()
    workload.prepare(iodmd, args.seed)
    with workload.session():
        walls, results = timed_passes(workload.run_pass, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spans = []
        if args.trace:
            # the package re-exports the function stabilize over its module
            modules = {name: importlib.import_module(f"iodmd.{name}") for name in (
                "harness", "pod", "snapshot", "identify", "stabilize", "cli")}
            tracer = tracing.Tracer(modules)
            with tracer.installed():
                t0 = time.perf_counter()
                results.append(workload.run_pass())
                traced_wall = time.perf_counter() - t0
            spans = tracer.spans
        t0 = time.perf_counter()
        fails, quality = workload.check(results[-1])
        print(f"checks took {time.perf_counter() - t0:.2f} s", flush=True)
    wall_s = statistics.median(walls)
    print(f"passes {len(walls)}: " + ", ".join(f"{w:.3f}" for w in walls) + " s", flush=True)

    # every pass must produce the same outputs; a deterministic failure then
    # repeats in every pass, so failed stays the same share of attempted.
    # An operation fails on the program's report or on a failed check, and
    # any failed check makes the run incorrect.
    global_fails = []
    if any(r[0] != results[-1][0] for r in results):
        global_fails.append("passes disagree on their outputs")
    failing = set(fails) | set(workload.program_failures(results[-1]))
    ops = len(results[-1][0])
    attempted = ops * len(results)
    failed = len(failing) * len(results)
    for i in sorted(fails):
        for message in fails[i]:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
    for message in global_fails:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    correct = not fails and not global_fails

    if args.trace:
        layers = tracing.layer_metrics(spans, traced_wall)
        layers["stabilize.worst_model_change_pct"] = (quality.get("worst_model_change_pct", 0.0), "%")
        layers["trace.overhead_s"] = (traced_wall - wall_s, "s")
        layers["trace.spans"] = (float(len(spans)), "count")
        _write_spans(args, env, spans, layers)
        metrics = layers
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "worst_objective_ratio": (quality.get("worst_objective_ratio", 0.0), "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _write_spans(args, env, spans, layers) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "metrics": {k: v[0] for k, v in layers.items()},
        "spans": [[n, s - t0, e - t0, p, x] for n, s, e, p, x in spans],
    }
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
