"""Every name the benchmark patches or reads still exists and still works.

``bench/tracing.py`` times layers by replacing functions by name in the
package modules, and ``bench/run.py`` builds its inputs and its reference
output through the public API; a renamed or deleted name would only
surface as a crash of a benchmark run.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from iodmd.excite import ExcitationSpec
from iodmd.harness import EXCITATIONS, ExperimentConfig
from iodmd.pod import pod_sweep

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _span_sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_SITES


_SITES = sorted(
    {site for sites in _span_sites().values() for site in sites}
    # the sweep capture of bench/run.py wraps these harness names
    | {("harness", name) for name in ("generate_excitation", "fit_reduced_iodmd", "stabilize")}
)


@pytest.mark.parametrize("module_name, attr", _SITES)
def test_patched_name_resolves(module_name, attr):
    module = importlib.import_module(f"iodmd.{module_name}")
    assert callable(getattr(module, attr, None)), f"iodmd.{module_name}.{attr}"


def test_sweep_config_the_benchmark_builds():
    cfg = ExperimentConfig(
        excitations=tuple(EXCITATIONS), projection_budgets=(1e-3,), stabilize=True, seed=42
    )
    # bench/run.py rebuilds the plant and the bell reference from these
    assert cfg.transport_speed == 1.3
    assert cfg.dx == 1e-3
    assert cfg.dt == 1e-3
    assert cfg.horizon == 1.0


def test_pod_sweep_and_excitation_spec_the_benchmark_calls():
    x = np.random.default_rng(0).standard_normal((6, 8))
    bases = pod_sweep(x, (1.0, 0.1), mode="absolute")
    assert [b.requested_error for b in bases] == [1.0, 0.1]
    spec = ExcitationSpec(kind=EXCITATIONS["pe_noise"], seed=42)
    assert (spec.kind, spec.seed) == ("pe_gaussian_noise", 42)
