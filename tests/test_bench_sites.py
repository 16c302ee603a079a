"""Every name the benchmark's tracer and sweep capture patch still exists.

``bench/tracing.py`` times layers by replacing functions by name in the
package modules; a renamed or deleted function would only surface as a
crash of a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

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
