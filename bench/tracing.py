"""Spans around the public functions of the iodmd modules, taken from outside.

The package modules import each other's functions by name (``from .linalg
import spectral_radius``), so a call is only seen if the wrapper replaces
the name in the module that makes the call. ``SPAN_SITES`` lists, for each
span name, every (module, attribute) through which the benchmark's
workloads reach that function. Nothing under ``src/`` changes: the
wrappers are installed for one traced pass and removed after it.

A span is ``(name, start, end, parent, extra)``; ``parent`` is the index of
the span that was open when it started (-1 at the top) and ``extra`` holds
counts read off the call's arguments or result (solver iterations, file
bytes). Spans live in a list and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

# span name -> (module, attribute) pairs that route the workloads' calls
SPAN_SITES = {
    "plant.simulate_continuous": [("harness", "simulate_continuous")],
    "plant.simulate_discrete": [("harness", "simulate_discrete")],
    "excite.generate": [("harness", "generate_excitation")],
    "pod.sweep": [("harness", "pod_sweep"), ("cli", "pod_basis")],
    # the SVD inside pod_sweep, and the CLI's re-SVD of the CSV states
    "pod.svd": [("pod", "truncated_svd"), ("cli", "truncated_svd")],
    "snapshot.project": [
        ("harness", "project_pairs"),
        ("identify", "project_pairs"),
        ("cli", "project_pairs"),
    ],
    "snapshot.csv_write": [("snapshot", "save_trajectory_csv")],
    "snapshot.csv_read": [("cli", "load_trajectory_csv")],
    "identify.fit": [("harness", "fit_reduced_iodmd"), ("cli", "fit_reduced_iodmd")],
    "identify.json": [
        ("cli", "save_model_json"),
        ("cli", "load_model_json"),
        ("identify", "load_model_json"),
    ],
    "stabilize.solve": [("harness", "stabilize"), ("cli", "stabilize")],
    # only the calls made from inside the stabilizer
    "linalg.spectral_radius": [("stabilize", "spectral_radius")],
    "linalg.radius_gradient": [("stabilize", "spectral_radius_gradient")],
    # the stabilizer's own decompositions: one eig per tied-gradient call,
    # one real Schur form per clip
    "stabilize.tied_gradients": [("stabilize", "_tied_modulus_gradients")],
    "stabilize.modulus_clip": [("stabilize", "_modulus_clip_shift")],
    "cli.main": [("cli", "main")],
}


def _file_bytes(name, args, kwargs, result) -> dict:
    path = args[1] if name == "snapshot.csv_write" else args[0]
    return {"bytes": os.path.getsize(path)}


def _solver_iterations(name, args, kwargs, result) -> dict:
    return {"iterations": result[1].iterations_total}


_EXTRA = {
    "snapshot.csv_write": _file_bytes,
    "snapshot.csv_read": _file_bytes,
    "stabilize.solve": _solver_iterations,
}


@contextlib.contextmanager
def patched(sites):
    """Replace ``module.attr`` by ``make(original)`` for each
    ``(module, attr, make)`` in ``sites``; restore the originals on exit."""
    saved = []
    try:
        for module, attr, make in sites:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, make(fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self._open: list[int] = []

    def installed(self):
        """Context in which every site of ``SPAN_SITES`` records spans."""
        return patched(
            (self.modules[module_name], attr, functools.partial(self._wrap, name))
            for name, sites in SPAN_SITES.items()
            for module_name, attr in sites
        )
    def _wrap(self, name: str, fn):
        spans, open_stack = self.spans, self._open
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_stack[-1] if open_stack else -1
            index = len(spans)
            spans.append(None)
            open_stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_stack.pop()
                spans[index] = (name, start, end, parent, {})
            if extra is not None:
                spans[index][4].update(extra(name, args, kwargs, result))
            return result

        return traced


def _outermost(spans: list[tuple], layer: str) -> list[tuple]:
    """Spans of ``layer`` (a name prefix) with no ancestor of the same layer."""
    out = []
    for span in spans:
        parent = span[3]
        while parent >= 0 and not spans[parent][0].startswith(layer):
            parent = spans[parent][3]
        if span[0].startswith(layer) and parent < 0:
            out.append(span)
    return out


def _busy(spans: list[tuple]) -> float:
    return float(sum(s[2] - s[1] for s in spans))


def layer_metrics(spans: list[tuple], wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer busy seconds and counts of one traced pass.

    Times are inclusive: ``linalg.*`` spans sit inside ``stabilize.solve``,
    and ``snapshot.project`` spans also run inside ``identify.fit``.
    ``harness.self_s`` is the pass's wall time not covered by any top-level
    span; ``cli.self_s`` is the time inside ``cli.main`` not covered by a
    nested span.
    """

    def named(name: str) -> list[tuple]:
        return [s for s in spans if s[0] == name]

    def count(name: str) -> float:
        return float(len(named(name)))

    solves = named("stabilize.solve")
    iterations = float(sum(s[4].get("iterations", 0) for s in solves))
    radius_calls = count("linalg.spectral_radius")
    gradient_calls = count("linalg.radius_gradient")
    tied_calls = count("stabilize.tied_gradients")
    clip_calls = count("stabilize.modulus_clip")
    # each gradient call runs eig on A and on A^T; a tied-gradient call runs
    # one eig, a clip one real Schur form
    decompositions = radius_calls + 2.0 * gradient_calls + tied_calls + clip_calls
    eig_per_iteration = decompositions / iterations if iterations else 0.0
    csv = named("snapshot.csv_write") + named("snapshot.csv_read")
    top = [s for s in spans if s[3] < 0]
    cli_children = [s for s in spans if s[3] >= 0 and spans[s[3]][0] == "cli.main"]
    return {
        "plant.simulate_continuous_s": (_busy(named("plant.simulate_continuous")), "s"),
        "plant.simulate_continuous_calls": (count("plant.simulate_continuous"), "count"),
        "plant.simulate_discrete_s": (_busy(named("plant.simulate_discrete")), "s"),
        "excite.generate_s": (_busy(named("excite.generate")), "s"),
        "pod.sweep_s": (_busy(_outermost(spans, "pod.")), "s"),
        "pod.svd_calls": (count("pod.svd"), "count"),
        "snapshot.project_s": (_busy(named("snapshot.project")), "s"),
        "snapshot.project_calls": (count("snapshot.project"), "count"),
        "snapshot.csv_write_s": (_busy(named("snapshot.csv_write")), "s"),
        "snapshot.csv_read_s": (_busy(named("snapshot.csv_read")), "s"),
        "snapshot.csv_bytes": (float(sum(s[4].get("bytes", 0) for s in csv)), "bytes"),
        "identify.fit_s": (_busy(named("identify.fit")), "s"),
        "identify.fit_calls": (count("identify.fit"), "count"),
        "identify.json_s": (_busy(named("identify.json")), "s"),
        "stabilize.solve_s": (_busy(solves), "s"),
        "stabilize.solves": (float(len(solves)), "count"),
        "stabilize.iterations": (iterations, "count"),
        "stabilize.eig_per_iteration": (eig_per_iteration, "ratio"),
        "linalg.spectral_radius_s": (_busy(named("linalg.spectral_radius")), "s"),
        "linalg.spectral_radius_calls": (radius_calls, "count"),
        "linalg.radius_gradient_s": (_busy(named("linalg.radius_gradient")), "s"),
        "linalg.radius_gradient_calls": (gradient_calls, "count"),
        "stabilize.tied_gradients_calls": (tied_calls, "count"),
        "stabilize.modulus_clip_calls": (clip_calls, "count"),
        "cli.self_s": (_busy(named("cli.main")) - _busy(cli_children), "s"),
        "harness.self_s": (wall_s - _busy(top), "s"),
    }
