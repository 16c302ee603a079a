"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from iodmd.identify import fit_reduced_iodmd
from iodmd.pod import pod_basis
from iodmd.snapshot import project_pairs


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)`` calls ``fn(*args)`` and returns its result
    and its peak traced allocation, in bytes above what was traced at entry.

    tracemalloc sees numpy's array buffers but not the BLAS library's own
    workspace, so the figure does not depend on the BLAS build or its
    thread count.
    """

    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def projected_dmd():
    """``projected_dmd(pairs, eps)``: plain DMD as the package computes it,
    the reduced ioDMD fit of the pairs projected onto the full-rank POD
    basis of ``pairs.x0``."""

    def fit(pairs, eps=0.0):
        basis = pod_basis(pairs.x0, 0.0, mode="absolute")
        return fit_reduced_iodmd(project_pairs(pairs, basis.modes), basis, eps)

    return fit
