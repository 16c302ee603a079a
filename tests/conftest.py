"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


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
