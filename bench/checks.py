"""Correctness checks computed apart from the program.

Every check recomputes its quantity with numpy/scipy calls of its own, or
tests a property the method must have; none compares against stored output
of an earlier run. Spectral radii come from ``scipy.linalg.eigvals``, the
reference output from a cell-by-cell recursion of the implicit-Euler
transport scheme, and objective values from the reduced snapshot pairs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# criterion 6 of the acceptance tests: what a repair may cost
MAX_MODEL_CHANGE = 0.05
MAX_OBJECTIVE_RATIO = 1000.0
# the step and shifted cross-excitation errors fall at least this much
# from the loosest to the tightest budget
MIN_ERROR_FALL = 10.0
# bell-replay errors must agree to this share of the reference output norm;
# the two reference outputs differ by about 2e-14 of it
REPLAY_TOL = 1e-10


def spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(scipy.linalg.eigvals(a)))) if a.size else 0.0


def misfit(z: np.ndarray, x0, x1, u0, y0) -> float:
    """Data misfit ||[X1; Y0] - Z [X0; U0]||_F^2 of the stacked operator Z."""
    resid = z @ np.vstack([x0, u0]) - np.vstack([x1, y0])
    return float(np.sum(resid * resid))


def relative_change(z: np.ndarray, z0: np.ndarray) -> float:
    return float(np.linalg.norm(z - z0) / np.linalg.norm(z0))


def pod_excess(x: np.ndarray, q: np.ndarray, budget: float) -> float:
    """How far ||X - Q Q^T X||_F lies beyond the budget plus rounding.

    Singular values below ``max(shape) * eps * sigma_max`` carry no
    information and the program may count them as zero, so the allowance
    is that floor for every singular value. A positive result is a
    violated budget.
    """
    residual = float(np.linalg.norm(x - q @ (q.T @ x)))
    # ||X||_F bounds sigma_max from above, and costs no SVD
    floor = max(x.shape) * np.finfo(float).eps * float(np.linalg.norm(x))
    return residual - budget - math.sqrt(min(x.shape)) * floor


def pod_tails(x: np.ndarray) -> np.ndarray:
    """tail[n] = sqrt(sum_{i >= n} s_i^2) from the benchmark's own SVD."""
    s = np.linalg.svd(x, compute_uv=False)
    return np.sqrt(np.cumsum(s[::-1] ** 2)[::-1])


def transport_output(u: np.ndarray, speed: float, dx: float, dt: float) -> np.ndarray:
    """Outflow of the upwind transport plant from rest, implicit Euler.

    Each cell obeys x_i[k+1] (1 + g) = x_i[k] + g x_{i-1}[k+1] with
    g = dt * speed / dx and the input u[k] standing in for x_{-1}[k+1]
    (zero-order hold). Cell by cell this is a first-order recursive filter
    in time, so the whole grid is one cascade of ``lfilter`` calls.
    """
    # imported here, after the timed passes: scipy.signal adds about 40 MB
    # that peak_rss_mb must not count
    import scipy.signal

    g = dt * speed / dx
    cells = int(round(1.0 / dx))
    num, den = [g / (1.0 + g)], [1.0, -1.0 / (1.0 + g)]
    x = scipy.signal.lfilter(num, den, np.concatenate([[0.0], u[:-1]]))
    for _ in range(cells - 1):
        x = scipy.signal.lfilter(num, den, x)
    return x


def replay_output(z: np.ndarray, order: int, u: np.ndarray) -> np.ndarray:
    """Output of the stacked model Z = [A B; C D] from the zero state."""
    a, b = z[:order, :order], z[:order, order:]
    c, d = z[order:, :order], z[order:, order:]
    x = np.zeros(order)
    y = np.empty(u.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, uk in enumerate(u):
            y[k] = (c @ x + d[:, 0] * uk)[0]
            x = a @ x + b[:, 0] * uk
    return y


def replay_mismatch(y_ref: np.ndarray, y_model: np.ndarray, reported: float) -> float:
    """Distance between the reported error and the benchmark's own replay.

    Both errors are shares of the reference norm; their difference is
    taken as it stands below an error of 1 and relative to it above. The
    tightest fits have errors near 1e-11, where a relative comparison would
    only measure the rounding of the two reference outputs.
    """
    ref_norm = float(np.linalg.norm(y_ref))
    error = float(np.linalg.norm(y_ref - y_model)) / ref_norm
    if not np.isfinite(error) or not np.isfinite(reported):
        return 0.0 if error == reported else math.inf
    return abs(error - reported) / max(1.0, reported)
