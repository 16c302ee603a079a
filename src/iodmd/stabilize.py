"""Post-hoc stabilization of identified discrete-time models.

An unstable fit is repaired by one convex solve.  Gillis, Karow & Sharma
(Approximating the nearest stable discrete-time system, 2019) write a
stable A as S^-1 U B S with ||B||_2 <= 1; fixing the scaling S from the
data makes the set of such A convex.  Here S = diag(1/s), where s holds the
row norms of the pairs' x0 (the POD singular values on POD pairs; a zero
row norm takes 1), and the repair minimizes

    J(A) = m(A) / m(A0) + gamma * ||A - A0||_F^2 / ||A0||_F^2,  gamma = 100,

subject to ||S A S^-1||_2 <= c = (1 - tau)(1 - 1e-7).  m(A) is the state
part of the data misfit ||Z [x0; u0] - [x1; y0]||^2 of Z = [A B; C D], with
B re-solved in closed form, B = (x1 - A x0) pinv(u0); C and D stay as
fitted.  Since rho(A) <= ||S A S^-1||_2 for every invertible S, the bound
certifies rho(A) <= c, and P = S^2 is a Lyapunov matrix: A^T P A <= c^2 P.
When the pairs fit the model exactly, m(A0) is rounding noise, at most
(n eps)^2 times the energy of the target with n the larger dimension of
the data; it then counts as 0, the misfit term is dropped, and the report's
misfit ratio is 1 for an unchanged fit and infinite otherwise.  Identity
pairs, x0 = [I 0], u0 = [0 I], x1 = [A B] and y0 = [C D], fit exactly and
also give S = I, so the repair is the SVD clip of A0 at c: the closest
stable model.

The solve is over-relaxed ADMM (Boyd et al., Distributed Optimization and
Statistical Learning via the Alternating Direction Method of Multipliers,
2011) on the whitened A~ = S A S^-1, at one fixed penalty and for a fixed
number of steps.  Each step solves one linear system per row of A~, clips
the singular values of the consensus iterate Y at c and updates the scaled
dual.  Every Y meets the bound, so A = S^-1 Y S is certified at any step
count, and with no data-dependent branch the result is a smooth function of
the input: rounding-level changes of the fit move the repair by as little.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .identify import StateSpaceModel, _require_dense_a, _stacked_data
from .linalg import _rounding_floor, pinv_apply, spectral_radius, truncated_svd
from .linalg import spectral_radius_gradient  # noqa: F401 - bench/tracing.py patches this name
from .snapshot import SnapshotPairs

__all__ = [
    "StabilizeReport",
    "NotStabilizedError",
    "stabilize",
]

# ADMM steps of every repair; there is no residual stop
_ITERATIONS = 500

# gamma: weight of the relative distance to the fit against the misfit ratio
_DISTANCE_WEIGHT = 100.0

# the bound c sits this far (relative) inside the boundary 1 - tau
_CERTIFICATE_MARGIN = 1e-7

# the solve clips the whitened A this far (relative) inside c: forming
# A = S^-1 Y S and the SVD of S A S^-1 each round ||S A S^-1||_2 by some
# ulps times the order, which must not lift it above c
_ROUNDING_ROOM = 1e-13

# ADMM penalty and over-relaxation factor; 2.5 is where residual balancing
# started at 10 settled by step 40 in every benchmark pe_noise repair
_PENALTY = 2.5
_RELAXATION = 1.7


def check_tau(tau: float) -> float:
    """``tau`` as a float, or ValueError when it is no stability margin: the
    repaired model has rho(A) < 1 - tau, so tau must lie in [0, 1)."""
    tau = float(tau)
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    return tau


@dataclass
class StabilizeReport:
    """Outcome summary of one stabilization solve.

    ``certificate`` is ||S A S^-1||_2 of the returned A, at most
    (1 - tau)(1 - 1e-7) after a repair; the residuals are those of the last
    ADMM step, in the whitened coordinates, and 0 when no repair ran.
    """

    iterations_total: int
    final_objective_ratio: float
    final_spectral_radius: float
    relative_model_change: float
    certificate: float
    primal_residual: float
    dual_residual: float


class NotStabilizedError(RuntimeError):
    """The repaired model's spectral radius is not below 1 - tau.

    Carries the repaired model and its report so callers can inspect how
    close the solve came.
    """

    def __init__(self, message: str, model: StateSpaceModel, report: StabilizeReport):
        super().__init__(message)
        self.model = model
        self.report = report


def _check_inputs(model: StateSpaceModel, pairs: SnapshotPairs) -> None:
    if model.time_domain != "discrete":
        raise ValueError("stabilization operates on discrete-time models")
    dims = (model.order, model.n_inputs, model.n_outputs)
    data_dims = (pairs.n_states, pairs.n_inputs, pairs.n_outputs)
    if data_dims != dims:
        raise ValueError(
            f"snapshot pairs have (states, inputs, outputs) = {data_dims}, "
            f"the model has {dims}"
        )
    _require_dense_a(model, "stabilize")
    if not np.all(np.isfinite(model.blocks())):
        raise ValueError("model blocks contain non-finite entries")
    if not all(np.all(np.isfinite(m)) for m in (pairs.x0, pairs.x1, pairs.u0, pairs.y0)):
        raise ValueError("snapshot pairs contain non-finite entries")


def _tracer_only(*args, **kwargs):
    """Nothing runs this: ``bench/tracing.py`` ``SPAN_SITES`` is the only
    reader of the names bound to it, and ROADMAP item 2 drops it with those
    sites."""
    raise NotImplementedError("kept only as a name for bench/tracing.py")


_tied_modulus_gradients = _modulus_clip_shift = _tracer_only


def _is_rounding(misfit: float, shape: tuple[int, int], energy: float) -> bool:
    """Whether a least-squares misfit of data of ``shape`` is rounding noise,
    and so counts as an exact fit: at most (max(shape) eps)^2 times
    ``energy``, the squared norm of the fitted target."""
    return misfit <= _rounding_floor(max(shape), 1.0) ** 2 * energy


def _clip(m: np.ndarray, bound: float) -> np.ndarray:
    """The matrix nearest ``m`` with spectral norm at most ``bound``."""
    u, sv, vt = np.linalg.svd(m)
    return (u * np.minimum(sv, bound)) @ vt


def _admm(
    a0: np.ndarray, m: np.ndarray, t: np.ndarray, s: np.ndarray, bound: float
) -> tuple[np.ndarray, float, float]:
    """The repair A = S^-1 Y S with ||Y||_2 <= bound after _ITERATIONS
    steps at the penalty _PENALTY, and the last step's primal and dual
    residuals.

    Minimizes sum_i alpha_i ||(A~ M - T)_i||^2 + beta sum_ij D_ij (A~ - A~0)_ij^2
    over A~ = S A S^-1, where A~0 = S a0 S^-1, M and T are S x0 and S x1
    with the input rows projected out, alpha_i = s_i^2 / m(a0) (0 when m(a0)
    is rounding noise),
    beta = gamma / ||a0||_F^2 and D_ij = (s_i / s_j)^2, which turns the
    whitened distance back into ||A - a0||_F^2.
    """
    r = a0.shape[0]
    whiten = s[None, :] / s[:, None]
    d = whiten**-2.0
    y0 = a0 * whiten
    f0 = float(np.sum(s**2 * np.sum((y0 @ m - t) ** 2, axis=1)))
    exact = _is_rounding(f0, m.shape, float(np.sum(s**2 * np.sum(t**2, axis=1))))
    alpha = np.zeros(r) if exact else s**2 / f0
    beta = _DISTANCE_WEIGHT / float(np.sum(a0 * a0))
    # row i of A~ solves a~_i (hess_i + penalty I) = fixed_i + penalty (Y - U)_i
    hess = 2.0 * alpha[:, None, None] * (m @ m.T)
    hess[:, np.arange(r), np.arange(r)] += 2.0 * beta * d
    fixed = 2.0 * alpha[:, None] * (t @ m.T) + 2.0 * beta * d * y0
    inv = np.linalg.inv(hess + _PENALTY * np.eye(r))

    y, dual = y0, np.zeros_like(y0)
    for _ in range(_ITERATIONS):
        rhs = fixed + _PENALTY * (y - dual)
        x = (rhs[:, None, :] @ inv)[:, 0, :]
        relaxed = _RELAXATION * x + (1.0 - _RELAXATION) * y
        y_prev, y = y, _clip(relaxed + dual, bound)
        dual += relaxed - y
    primal_res = float(np.linalg.norm(x - y))
    dual_res = _PENALTY * float(np.linalg.norm(y - y_prev))
    return y / whiten, primal_res, dual_res


def stabilize(
    model: StateSpaceModel,
    pairs: SnapshotPairs,
    tau: float = 0.0,
) -> tuple[StateSpaceModel, StabilizeReport]:
    """Repair a discrete model whose spectral radius is not below 1 - tau.

    The repair stays close to ``pairs`` in the least-squares sense and to
    the model itself; with the identity pairs of the module docstring it is
    the closest A with ||A||_2 <= c.  Returns the repaired model and a
    report.  The repaired model is ``model`` with a new A and a re-solved
    B: C, D, the basis, the step width and the ``underdetermined`` flag are
    the fit's.  A model already inside the disk is returned as is.  A
    repaired model whose spectral radius is not below 1 - tau raises
    NotStabilizedError with the model attached.
    """
    tau = check_tau(tau)
    _check_inputs(model, pairs)

    boundary = 1.0 - tau
    s = np.linalg.norm(pairs.x0, axis=1)
    s[s == 0.0] = 1.0
    rho = spectral_radius(model.a)
    if rho < boundary:
        repaired, iterations, primal_res, dual_res = model, 0, 0.0, 0.0
    else:
        # x P with P the projector onto the complement of u0's row space
        v = truncated_svd(pairs.u0, 0.0).right_vectors

        def drop_inputs(x: np.ndarray) -> np.ndarray:
            return x - (x @ v) @ v.T

        m = drop_inputs(pairs.x0 / s[:, None])
        t = drop_inputs(pairs.x1 / s[:, None])
        bound = boundary * (1.0 - _CERTIFICATE_MARGIN) * (1.0 - _ROUNDING_ROOM)
        a, primal_res, dual_res = _admm(model.a, m, t, s, bound)
        b, _ = pinv_apply(pairs.u0, 0.0, pairs.x1 - a @ pairs.x0)
        repaired = replace(model, a=a, b=b)
        iterations = _ITERATIONS
        rho = spectral_radius(a)

    data, target = _stacked_data(pairs)
    z0, z = model.blocks(), repaired.blocks()
    f0 = float(np.sum((z0 @ data - target) ** 2))
    f = float(np.sum((z @ data - target) ** 2))
    energy = float(np.sum(target**2))
    if _is_rounding(f0, data.shape, energy):
        ratio = 1.0 if _is_rounding(f, data.shape, energy) else np.inf
    else:
        ratio = f / f0
    change = float(np.linalg.norm(z - z0))
    z0_norm = float(np.linalg.norm(z0))
    report = StabilizeReport(
        iterations_total=iterations,
        final_objective_ratio=ratio,
        final_spectral_radius=rho,
        relative_model_change=change / z0_norm if z0_norm > 0.0 else change,
        certificate=float(np.linalg.norm(repaired.a / s[:, None] * s[None, :], 2)),
        primal_residual=primal_res,
        dual_residual=dual_res,
    )
    if not rho < boundary:
        raise NotStabilizedError(
            f"repaired spectral radius {rho:.6g} is not below {boundary} "
            f"after {iterations} iterations",
            repaired,
            report,
        )
    return repaired, report
