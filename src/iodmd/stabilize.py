"""Post-hoc stabilization of identified discrete-time models.

Unstable fits are repaired by minimizing an exact penalty function

    phi(Z) = f(Z) + mu * max(0, rho(A(Z)) - (1 - tau))

over the stacked system matrix Z = [A B; C D] with limited-memory BFGS,
which keeps the 30 most recent secant pairs.  The smooth part f(Z) =
||Z [x0; u0] - [x1; y0]||^2 keeps the repaired model close to the snapshot
pairs it is given.  Pairs built from the unstable model itself, x0 = [I 0],
u0 = [0 I], x1 = [A B] and y0 = [C D], make f the distance ||Z - Z0||^2 to
that model: the closest-stable-model problem.  The spectral radius is
nonsmooth, so the line search only requires weak Wolfe conditions and
secant pairs violating the curvature guard are dropped.

Each decision has one path.  A step whose line search finds no decrease
(a direction that does not descend counts as one) is retried at an
infeasible iterate along a clip of the outer real Schur blocks onto a
radius inside the disk; when that fails too, or five steps in a row stall,
mu grows tenfold while the iterate is infeasible and mu is below its cap,
and otherwise the solve stops.  Each remaining escape fires on the
benchmark and has a test that fails without it: the shift that gives a
defective dominant eigenvalue a nearby gradient, the Schur clip, the line
search's strict decrease, and the polish's boundary snap and segment
pullback.

The line search tries each step once: where no step meets the Armijo
condition, it takes the first strict decrease among the halving steps 1,
1/2, ..., 2^-44.  Each trial point carries its own spectral radius and
radius gradient, and the solve passes points rather than arrays, so the A
block of a point is decomposed once however often the solve reads it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import functools
import json
import pathlib

import numpy as np
import scipy.linalg

from .identify import StateSpaceModel, _split_blocks, _stacked_data
from .linalg import spectral_radius, spectral_radius_gradient
from .snapshot import SnapshotPairs

__all__ = [
    "StabilizeReport",
    "NotStabilizedError",
    "stabilize",
    "save_report_json",
]

# rho must clear the boundary by this margin before an iterate counts as
# feasible; guards against returning a model that is stable only in exact
# arithmetic.
_FEASIBILITY_MARGIN = 1e-12

# give up escalating the penalty weight beyond this
_PENALTY_CAP = 1e16

# the solve stops at the first feasible iterate whose objective is within
# this factor of the unrepaired model's
_OBJECTIVE_BUDGET_FACTOR = 1000.0

# a step that lowers the penalty by less than this relative amount stalls
_OPT_TOL = 1e-8

# iterations before the solve stops and returns its best candidate
_MAX_ITERATIONS = 2000

# penalty weight mu at the start of the solve
_INITIAL_PENALTY = 1.0

# secant pairs kept by the limited-memory BFGS inverse Hessian
_MEMORY = 30

# step trials of the weak Wolfe expansion and bisection; a search that finds
# no Armijo step among them halves on to 2^-44 for a strict decrease
_MAX_BISECTIONS = 25


def check_tau(tau: float) -> float:
    """``tau`` as a float, or ValueError when it is no stability margin: the
    repaired model has rho(A) < 1 - tau, so tau must lie in [0, 1)."""
    tau = float(tau)
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    return tau


@dataclass
class StabilizeReport:
    """Outcome summary of one stabilization solve."""

    iterations_total: int
    iterations_to_first_stable: int
    final_objective_ratio: float
    final_spectral_radius: float
    relative_model_change: float
    converged: bool


class NotStabilizedError(RuntimeError):
    """No iterate reached spectral radius below 1 - tau.

    Carries the best iterate seen (lowest spectral radius) and its report so
    callers can inspect how close the solve came.
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
    if not all(np.all(np.isfinite(m)) for m in (model.a, model.b, model.c, model.d)):
        raise ValueError("model blocks contain non-finite entries")
    if not all(np.all(np.isfinite(m)) for m in (pairs.x0, pairs.x1, pairs.u0, pairs.y0)):
        raise ValueError("snapshot pairs contain non-finite entries")


class _Objective:
    """Smooth part f(Z) = ||Z data - target||^2 of the penalty with its gradient.

    data = [x0; u0] and target = [x1; y0] come from the snapshot pairs,
    whose input and output rows _check_inputs matched to the model.
    """

    def __init__(self, pairs: SnapshotPairs):
        self.data, self.target = _stacked_data(pairs)

    def value(self, z: np.ndarray) -> float:
        resid = z @ self.data - self.target
        return float(np.sum(resid * resid))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return 2.0 * (z @ self.data - self.target) @ self.data.T

    def along(self, z: np.ndarray, direction: np.ndarray) -> tuple[float, float, float]:
        """Coefficients (c0, c1, c2) of the quadratic t -> f(z + t*direction)."""
        r0 = z @ self.data - self.target
        rd = direction @ self.data
        c0 = float(np.sum(r0 * r0))
        c1 = 2.0 * float(np.sum(r0 * rd))
        c2 = float(np.sum(rd * rd))
        return c0, c1, c2


def _radius_gradient(a: np.ndarray) -> np.ndarray:
    """Gradient of the spectral radius at a, or next to it where it is defective."""
    try:
        return spectral_radius_gradient(a).matrix
    except np.linalg.LinAlgError:
        # Defective dominant eigenvalue: the gradient does not exist there.
        # Break the degeneracy with a deterministic graded diagonal shift and
        # use the nearby gradient as a subgradient-like direction.
        scale = 1e-10 * max(1.0, float(np.linalg.norm(a, ord="fro")))
        shift = np.diag(np.linspace(scale, 2.0 * scale, a.shape[0]))
        return spectral_radius_gradient(a + shift).matrix


# no caller in the package; bench/tracing.py still times this name
def _tied_modulus_gradients(
    a: np.ndarray, rho: float, window: float
) -> list[np.ndarray] | None:
    """Gradients of |lambda_i| for every eigenvalue within the modulus window.

    Left eigenvectors come from the inverse of the right eigenvector matrix,
    which already carries the y^* x = 1 normalization row by row.  Returns
    None when the eigenbasis is too ill-conditioned to invert reliably.
    """
    lam, v = np.linalg.eig(a)
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(vinv)):
        return None
    mods = np.abs(lam)
    active = np.where(mods >= rho * (1.0 - window))[0]
    grads = []
    for i in active:
        if mods[i] == 0.0:
            continue
        outer = np.outer(vinv[i, :], v[:, i])
        grads.append(np.real((np.conj(lam[i]) / mods[i]) * outer))
    return grads or None


def _modulus_clip_shift(a: np.ndarray, target: float) -> np.ndarray | None:
    """Shift of A that contracts every eigenvalue modulus above target onto it.

    Works on the real Schur form A = Q T Q^T: each 1x1 block (real
    eigenvalue) or 2x2 block (complex conjugate pair) whose eigenvalue
    modulus r exceeds the target is scaled by target / r.  T stays block
    upper triangular, so exactly those moduli move onto the target (up to
    rounding in the reassembly), and the result is real by construction.  Returns the additive shift,
    or None when A is already inside the target radius.
    """
    t_mat, q = scipy.linalg.schur(a, output="real")
    n = t_mat.shape[0]
    t_new = t_mat.copy()
    clipped = False
    i = 0
    while i < n:
        size = 2 if i + 1 < n and t_mat[i + 1, i] != 0.0 else 1
        block = slice(i, i + size)
        r = float(np.max(np.abs(np.linalg.eigvals(t_mat[block, block]))))
        if r > target:
            t_new[block, block] *= target / r
            clipped = True
        i += size
    if not clipped:
        return None
    return q @ t_new @ q.T - a


class _InverseHessian:
    """Limited-memory BFGS inverse Hessian over the _MEMORY newest secant pairs."""

    def __init__(self) -> None:
        self.pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
        self.scale = 1.0

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        sy = float(s @ y)
        if sy <= 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            return False
        self.pairs.append((s, y, sy))
        if len(self.pairs) > _MEMORY:
            self.pairs.pop(0)
        self.scale = sy / float(y @ y)
        return True

    def apply(self, g: np.ndarray) -> np.ndarray:
        # standard two-loop recursion over the retained secant pairs
        q = g.copy()
        alphas = []
        for s, y, sy in reversed(self.pairs):
            alpha = float(s @ q) / sy
            alphas.append(alpha)
            q -= alpha * y
        q *= self.scale
        for (s, y, sy), alpha in zip(self.pairs, reversed(alphas)):
            beta = float(y @ q) / sy
            q += (alpha - beta) * s
        return q


def _line_search(phi, slope_at, phi0, slope0):
    """Weak Wolfe search (Armijo + weak curvature) by expansion/bisection.

    Returns (t, phi_t, ok) and tries each step once.  Nonsmooth kinks can
    defeat both Wolfe conditions; the search then takes the first strict
    decrease among the halving steps 1, 1/2, ..., 2^-44.  ok=False means no
    decrease was found at any tried step.
    """
    c1, c2 = 1e-4, 0.5
    lo, hi = 0.0, np.inf
    t = 1.0
    armijo_t, armijo_phi = None, None
    decrease = None  # the first step with phi below phi0
    for _ in range(_MAX_BISECTIONS):
        phi_t = phi(t)
        if decrease is None and np.isfinite(phi_t) and phi_t < phi0:
            decrease = t, phi_t
        if not np.isfinite(phi_t) or phi_t > phi0 + c1 * t * slope0:
            hi = t
        else:
            if armijo_t is None or phi_t < armijo_phi:
                armijo_t, armijo_phi = t, phi_t
            if slope_at(t) < c2 * slope0:
                lo = t
            else:
                return t, phi_t, True
        t = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
        if t <= 0.0 or (hi < np.inf and (hi - lo) <= 1e-16 * max(1.0, lo)):
            break
    if armijo_t is not None:
        return armijo_t, armijo_phi, True
    # Sufficient decrease can be unattainable near an eigenvalue-modulus tie
    # even though the penalty still drops slightly; take any strict decrease.
    # With no Armijo step lo stayed 0, so the loop tried the halving steps
    # 1, ..., 2^-24 in order and t is the next one.
    if decrease is not None:
        return (*decrease, True)
    while t >= 2.0**-44:
        phi_t = phi(t)
        if np.isfinite(phi_t) and phi_t < phi0:
            return t, phi_t, True
        t *= 0.5
    return 0.0, phi0, False


class _Point:
    """A trial point Z of the solve with the spectral data of its A block.

    rho and its violation beyond the boundary are computed on construction,
    the radius gradient the first time it is read; readers do not modify
    either array.
    """

    def __init__(self, z: np.ndarray, order: int, boundary: float):
        self.z = z
        self.a = z[:order, :order]
        self.rho = spectral_radius(self.a)
        self.violation = max(0.0, self.rho - boundary)

    @functools.cached_property
    def gradient(self) -> np.ndarray:
        return _radius_gradient(self.a)


def stabilize(
    model: StateSpaceModel,
    pairs: SnapshotPairs,
    tau: float = 0.0,
) -> tuple[StateSpaceModel, StabilizeReport]:
    """Shift the spectral radius of a discrete model below 1 - tau.

    The repair stays close to ``pairs`` in the least-squares sense; the
    identity pairs of the module docstring keep it close to the model
    itself.  Returns the repaired model and a report.  The returned model
    always satisfies rho(A) < 1 - tau; if no acceptable iterate is ever
    found, NotStabilizedError is raised with the closest attempt attached.
    """
    tau = check_tau(tau)
    _check_inputs(model, pairs)

    z0 = model.blocks()
    boundary = 1.0 - tau
    objective = _Objective(pairs)
    f0 = objective.value(z0)
    budget = _OBJECTIVE_BUDGET_FACTOR * f0
    start = _Point(z0, model.order, boundary)
    if start.rho < boundary - _FEASIBILITY_MARGIN:
        end, stable, iterations, first_stable = start, True, 0, 0
    else:
        end, stable, iterations, first_stable = _penalty_solve(
            start, objective, boundary, budget
        )

    z = end.z
    f = objective.value(z)
    change = float(np.linalg.norm(z - z0))
    z0_norm = float(np.linalg.norm(z0))
    report = StabilizeReport(
        iterations_total=iterations,
        iterations_to_first_stable=first_stable,
        final_objective_ratio=f / f0 if f0 > 0.0 else (1.0 if f == 0.0 else np.inf),
        final_spectral_radius=end.rho,
        relative_model_change=change / z0_norm if z0_norm > 0.0 else change,
        converged=stable and f <= budget,
    )
    repaired = _split_blocks(z, model.order, model.step_width, model.basis)
    if not stable:
        raise NotStabilizedError(
            f"no iterate reached spectral radius below {boundary} "
            f"(best {end.rho:.6g} after {iterations} iterations)",
            repaired,
            report,
        )
    return repaired, report


def _penalty_solve(
    start: _Point,
    objective: _Objective,
    boundary: float,
    budget: float,
) -> tuple[_Point, bool, int, int]:
    """Minimize the penalty from the unstable operator at start, then polish.

    Returns (point, stable, iterations, first_stable): the feasible point of
    least objective, else the iterate of least spectral radius, and the
    iteration that first reached a feasible point (-1 if none did).
    """
    z0 = start.z
    order = start.a.shape[0]
    mu = _INITIAL_PENALTY

    def point(z: np.ndarray) -> _Point:
        return _Point(z, order, boundary)

    def grad_phi(pt: _Point) -> np.ndarray:
        g = objective.gradient(pt.z)
        if pt.violation > 0.0:
            grad = np.zeros_like(pt.z)
            grad[:order, :order] = pt.gradient
            g = g + mu * grad
        return g

    cur = start
    f_cur = objective.value(cur.z)
    phi_cur = f_cur + mu * cur.violation
    g = grad_phi(cur)
    hessian = _InverseHessian()

    best_feasible: _Point | None = None
    best_feasible_f = np.inf
    best_rho = cur
    first_stable = -1
    stall_count = 0

    def try_direction(p: np.ndarray, slope: float):
        """(t, point at step t, phi there, ok) of a line search along p."""
        c0, c1, c2 = objective.along(cur.z, p)
        p_a = p[:order, :order]
        trials = {}

        def phi_at(t: float) -> float:
            zt = cur.z + t * p
            # a step too small to move Z lands on the current point itself
            same = np.array_equal(zt.view(np.uint64), cur.z.view(np.uint64))
            trials[t] = pt = cur if same else point(zt)
            return c0 + t * (c1 + t * c2) + mu * pt.violation

        def slope_at(t: float) -> float:
            # d f/dt from the cached quadratic; the penalty term needs only
            # the spectral radius gradient, not the full data gradient
            pt = trials[t]
            value = c1 + 2.0 * c2 * t
            if pt.violation > 0.0:
                value += mu * float(np.sum(pt.gradient * p_a))
            return value

        t, phi_t, ok = _line_search(phi_at, slope_at, phi_cur, slope)
        return t, trials.get(t), phi_t, ok

    for iterations in range(1, _MAX_ITERATIONS + 1):
        p = -hessian.apply(g.ravel()).reshape(cur.z.shape)
        slope = float(g.ravel() @ p.ravel())
        ok = -np.inf < slope < 0.0  # a non-descent direction fails the search
        if ok:
            t, new, phi_new, ok = try_direction(p, slope)
        if not ok and cur.violation > 0.0:
            # Last resort direction: contract the outer eigenvalue moduli
            # through the real Schur blocks.  Unit step lands rho on the 0.99
            # target up to rounding, which the margin absorbs, so along it the
            # violation falls to zero and sufficiently large mu accepts it.
            shift = _modulus_clip_shift(cur.a, 0.99 * boundary)
            if shift is not None:
                p = np.zeros_like(cur.z)
                p[:order, :order] = shift
                t, new, phi_new, ok = try_direction(p, -1e-12 * max(1.0, abs(phi_cur)))

        if ok:
            g_new = grad_phi(new)
            hessian.update(t * p.ravel(), (g_new - g).ravel())

            decrease = phi_cur - phi_new
            cur, g = new, g_new
            f_cur = objective.value(cur.z)
            phi_cur = f_cur + mu * cur.violation

            if cur.rho < best_rho.rho:
                best_rho = cur
            if cur.rho <= boundary - _FEASIBILITY_MARGIN:
                if first_stable < 0:
                    first_stable = iterations
                if f_cur < best_feasible_f:
                    best_feasible_f = f_cur
                    best_feasible = cur
                if f_cur <= budget:
                    break

            if decrease <= _OPT_TOL * max(1.0, abs(phi_cur)):
                stall_count += 1
            else:
                stall_count = 0
            if stall_count < 5:
                continue
        # no decrease in any tried direction, or five stalled steps: the
        # iterate is stationary for this mu, which is too small if infeasible
        if not (cur.violation > 0.0 and mu < _PENALTY_CAP):
            break
        mu *= 10.0
        stall_count = 0
        phi_cur = f_cur + mu * cur.violation
        g = grad_phi(cur)

    # Final polish.  Boundary snap: iterates often terminate on or just
    # outside the stability boundary (the penalty kink); scaling the A block
    # contracts every eigenvalue by the same factor, turning such an iterate
    # into a strictly feasible candidate.  Segment pullback: f is a convex
    # quadratic along the ray back to z0 with its minimum at or before z0,
    # so blending a feasible candidate toward z0 as far as stability allows
    # reduces both the objective and the model change.
    rho_target = boundary * (1.0 - 1e-7)

    def pull_toward_start(s: _Point) -> _Point:
        shift = s.z - z0
        best = s
        lo_eta, hi_eta = 0.0, 1.0
        for _ in range(50):
            eta = 0.5 * (lo_eta + hi_eta)
            cand = point(z0 + eta * shift)
            if cand.rho <= rho_target:
                hi_eta = eta
                best = cand
            else:
                lo_eta = eta
        return best

    candidates = [] if best_feasible is None else [best_feasible]
    # best_rho is often cur itself: snap and pull such a point once
    for cand in dict.fromkeys((best_rho, cur)):
        if cand.rho <= 0.0:
            continue
        z = cand.z.copy()
        z[:order, :order] *= rho_target / cand.rho
        snapped = point(z)
        if snapped.rho > boundary - _FEASIBILITY_MARGIN:
            continue
        candidates.append(snapped)
    if candidates and first_stable < 0:
        first_stable = iterations
    for cand in candidates:
        pulled = pull_toward_start(cand)
        f_p = objective.value(pulled.z)
        if f_p < best_feasible_f:
            best_feasible_f = f_p
            best_feasible = pulled

    if best_feasible is None:
        return best_rho, False, iterations, first_stable
    return best_feasible, True, iterations, first_stable


def save_report_json(report: StabilizeReport, path: str | pathlib.Path) -> None:
    pathlib.Path(path).write_text(json.dumps(asdict(report), indent=1) + "\n")
