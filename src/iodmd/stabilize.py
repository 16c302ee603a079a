"""Post-hoc stabilization of identified discrete-time models.

Unstable fits are repaired by minimizing an exact penalty function

    phi(Z) = f(Z) + mu * max(0, rho(A(Z)) - (1 - tau))

over the stacked system matrix Z = [A B; C D] with limited-memory BFGS,
which keeps the 30 most recent secant pairs.  The data-fit objective keeps
the repaired model close to the regression data it was identified from; the
model-fit objective keeps it close to the unstable model itself.  The
spectral radius is nonsmooth, so the line search only requires weak Wolfe
conditions and secant pairs violating the curvature guard are dropped.
Eigenvalue-modulus ties, where the single-eigenvalue subgradient stops
giving descent, are escaped with a min-norm direction over the active
eigenvalue gradients; if that also fails, a direction that contracts the
outer eigenvalue moduli through the blocks of the real Schur form is tried
before the penalty weight is escalated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import json
import pathlib

import numpy as np
import scipy.linalg

from .identify import StateSpaceModel
from .linalg import spectral_radius, spectral_radius_gradient
from .snapshot import SnapshotPairs

__all__ = [
    "StabilizeConfig",
    "StabilizeReport",
    "NotStabilizedError",
    "stabilize",
    "save_report_json",
]

_MODES = ("data_fit", "model_fit")

# rho must clear the boundary by this margin before an iterate counts as
# feasible; guards against returning a model that is stable only in exact
# arithmetic.
_FEASIBILITY_MARGIN = 1e-12

# give up escalating the penalty weight beyond this
_PENALTY_CAP = 1e16

# eigenvalues within this relative window of rho count as tied
_TIE_WINDOW = 1e-4

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

# A blocks whose spectral radius and radius gradient one solve keeps; the
# trial points that recur lie a few evaluations apart
_MEMO_SIZE = 64


@dataclass
class StabilizeConfig:
    """Settings for the exact-penalty stabilization solve.

    tau is the stability margin: the repaired model has rho(A) < 1 - tau.
    mode "data_fit" keeps the repaired model close to the snapshot pairs it
    was identified from, "model_fit" close to the unstable model itself.
    """

    tau: float = 0.0
    mode: str = "data_fit"

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must lie in [0, 1)")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")


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


def _check_inputs(
    model: StateSpaceModel, pairs: SnapshotPairs | None, config: StabilizeConfig
) -> None:
    if model.time_domain != "discrete":
        raise ValueError("stabilization operates on discrete-time models")
    if config.mode == "data_fit":
        if pairs is None:
            raise ValueError("data_fit mode requires snapshot pairs")
        if pairs.n_states != model.order:
            raise ValueError(
                f"snapshot state dimension {pairs.n_states} does not match "
                f"model order {model.order}"
            )
        if pairs.u0.shape[0] != model.n_inputs:
            raise ValueError(
                f"input dimension {pairs.u0.shape[0]} does not match model "
                f"inputs {model.n_inputs}"
            )
        if pairs.y0.shape[0] != model.n_outputs:
            raise ValueError(
                f"output dimension {pairs.y0.shape[0]} does not match model "
                f"outputs {model.n_outputs}"
            )


class _Objective:
    """Smooth part f(Z) = ||Z data - target||^2 of the penalty with its gradient.

    data_fit regresses on the snapshot pairs; model_fit takes data = I and
    target = Z0, where Z I - Z0 = Z - Z0 holds exactly.
    """

    def __init__(self, mode: str, z0: np.ndarray, pairs: SnapshotPairs | None):
        if mode == "data_fit":
            # _check_inputs matched the input and output rows to the model
            self.data = np.vstack([pairs.x0, pairs.u0])
            self.target = np.vstack([pairs.x1, pairs.y0])
        else:
            self.data = np.eye(z0.shape[1])
            self.target = z0

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


class _SpectralMemo:
    """Spectral radius and radius gradient of the A blocks one solve visits.

    The solve evaluates the same trial point more than once: phi and its
    slope at one step, the accepted point again for its gradient and
    penalty parts, the backtracking pass over the halving steps, the polish.
    Keyed on the exact bytes of the block, a hit returns what recomputing
    would.  Each table keeps the _MEMO_SIZE most recently added blocks.
    Hits hand out the stored gradient itself: callers only read it.
    """

    def __init__(self) -> None:
        self._radius: dict = {}
        self._gradient: dict = {}

    def radius(self, a: np.ndarray) -> float:
        return self._lookup(self._radius, a, spectral_radius)

    def gradient(self, a: np.ndarray) -> np.ndarray:
        return self._lookup(self._gradient, a, _radius_gradient)

    @staticmethod
    def _lookup(table: dict, a: np.ndarray, compute):
        key = (a.shape, a.tobytes())
        value = table.get(key)
        if value is None:
            value = compute(a)
            if len(table) >= _MEMO_SIZE:
                del table[next(iter(table))]
            table[key] = value
        return value


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


def _min_norm_in_hull(vectors: list[np.ndarray]) -> np.ndarray:
    """Minimum-norm convex combination, by Frank-Wolfe on the simplex."""
    g = np.stack([vec.ravel() for vec in vectors])
    gram = g @ g.T
    k = g.shape[0]
    w = np.full(k, 1.0 / k)
    for _ in range(200):
        grad_w = gram @ w
        j = int(np.argmin(grad_w))
        gap = float(w @ grad_w) - float(grad_w[j])
        if gap <= 1e-14 * max(1.0, float(w @ grad_w)):
            break
        d = -w.copy()
        d[j] += 1.0
        denom = float(d @ gram @ d)
        if denom <= 0.0:
            break
        step = min(1.0, gap / denom)
        w = w + step * d
    return (w @ g).reshape(vectors[0].shape)


class _InverseHessian:
    """Limited-memory BFGS inverse Hessian over the _MEMORY newest secant pairs."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
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


def _line_search(phi, slope_at, phi0, slope0, max_bisections=25):
    """Weak Wolfe search (Armijo + weak curvature) by expansion/bisection.

    Returns (t, phi_t, ok).  Nonsmooth kinks can defeat both Wolfe
    conditions; a backtracking pass then accepts any strict decrease.
    ok=False means no decrease was found at any tried step.
    """
    c1, c2 = 1e-4, 0.5
    lo, hi = 0.0, np.inf
    t = 1.0
    armijo_t, armijo_phi = None, None
    for _ in range(max_bisections):
        phi_t = phi(t)
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
    t = 1.0
    for _ in range(45):
        phi_t = phi(t)
        if np.isfinite(phi_t) and phi_t < phi0:
            return t, phi_t, True
        t *= 0.5
    return 0.0, phi0, False


def stabilize(
    model: StateSpaceModel,
    pairs: SnapshotPairs | None = None,
    config: StabilizeConfig | None = None,
) -> tuple[StateSpaceModel, StabilizeReport]:
    """Shift the spectral radius of a discrete model below 1 - tau.

    Returns the repaired model and a report.  The returned model always
    satisfies rho(A) < 1 - tau; if no acceptable iterate is ever found,
    NotStabilizedError is raised with the closest attempt attached.
    """
    config = StabilizeConfig() if config is None else config
    _check_inputs(model, pairs, config)

    order = model.order
    z0 = model.blocks()
    boundary = 1.0 - config.tau
    memo = _SpectralMemo()
    rho0 = memo.radius(z0[:order, :order])

    def wrap(z: np.ndarray) -> StateSpaceModel:
        return StateSpaceModel(
            a=z[:order, :order].copy(),
            b=z[:order, order:].copy(),
            c=z[order:, :order].copy(),
            d=z[order:, order:].copy(),
            time_domain="discrete",
            step_width=model.step_width,
            basis=model.basis,
        )

    if rho0 < boundary - _FEASIBILITY_MARGIN:
        report = StabilizeReport(
            iterations_total=0,
            iterations_to_first_stable=0,
            final_objective_ratio=1.0,
            final_spectral_radius=rho0,
            relative_model_change=0.0,
            converged=True,
        )
        return wrap(z0), report

    objective = _Objective(config.mode, z0, pairs)
    f0 = objective.value(z0)
    budget = _OBJECTIVE_BUDGET_FACTOR * f0
    z0_norm = float(np.linalg.norm(z0))
    mu = _INITIAL_PENALTY

    def penalty_terms(z: np.ndarray) -> tuple[float, float]:
        """Spectral radius of the A block and its violation beyond the boundary."""
        rho = memo.radius(z[:order, :order])
        return rho, max(0.0, rho - boundary)

    def phi_and_parts(z: np.ndarray):
        f = objective.value(z)
        rho, violation = penalty_terms(z)
        return f + mu * violation, f, rho, violation

    def grad_phi(z: np.ndarray) -> np.ndarray:
        g = objective.gradient(z)
        _, violation = penalty_terms(z)
        if violation > 0.0:
            grad = np.zeros_like(z)
            grad[:order, :order] = memo.gradient(z[:order, :order])
            g = g + mu * grad
        return g

    def tie_direction(z: np.ndarray, violation: float) -> np.ndarray | None:
        """Min-norm subgradient over tied eigenvalue pieces, negated.

        The modulus window widens with the violation so a whole shell of
        unstable eigenvalues is pushed coherently instead of one at a time.
        """
        if violation <= 0.0:
            return None
        rho = violation + boundary
        window = min(0.3, max(_TIE_WINDOW, violation / rho))
        grads_a = _tied_modulus_gradients(z[:order, :order], rho, window)
        if grads_a is None or len(grads_a) < 2:
            return None
        gf = objective.gradient(z)
        pieces = []
        for grad_a in grads_a:
            piece = gf.copy()
            piece[:order, :order] += mu * grad_a
            pieces.append(piece)
        return -_min_norm_in_hull(pieces)

    z_cur = z0.copy()
    phi_z, f_z, rho_z, violation_z = phi_and_parts(z_cur)
    g = grad_phi(z_cur)
    hessian = _InverseHessian()

    best_feasible: np.ndarray | None = None
    best_feasible_f = np.inf
    best_rho = rho_z
    best_rho_z = z_cur.copy()
    first_stable = -1
    stall_count = 0
    iterations = 0
    converged = False

    def escalate() -> None:
        # stationary but infeasible: the penalty weight was too small
        nonlocal mu, phi_z, g, stall_count
        mu *= 10.0
        stall_count = 0
        phi_z = f_z + mu * violation_z
        g = grad_phi(z_cur)

    def try_direction(p: np.ndarray, slope: float):
        c0, c1, c2 = objective.along(z_cur, p)
        p_a = p[:order, :order]

        def phi_at(t: float) -> float:
            zt = z_cur + t * p
            _, violation = penalty_terms(zt)
            return c0 + t * (c1 + t * c2) + mu * violation

        def slope_at(t: float) -> float:
            # d f/dt from the cached quadratic; the penalty term needs only
            # the spectral radius gradient, not the full data gradient
            zt = z_cur + t * p
            value = c1 + 2.0 * c2 * t
            _, violation = penalty_terms(zt)
            if violation > 0.0:
                grad_a = memo.gradient(zt[:order, :order])
                value += mu * float(np.sum(grad_a * p_a))
            return value

        return _line_search(phi_at, slope_at, phi_z, slope)

    for iteration in range(1, _MAX_ITERATIONS + 1):
        iterations = iteration
        p = -hessian.apply(g.ravel()).reshape(z_cur.shape)
        slope = float(g.ravel() @ p.ravel())
        if not np.isfinite(slope) or slope >= 0.0:
            hessian.reset()
            p = -g
            slope = float(g.ravel() @ p.ravel())
            if slope >= 0.0:
                if violation_z > 0.0 and mu < _PENALTY_CAP:
                    escalate()
                    continue
                break

        t, phi_new, ok = try_direction(p, slope)
        if not ok:
            # The single-eigenvalue subgradient gives no descent at a
            # modulus tie; retry along the min-norm tie direction.
            p_tie = tie_direction(z_cur, violation_z)
            if p_tie is not None:
                slope = -float(np.sum(p_tie * p_tie))
                if slope < 0.0:
                    t, phi_new, ok = try_direction(p_tie, slope)
                    p = p_tie
        if not ok and violation_z > 0.0:
            # Last resort direction: contract the outer eigenvalue moduli
            # through the real Schur blocks.  Unit step lands rho on the 0.99
            # target up to rounding, which the margin absorbs, so along it the
            # violation falls to zero and sufficiently large mu accepts it.
            shift = _modulus_clip_shift(z_cur[:order, :order], 0.99 * boundary)
            if shift is not None:
                p_clip = np.zeros_like(z_cur)
                p_clip[:order, :order] = shift
                slope = -1e-12 * max(1.0, abs(phi_z))
                t, phi_new, ok = try_direction(p_clip, slope)
                p = p_clip
        if not ok:
            # no decrease in any tried direction: stationary for this mu
            if violation_z > 0.0 and mu < _PENALTY_CAP:
                escalate()
                continue
            break

        z_new = z_cur + t * p
        g_new = grad_phi(z_new)
        hessian.update(t * p.ravel(), (g_new - g).ravel())

        decrease = phi_z - phi_new
        z_cur, g = z_new, g_new
        phi_z, f_z, rho_z, violation_z = phi_and_parts(z_cur)

        if rho_z < best_rho:
            best_rho = rho_z
            best_rho_z = z_cur.copy()
        feasible = rho_z <= boundary - _FEASIBILITY_MARGIN
        if feasible:
            if first_stable < 0:
                first_stable = iteration
            if f_z < best_feasible_f:
                best_feasible_f = f_z
                best_feasible = z_cur.copy()
            if f_z <= budget:
                converged = True
                break

        if decrease <= _OPT_TOL * max(1.0, abs(phi_z)):
            stall_count += 1
        else:
            stall_count = 0
        if stall_count >= 5:
            if violation_z > 0.0 and mu < _PENALTY_CAP:
                escalate()
                continue
            break

    # Final polish.  Boundary snap: iterates often terminate on or just
    # outside the stability boundary (the penalty kink); scaling the A block
    # contracts every eigenvalue by the same factor, turning such an iterate
    # into a strictly feasible candidate.  Segment pullback: f is a convex
    # quadratic along the ray back to z0 with its minimum at or before z0,
    # so blending a feasible candidate toward z0 as far as stability allows
    # reduces both the objective and the model change.
    rho_target = boundary * (1.0 - 1e-7)

    def pull_toward_start(z_s: np.ndarray) -> np.ndarray:
        shift = z_s - z0
        best = z_s
        lo_eta, hi_eta = 0.0, 1.0
        for _ in range(50):
            eta = 0.5 * (lo_eta + hi_eta)
            cand = z0 + eta * shift
            if memo.radius(cand[:order, :order]) <= rho_target:
                hi_eta = eta
                best = cand
            else:
                lo_eta = eta
        return best

    candidates = [] if best_feasible is None else [best_feasible]
    for cand in (best_rho_z, z_cur):
        rho_c = memo.radius(cand[:order, :order])
        if rho_c <= 0.0:
            continue
        snapped = cand.copy()
        snapped[:order, :order] *= rho_target / rho_c
        if memo.radius(snapped[:order, :order]) > boundary - _FEASIBILITY_MARGIN:
            continue
        candidates.append(snapped)
    if candidates and first_stable < 0:
        first_stable = iterations
    for cand in candidates:
        pulled = pull_toward_start(cand)
        f_p = objective.value(pulled)
        if f_p < best_feasible_f:
            best_feasible_f = f_p
            best_feasible = pulled

    if best_feasible is None:
        best_z = best_rho_z
        report = StabilizeReport(
            iterations_total=iterations,
            iterations_to_first_stable=first_stable,
            final_objective_ratio=_ratio(objective.value(best_z), f0),
            final_spectral_radius=best_rho,
            relative_model_change=_relative_change(best_z, z0, z0_norm),
            converged=False,
        )
        raise NotStabilizedError(
            f"no iterate reached spectral radius below {boundary} "
            f"(best {best_rho:.6g} after {iterations} iterations)",
            wrap(best_z),
            report,
        )

    final_f = best_feasible_f
    final_rho = memo.radius(best_feasible[:order, :order])
    report = StabilizeReport(
        iterations_total=iterations,
        iterations_to_first_stable=first_stable,
        final_objective_ratio=_ratio(final_f, f0),
        final_spectral_radius=final_rho,
        relative_model_change=_relative_change(best_feasible, z0, z0_norm),
        converged=converged or final_f <= budget,
    )
    return wrap(best_feasible), report


def _ratio(f: float, f0: float) -> float:
    if f0 > 0.0:
        return f / f0
    return 1.0 if f == 0.0 else np.inf


def _relative_change(z: np.ndarray, z0: np.ndarray, z0_norm: float) -> float:
    change = float(np.linalg.norm(z - z0))
    return change / z0_norm if z0_norm > 0.0 else change


def save_report_json(report: StabilizeReport, path: str | pathlib.Path) -> None:
    pathlib.Path(path).write_text(json.dumps(asdict(report), indent=1) + "\n")
