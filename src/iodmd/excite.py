"""Every drive of the plant: persistent excitation, cross excitation and the
benchmark bell, all through ``generate_excitation``.

Persistent excitation drives the plant from rest with a rich input (white
Gaussian noise or a constant step). Cross excitation composes the
observability and input-to-state maps of a square plant: an autonomous run
from a perturbed initial state produces an output signal which is then
replayed as the input of a second run from rest. The second run's states
and outputs, together with the replayed input, form the training data. The
bell drives the plant from rest too; its trajectory is both the ``target``
training data and the sweep's reference output.

Every kind but ``pe_gaussian_noise`` drives the plant at zero-order hold:
u_k drives the step k -> k+1, the data equation x_{k+1} = A x_k + B u_k of
the snapshot pairs, so the cross-excitation pairs satisfy the
implicit-Euler stencil exactly. White noise is simulated with u_{k+1}
driving the step instead. u_{k+1} is then independent of every regressor,
so its fits miss the input and are unstable; they are the benchmark's
unstable fits, the ones the stabilizer repairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identify import StateSpaceModel
from .linalg import _positive_finite
from .plant import simulate_continuous
from .snapshot import TrajectoryData

__all__ = [
    "EXCITATIONS",
    "ExcitationSpec",
    "target_input",
    "generate_excitation",
]

# Row tag -> excitation kind; insertion order fixes the CSV column order.
EXCITATIONS = {
    "target": "target_input",
    "pe_noise": "pe_gaussian_noise",
    "pe_step": "pe_step",
    "ce_random": "ce_gaussian_init",
    "ce_shifted": "ce_shifted_init",
}


@dataclass
class ExcitationSpec:
    """Which unit-scale signal to generate; seed drives the random variants."""

    kind: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EXCITATIONS.values():
            raise ValueError(f"unknown excitation kind {self.kind!r}")
        # numpy's generators take only nonnegative integers, and would say
        # so only once the signal is drawn
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _step_count(T: float, dt: float) -> int:
    """The number of steps of width ``dt`` in [0, T]: positive finite ``dt``
    and ``T``, with ``T`` a positive integer multiple of ``dt``."""
    _positive_finite(dt, "dt")
    _positive_finite(T, "horizon")
    ratio = T / dt
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 1:
        raise ValueError("horizon must be a positive integer multiple of dt")
    return int(round(ratio))


def target_input(times) -> np.ndarray:
    """The benchmark's reference input: a wide Gaussian bell centered at t=0.1."""
    t = np.asarray(times, dtype=float)
    return np.exp(-((t - 0.1) ** 2) / 1000.0)


def generate_excitation(
    plant: StateSpaceModel, spec: ExcitationSpec, T: float, dt: float
) -> TrajectoryData:
    """Simulate the plant over [0, T] on step ``dt`` under the signal of ``spec.kind``.

    ``pe_*`` and ``target_input`` drive the plant from rest with noise, a
    step or the bell. ``ce_*`` is two-stage cross excitation of a square
    plant: stage 1 runs the plant autonomously from a perturbed initial
    state and records the output; stage 2 runs from rest with that output as
    input, on the same grid. The returned trajectory carries stage-2 states
    and outputs with the replayed signal as inputs. The last run is at
    zero-order hold (``input_timing="start"``) for every kind but
    ``pe_gaussian_noise``, which runs at ``"end"``; the module docstring
    says why.
    """
    steps = _step_count(T, dt)
    shape = (plant.n_inputs, steps + 1)
    if spec.kind.startswith("ce_"):
        if plant.n_inputs != plant.n_outputs:
            raise ValueError(
                f"cross excitation needs a square plant, got {plant.n_inputs} inputs "
                f"and {plant.n_outputs} outputs"
            )
        if spec.kind == "ce_gaussian_init":
            rng = np.random.default_rng(spec.seed)
            x0 = rng.standard_normal(plant.order)
        else:
            x0 = np.ones(plant.order)
        # stage 2 replays only stage 1's outputs, so stage 1's state record, as
        # large as stage 2's, is freed before stage 2 allocates its own; stage
        # 1's input is zero, so its timing does not matter
        u = simulate_continuous(plant, np.zeros(shape), x0, dt).outputs
    elif spec.kind == "pe_gaussian_noise":
        rng = np.random.default_rng(spec.seed)
        u = rng.standard_normal(shape)
    elif spec.kind == "pe_step":
        u = np.ones(shape)
    else:
        times = np.arange(steps + 1) * dt
        u = np.tile(target_input(times), (plant.n_inputs, 1))
    timing = "end" if spec.kind == "pe_gaussian_noise" else "start"
    return simulate_continuous(plant, u, None, dt, timing)
