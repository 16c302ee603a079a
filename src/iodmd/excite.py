"""Training-data generation: persistent excitation and cross excitation.

Persistent excitation drives the plant from rest with a rich input (white
Gaussian noise or a constant step). Cross excitation composes the
observability and input-to-state maps of a square plant: an autonomous run
from a perturbed initial state produces an output signal which is then
replayed as the input of a second run from rest. The second run's states
and outputs, together with the replayed input, form the training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identify import StateSpaceModel
from .plant import SimConfig, simulate_continuous
from .snapshot import TrajectoryData

__all__ = [
    "ExcitationSpec",
    "PE_KINDS",
    "CE_KINDS",
    "target_input",
    "excite_pe",
    "excite_ce",
    "excite_target",
    "generate_excitation",
]

PE_KINDS = ("pe_gaussian_noise", "pe_step")
CE_KINDS = ("ce_gaussian_init", "ce_shifted_init")
_ALL_KINDS = PE_KINDS + CE_KINDS + ("target_input",)


@dataclass
class ExcitationSpec:
    """Which unit-scale signal to generate; seed drives the random variants."""

    kind: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown excitation kind {self.kind!r}")
        # numpy's generators take no negative seed
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def target_input(times) -> np.ndarray:
    """The benchmark's reference input: a wide Gaussian bell centered at t=0.1."""
    t = np.asarray(times, dtype=float)
    return np.exp(-((t - 0.1) ** 2) / 1000.0)


def excite_pe(plant: StateSpaceModel, spec: ExcitationSpec, T: float, dt: float) -> TrajectoryData:
    """Simulate the plant from rest under noise or step input."""
    if spec.kind not in PE_KINDS:
        raise ValueError(f"excite_pe cannot generate kind {spec.kind!r}")
    cfg = SimConfig(dt=dt, horizon=T)
    shape = (plant.n_inputs, cfg.n_steps + 1)
    if spec.kind == "pe_gaussian_noise":
        rng = np.random.default_rng(spec.seed)
        u = rng.standard_normal(shape)
    else:
        u = np.ones(shape)
    return simulate_continuous(plant, u, None, cfg)


def excite_ce(plant: StateSpaceModel, spec: ExcitationSpec, T: float, dt: float) -> TrajectoryData:
    """Two-stage cross excitation of a square plant.

    Stage 1 runs the plant autonomously from a perturbed initial state and
    records the output; stage 2 runs from rest with that output as input,
    on the same grid. The returned trajectory carries stage-2 states and
    outputs with the replayed signal as inputs.
    """
    if spec.kind not in CE_KINDS:
        raise ValueError(f"excite_ce cannot generate kind {spec.kind!r}")
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
    # Stage two replays the recorded outputs with zero-order-hold timing, so
    # sample u_k drives transition k -> k+1 and the stacked snapshot/input
    # pairs satisfy the implicit-Euler stencil exactly.
    cfg = SimConfig(dt=dt, horizon=T, input_timing="start")
    stage1 = simulate_continuous(plant, None, x0, cfg)
    return simulate_continuous(plant, stage1.outputs, None, cfg)


def excite_target(
    plant: StateSpaceModel, spec: ExcitationSpec, T: float, dt: float
) -> TrajectoryData:
    """Simulate the plant from rest under the benchmark bell input."""
    if spec.kind != "target_input":
        raise ValueError(f"excite_target cannot generate kind {spec.kind!r}")
    cfg = SimConfig(dt=dt, horizon=T)
    times = np.arange(cfg.n_steps + 1) * dt
    u = np.tile(target_input(times), (plant.n_inputs, 1))
    return simulate_continuous(plant, u, None, cfg)


def generate_excitation(
    plant: StateSpaceModel, spec: ExcitationSpec, T: float, dt: float
) -> TrajectoryData:
    """Dispatch on spec.kind."""
    if spec.kind in PE_KINDS:
        return excite_pe(plant, spec, T, dt)
    if spec.kind in CE_KINDS:
        return excite_ce(plant, spec, T, dt)
    return excite_target(plant, spec, T, dt)
