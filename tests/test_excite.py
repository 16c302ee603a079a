"""Excitation signal generation and the cross-excitation data contract."""

import numpy as np
import pytest

from iodmd.excite import (
    CE_KINDS,
    PE_KINDS,
    ExcitationSpec,
    excite_ce,
    excite_pe,
    excite_target,
    generate_excitation,
    target_input,
)
from iodmd.identify import StateSpaceModel
from iodmd.plant import build_transport_plant
from iodmd.snapshot import make_pairs


@pytest.fixture(scope="module")
def plant():
    return build_transport_plant(speed=1.3, dx=0.02)


def test_target_input_is_a_wide_bell():
    t = np.array([0.1, 0.0, 1.0])
    u = target_input(t)
    assert u[0] == 1.0  # peak sits at t = 0.1
    assert u[1] == pytest.approx(np.exp(-0.01 / 1000.0))
    assert u[2] == pytest.approx(np.exp(-0.81 / 1000.0))
    assert np.all(u > 0.999)  # essentially flat over the horizon


def test_excitation_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ExcitationSpec(kind="chirp")


def test_excitation_spec_rejects_a_negative_seed():
    # numpy's generators reject it too, but only once the signal is drawn
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        ExcitationSpec(kind="pe_gaussian_noise", seed=-1)
    assert ExcitationSpec(kind="pe_gaussian_noise", seed=0).seed == 0


def test_pe_noise_is_seed_reproducible(plant):
    spec = ExcitationSpec(kind="pe_gaussian_noise", seed=3)
    a = excite_pe(plant, spec, T=0.2, dt=0.01)
    b = excite_pe(plant, spec, T=0.2, dt=0.01)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.states, b.states)
    c = excite_pe(plant, ExcitationSpec(kind="pe_gaussian_noise", seed=4), T=0.2, dt=0.01)
    assert not np.array_equal(a.inputs, c.inputs)


def test_pe_step_holds_constant_amplitude(plant):
    traj = excite_pe(plant, ExcitationSpec(kind="pe_step"), T=0.2, dt=0.01)
    assert traj.inputs.shape == (1, 21)
    assert np.all(traj.inputs == 1.0)


def test_pe_starts_from_rest(plant):
    traj = excite_pe(plant, ExcitationSpec(kind="pe_gaussian_noise"), T=0.1, dt=0.01)
    assert np.array_equal(traj.states[:, 0], np.zeros(plant.order))
    assert traj.n_samples == 11
    assert traj.step_width == 0.01


def test_pe_rejects_ce_kind(plant):
    with pytest.raises(ValueError):
        excite_pe(plant, ExcitationSpec(kind="ce_shifted_init"), T=0.1, dt=0.01)


def test_ce_training_data_satisfies_one_step_stencil(plant):
    # the whole point of the replay: recorded pairs obey the implicit-Euler
    # step (x1 - x0)/dt = A x1 + B u0 column by column
    dt = 0.01
    for kind in CE_KINDS:
        traj = excite_ce(plant, ExcitationSpec(kind=kind, seed=5), T=0.5, dt=dt)
        pairs = make_pairs(traj)
        residual = (pairs.x1 - pairs.x0) / dt - (
            plant.a @ pairs.x1 + plant.b @ pairs.u0
        )
        scale = max(1.0, np.linalg.norm(pairs.x1 / dt))
        assert np.linalg.norm(residual) <= 1e-10 * scale


def test_ce_replays_stage_one_output(plant):
    traj = excite_ce(plant, ExcitationSpec(kind="ce_shifted_init"), T=0.2, dt=0.01)
    # stage 2 runs from rest and is driven by a recorded signal
    assert np.array_equal(traj.states[:, 0], np.zeros(plant.order))
    assert traj.inputs.shape == (1, 21)
    assert np.any(traj.inputs != 0.0)


def test_ce_frees_stage_one_states_before_stage_two(traced_peak):
    # only stage 1's outputs are replayed, so one state record is alive
    # at a time
    plant = build_transport_plant(speed=1.3, dx=1e-2)
    spec = ExcitationSpec(kind="ce_shifted_init")
    traj, peak = traced_peak(generate_excitation, plant, spec, T=1.0, dt=1e-3)
    assert peak < 1.5 * traj.states.nbytes


def test_ce_random_init_is_seed_reproducible(plant):
    spec = ExcitationSpec(kind="ce_gaussian_init", seed=8)
    a = excite_ce(plant, spec, T=0.2, dt=0.01)
    b = excite_ce(plant, spec, T=0.2, dt=0.01)
    assert np.array_equal(a.states, b.states)


def test_ce_needs_square_plant():
    tall = StateSpaceModel(np.eye(2), np.ones((2, 1)), np.ones((2, 2)), time_domain="continuous")
    with pytest.raises(ValueError):
        excite_ce(tall, ExcitationSpec(kind="ce_shifted_init"), T=0.1, dt=0.01)


def test_excite_target_uses_the_bell(plant):
    traj = excite_target(plant, ExcitationSpec(kind="target_input"), T=0.2, dt=0.01)
    times = np.arange(21) * 0.01
    assert np.allclose(traj.inputs[0], target_input(times))
    assert np.allclose(traj.outputs, plant.c @ traj.states)


def test_generate_excitation_dispatch(plant):
    generators = [(kind, excite_pe) for kind in PE_KINDS]
    generators += [(kind, excite_ce) for kind in CE_KINDS]
    generators += [("target_input", excite_target)]
    inputs = []
    for kind, direct in generators:
        spec = ExcitationSpec(kind=kind, seed=1)
        traj = generate_excitation(plant, spec, T=0.1, dt=0.01)
        want = direct(plant, spec, T=0.1, dt=0.01)
        assert traj.n_samples == 11
        for name in ("states", "inputs", "outputs"):
            assert np.array_equal(getattr(traj, name), getattr(want, name)), (kind, name)
        inputs.append(traj.inputs)
    # five different input records, so the comparison above pins the generator
    for i, u in enumerate(inputs):
        assert not any(np.array_equal(u, v) for v in inputs[i + 1 :]), generators[i][0]
