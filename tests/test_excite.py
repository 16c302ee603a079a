"""Excitation signal generation and the cross-excitation data contract."""

import numpy as np
import pytest

from iodmd.excite import ExcitationSpec, generate_excitation, target_input
from iodmd.harness import EXCITATIONS, ExperimentConfig, _score
from iodmd.identify import StateSpaceModel, fit_reduced_iodmd
from iodmd.linalg import spectral_radius
from iodmd.plant import build_transport_plant, simulate_continuous
from iodmd.pod import pod_sweep
from iodmd.snapshot import make_pairs, project_pairs


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


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None, True])
def test_excitation_spec_rejects_a_seed_that_is_not_an_integer(seed):
    # numpy would reject a float only once the signal is drawn, and a sweep
    # would turn that into an error row for every random excitation
    with pytest.raises(ValueError, match="seed must be an integer"):
        ExcitationSpec(kind="pe_gaussian_noise", seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ExperimentConfig(seed=seed)


def test_excitation_spec_takes_a_numpy_integer_seed(plant):
    spec = ExcitationSpec(kind="pe_gaussian_noise", seed=np.int64(3))
    a = generate_excitation(plant, spec, T=0.1, dt=0.01)
    b = generate_excitation(plant, ExcitationSpec(kind="pe_gaussian_noise", seed=3), T=0.1, dt=0.01)
    assert np.array_equal(a.inputs, b.inputs)


def test_pe_noise_is_seed_reproducible(plant):
    spec = ExcitationSpec(kind="pe_gaussian_noise", seed=3)
    a = generate_excitation(plant, spec, T=0.2, dt=0.01)
    b = generate_excitation(plant, spec, T=0.2, dt=0.01)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.states, b.states)
    c = generate_excitation(plant, ExcitationSpec(kind="pe_gaussian_noise", seed=4), T=0.2, dt=0.01)
    assert not np.array_equal(a.inputs, c.inputs)


def test_pe_step_holds_constant_amplitude(plant):
    traj = generate_excitation(plant, ExcitationSpec(kind="pe_step"), T=0.2, dt=0.01)
    assert traj.inputs.shape == (1, 21)
    assert np.all(traj.inputs == 1.0)


def test_pe_starts_from_rest(plant):
    traj = generate_excitation(plant, ExcitationSpec(kind="pe_gaussian_noise"), T=0.1, dt=0.01)
    assert np.array_equal(traj.states[:, 0], np.zeros(plant.order))
    assert traj.n_samples == 11
    assert traj.step_width == 0.01


def test_ce_training_data_satisfies_one_step_stencil(plant):
    # the whole point of the replay: recorded pairs obey the implicit-Euler
    # step (x1 - x0)/dt = A x1 + B u0 column by column
    dt = 0.01
    for kind in ("ce_gaussian_init", "ce_shifted_init"):
        traj = generate_excitation(plant, ExcitationSpec(kind=kind, seed=5), T=0.5, dt=dt)
        pairs = make_pairs(traj)
        residual = (pairs.x1 - pairs.x0) / dt - (
            plant.a @ pairs.x1 + plant.b @ pairs.u0
        )
        scale = max(1.0, np.linalg.norm(pairs.x1 / dt))
        assert np.linalg.norm(residual) <= 1e-10 * scale


def test_ce_replays_stage_one_output(plant):
    traj = generate_excitation(plant, ExcitationSpec(kind="ce_shifted_init"), T=0.2, dt=0.01)
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
    a = generate_excitation(plant, spec, T=0.2, dt=0.01)
    b = generate_excitation(plant, spec, T=0.2, dt=0.01)
    assert np.array_equal(a.states, b.states)


def test_ce_needs_square_plant():
    tall = StateSpaceModel(np.eye(2), np.ones((2, 1)), np.ones((2, 2)), time_domain="continuous")
    with pytest.raises(ValueError):
        generate_excitation(tall, ExcitationSpec(kind="ce_shifted_init"), T=0.1, dt=0.01)


def test_excite_target_uses_the_bell(plant):
    traj = generate_excitation(plant, ExcitationSpec(kind="target_input"), T=0.2, dt=0.01)
    times = np.arange(21) * 0.01
    assert np.allclose(traj.inputs[0], target_input(times))
    assert np.allclose(traj.outputs, plant.c @ traj.states)


def test_generate_excitation_dispatch(plant):
    # every excitation kind of the sweep has its own signal, on the same grid
    kinds = tuple(EXCITATIONS.values())
    inputs = []
    for kind in kinds:
        traj = generate_excitation(plant, ExcitationSpec(kind=kind, seed=1), T=0.1, dt=0.01)
        assert traj.n_samples == 11
        inputs.append(traj.inputs)
    # five different input records: no kind falls through to another's branch
    for i, u in enumerate(inputs):
        assert not any(np.array_equal(u, v) for v in inputs[i + 1 :]), kinds[i]


@pytest.mark.parametrize(
    "kind, timing",
    [("target_input", "start"), ("pe_step", "start"), ("pe_gaussian_noise", "end")],
)
def test_each_kind_drives_the_plant_at_its_input_timing(plant, kind, timing):
    # zero-order hold for the bell and the step, u_{k+1} driving step
    # k -> k+1 for white noise
    traj = generate_excitation(plant, ExcitationSpec(kind=kind, seed=2), T=0.2, dt=0.01)
    run = simulate_continuous(plant, traj.inputs, None, 0.01, timing)
    assert np.array_equal(traj.states, run.states)


def test_noise_driven_at_the_step_end_hides_the_input_from_the_fit():
    # the pairs pair x_k with u_k; white noise u_{k+1} is independent of
    # every regressor, so at "end" timing the fitted B misses the input's
    # effect (|B|_F 0.085 against 0.685 at "start") and the fit is unstable
    # (rho 1.002 against 0.988), while the "start" fit tracks the bell
    # (error 2.5e-3 against 0.93)
    plant = build_transport_plant(speed=1.3, dx=1e-3)
    bell = generate_excitation(plant, ExcitationSpec(kind="target_input"), T=1.0, dt=1e-3)
    noise = generate_excitation(plant, ExcitationSpec(kind="pe_gaussian_noise", seed=42), T=1.0, dt=1e-3)
    held = simulate_continuous(plant, noise.inputs, None, 1e-3, "start")
    models = {}
    for timing, traj in (("end", noise), ("start", held)):
        (basis,) = pod_sweep(traj.states, (1e-1,), mode="absolute")
        models[timing] = fit_reduced_iodmd(project_pairs(make_pairs(traj), basis.modes), basis)
    assert spectral_radius(models["start"].a) < 1.0
    assert _score(models["start"], bell.inputs, bell.outputs) <= 1e-2
    assert np.linalg.norm(models["end"].b) < 0.2 * np.linalg.norm(models["start"].b)
