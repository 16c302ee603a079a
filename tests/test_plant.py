"""Plant construction and the implicit-Euler integrator."""

import re

import numpy as np
import pytest
from scipy import sparse

from iodmd.excite import ExcitationSpec, generate_excitation
from iodmd.identify import StateSpaceModel
from iodmd.plant import (
    build_transport_plant,
    relative_output_error,
    simulate_continuous,
    simulate_discrete,
)


def test_transport_plant_structure():
    plant = build_transport_plant(speed=2.0, dx=0.25)
    rate = 8.0
    expected = np.array(
        [
            [-rate, 0.0, 0.0, 0.0],
            [rate, -rate, 0.0, 0.0],
            [0.0, rate, -rate, 0.0],
            [0.0, 0.0, rate, -rate],
        ]
    )
    assert sparse.issparse(plant.a) and plant.a.nnz == 2 * 4 - 1
    assert np.array_equal(plant.a.toarray(), expected)
    assert np.array_equal(plant.b, [[rate], [0.0], [0.0], [0.0]])
    assert np.array_equal(plant.c, [[0.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(plant.d, [[0.0]])
    assert plant.order == 4
    assert plant.time_domain == "continuous"


def test_transport_plant_validation():
    with pytest.raises(ValueError):
        build_transport_plant(speed=1.0, dx=1.5)


@pytest.mark.parametrize("speed", [np.nan, np.inf, 0.0, -1.0])
def test_transport_plant_needs_a_positive_finite_speed(speed):
    with pytest.raises(ValueError, match="need a positive finite transport speed"):
        build_transport_plant(speed=speed, dx=0.25)


def test_transport_plant_holds_only_its_two_bands(traced_peak):
    # a dense 1000x1000 A would take 7.6 MiB
    plant, peak = traced_peak(build_transport_plant, 1.3, 1e-3)
    assert plant.order == 1000
    assert peak < 0.1e6


@pytest.mark.parametrize("kind", ["pe_gaussian_noise", "ce_gaussian_init"])
def test_sparse_and_dense_plants_simulate_to_the_bit(kind):
    plant = build_transport_plant(speed=1.3, dx=1e-2)
    dense = StateSpaceModel(plant.a.toarray(), plant.b, plant.c, time_domain="continuous")
    spec = ExcitationSpec(kind=kind, seed=3)
    stored, converted = (generate_excitation(model, spec, 1.0, 1e-3) for model in (plant, dense))
    assert np.array_equal(stored.states, converted.states)
    assert np.array_equal(stored.outputs, converted.outputs)


def scalar_plant():
    return StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], time_domain="continuous")


def test_sim_config_validation():
    # the simulation settings: dt and input_timing belong to the integrator,
    # the horizon T and its grid to the excitation
    u = np.zeros((1, 11))
    with pytest.raises(ValueError, match="need a positive finite dt"):
        simulate_continuous(scalar_plant(), u, None, 0.0)
    with pytest.raises(ValueError, match="unknown input_timing 'middle'"):
        simulate_continuous(scalar_plant(), u, None, 0.1, input_timing="middle")
    spec = ExcitationSpec(kind="pe_step")
    with pytest.raises(ValueError, match="need a positive finite dt"):
        generate_excitation(scalar_plant(), spec, T=1.0, dt=0.0)
    with pytest.raises(ValueError, match="horizon must be a positive integer multiple of dt"):
        generate_excitation(scalar_plant(), spec, T=1.0, dt=0.3)  # not an integer number of steps
    assert generate_excitation(scalar_plant(), spec, T=1.0, dt=0.1).n_samples == 10 + 1


@pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
def test_sim_config_needs_a_positive_finite_dt_and_horizon(step):
    with pytest.raises(ValueError, match="need a positive finite dt"):
        simulate_continuous(scalar_plant(), np.zeros((1, 11)), None, step)
    spec = ExcitationSpec(kind="pe_step")
    with pytest.raises(ValueError, match="need a positive finite dt"):
        generate_excitation(scalar_plant(), spec, T=1.0, dt=step)
    with pytest.raises(ValueError, match="need a positive finite horizon"):
        generate_excitation(scalar_plant(), spec, T=step, dt=0.1)


def test_implicit_euler_matches_scalar_closed_form():
    # x' = a x + b u with constant u: x_{k+1} = (x_k + dt b u) / (1 - dt a)
    a, b, u, dt = -2.0, 3.0, 1.5, 0.1
    plant = StateSpaceModel([[a]], [[b]], [[1.0]], time_domain="continuous")
    traj = simulate_continuous(plant, np.full((1, 11), u), None, dt)
    x = 0.0
    for k in range(10):
        x = (x + dt * b * u) / (1 - dt * a)
        assert traj.states[0, k + 1] == pytest.approx(x, rel=1e-14)
    assert np.array_equal(traj.outputs, traj.states)


def test_input_timing_selects_the_sample():
    # one step with a ramp input distinguishes u_0 from u_1
    plant = StateSpaceModel([[0.0]], [[1.0]], [[1.0]], time_domain="continuous")
    u = np.array([[0.0, 1.0]])
    assert simulate_continuous(plant, u, None, 1.0, input_timing="end").states[0, 1] == 1.0
    assert simulate_continuous(plant, u, None, 1.0, input_timing="start").states[0, 1] == 0.0


def test_transport_delay_reaches_output_after_one_over_speed():
    # a bell input entering at x=0 shows up at x=1 after roughly 1/speed
    plant = build_transport_plant(speed=1.3, dx=0.01)
    n_steps = 1000
    times = np.arange(n_steps + 1) * 1e-3
    u = np.exp(-((times - 0.1) ** 2) / 1000.0).reshape(1, -1)
    traj = simulate_continuous(plant, u, None, 1e-3)
    y = traj.outputs[0]
    arrival = 1.0 / 1.3  # about 0.77
    assert y[int(0.5 * n_steps)] < 0.05  # nothing before the wave arrives
    assert y[-1] > 0.9  # settled near the inflow level afterwards
    crossing = times[np.argmax(y > 0.5)]
    assert abs(crossing - arrival) < 0.05


def test_simulate_continuous_rejects_bad_start_and_method():
    plant = build_transport_plant(speed=1.0, dx=0.5)
    with pytest.raises(ValueError, match="x0 must have 2 entries, got 3"):
        simulate_continuous(plant, np.zeros((1, 6)), np.ones(3), 0.1)
    with pytest.raises(ValueError, match="need at least one input sample"):
        simulate_continuous(plant, np.zeros((1, 0)), None, 0.1)  # the grid has no point
    discrete = StateSpaceModel(plant.a, plant.b, plant.c, step_width=0.1)
    with pytest.raises(ValueError, match="continuous-time model"):
        simulate_continuous(discrete, np.zeros((1, 6)), None, 0.1)


def test_simulate_continuous_reads_c_x_plus_d_u():
    rng = np.random.default_rng(3)
    a, b, c, d = (rng.standard_normal(shape) for shape in ((3, 3), (3, 2), (2, 3), (2, 2)))
    model = StateSpaceModel(a - 3.0 * np.eye(3), b, c, d, time_domain="continuous")
    u = rng.standard_normal((2, 11))
    traj = simulate_continuous(model, u, rng.standard_normal(3), 0.05)
    assert np.allclose(traj.outputs, c @ traj.states + d @ u, atol=1e-14)
    assert not np.allclose(traj.outputs, c @ traj.states)


def test_simulate_discrete_matches_manual_loop():
    rng = np.random.default_rng(5)
    model = StateSpaceModel(
        a=0.5 * rng.standard_normal((3, 3)),
        b=rng.standard_normal((3, 2)),
        c=rng.standard_normal((1, 3)),
        d=rng.standard_normal((1, 2)),
        step_width=0.1,
    )
    u = rng.standard_normal((2, 6))
    traj = simulate_discrete(model, u)
    x = np.zeros(3)
    for k in range(6):
        assert np.allclose(traj.states[:, k], x, atol=1e-14)
        assert np.allclose(traj.outputs[:, k], model.c @ x + model.d @ u[:, k], atol=1e-14)
        x = model.a @ x + model.b @ u[:, k]
    assert traj.step_width == 0.1


def test_simulate_discrete_initial_state_and_validation():
    model = StateSpaceModel(a=[[0.5]], b=[[1.0]], c=[[2.0]], d=[[0.0]])
    traj = simulate_discrete(model, np.zeros((1, 3)), x0=[4.0])
    assert np.allclose(traj.states[0], [4.0, 2.0, 1.0])
    assert np.allclose(traj.outputs[0], [8.0, 4.0, 2.0])
    with pytest.raises(ValueError):
        simulate_discrete(model, None)
    continuous = StateSpaceModel(a=[[0.5]], time_domain="continuous")
    with pytest.raises(ValueError):
        simulate_discrete(continuous, np.zeros((1, 3)))
    # u is inputs x samples: a 1-D signal is not split into rows
    two_inputs = StateSpaceModel(a=[[0.5]], b=[[1.0, 1.0]])
    with pytest.raises(ValueError, match=re.escape("u must be a 2x* matrix, got shape (6,)")):
        simulate_discrete(two_inputs, np.zeros(6))
    plant = StateSpaceModel([[-1.0]], [[1.0, 1.0]], [[1.0]], time_domain="continuous")
    with pytest.raises(ValueError, match=re.escape("u must be a 2x* matrix, got shape (22,)")):
        simulate_continuous(plant, np.zeros(22), None, 0.1)


def test_relative_output_error_hand_values():
    y_ref = np.array([[3.0, 4.0]])
    y_test = np.array([[3.0, 3.0]])
    assert relative_output_error(y_ref, y_test) == pytest.approx(1.0 / 5.0)
    assert relative_output_error(y_ref, y_ref) == 0.0
    with pytest.raises(ValueError):
        relative_output_error(np.zeros((1, 2)), y_test)
    with pytest.raises(ValueError):
        relative_output_error(y_ref, np.ones((2, 2)))
