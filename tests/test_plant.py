"""Plant construction and the implicit-Euler integrator."""

import numpy as np
import pytest

from iodmd.identify import StateSpaceModel
from iodmd.plant import (
    Plant,
    SimConfig,
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
    assert np.array_equal(plant.a_matrix, expected)
    assert np.array_equal(plant.b_matrix, [[rate], [0.0], [0.0], [0.0]])
    assert np.array_equal(plant.c_matrix, [[0.0, 0.0, 0.0, 1.0]])
    assert plant.n_states == 4


def test_transport_plant_validation():
    with pytest.raises(ValueError):
        build_transport_plant(speed=0.0, dx=0.1)
    with pytest.raises(ValueError):
        build_transport_plant(speed=1.0, dx=1.5)


def test_plant_shape_checks():
    with pytest.raises(ValueError):
        Plant(a_matrix=np.ones((2, 3)), b_matrix=np.ones((2, 1)), c_matrix=np.ones((1, 2)))
    with pytest.raises(ValueError):
        Plant(a_matrix=np.eye(2), b_matrix=np.ones((3, 1)), c_matrix=np.ones((1, 2)))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.3, horizon=1.0)  # not an integer number of steps
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, horizon=1.0, input_timing="middle")
    assert SimConfig(dt=0.1, horizon=1.0).n_steps == 10


def test_implicit_euler_matches_scalar_closed_form():
    # x' = a x + b u with constant u: x_{k+1} = (x_k + dt b u) / (1 - dt a)
    a, b, u, dt = -2.0, 3.0, 1.5, 0.1
    plant = Plant(a_matrix=[[a]], b_matrix=[[b]], c_matrix=[[1.0]])
    cfg = SimConfig(dt=dt, horizon=1.0)
    traj = simulate_continuous(plant, np.full((1, 11), u), None, cfg)
    x = 0.0
    for k in range(10):
        x = (x + dt * b * u) / (1 - dt * a)
        assert traj.states[0, k + 1] == pytest.approx(x, rel=1e-14)
    assert np.array_equal(traj.outputs, traj.states)


def test_input_timing_selects_the_sample():
    # one step with a ramp input distinguishes u_0 from u_1
    plant = Plant(a_matrix=[[0.0]], b_matrix=[[1.0]], c_matrix=[[1.0]])
    u = np.array([[0.0, 1.0]])
    cfg_end = SimConfig(dt=1.0, horizon=1.0, input_timing="end")
    cfg_start = SimConfig(dt=1.0, horizon=1.0, input_timing="start")
    assert simulate_continuous(plant, u, None, cfg_end).states[0, 1] == 1.0
    assert simulate_continuous(plant, u, None, cfg_start).states[0, 1] == 0.0


def test_transport_delay_reaches_output_after_one_over_speed():
    # a bell input entering at x=0 shows up at x=1 after roughly 1/speed
    plant = build_transport_plant(speed=1.3, dx=0.01)
    cfg = SimConfig(dt=1e-3, horizon=1.0)
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    u = np.exp(-((times - 0.1) ** 2) / 1000.0).reshape(1, -1)
    traj = simulate_continuous(plant, u, None, cfg)
    y = traj.outputs[0]
    arrival = 1.0 / 1.3  # about 0.77
    assert y[int(0.5 * cfg.n_steps)] < 0.05  # nothing before the wave arrives
    assert y[-1] > 0.9  # settled near the inflow level afterwards
    crossing = times[np.argmax(y > 0.5)]
    assert abs(crossing - arrival) < 0.05


def test_simulate_continuous_rejects_bad_start_and_method():
    plant = build_transport_plant(speed=1.0, dx=0.5)
    cfg = SimConfig(dt=0.1, horizon=0.5)
    with pytest.raises(ValueError):
        simulate_continuous(plant, None, np.ones(3), cfg)


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


def test_relative_output_error_hand_values():
    y_ref = np.array([[3.0, 4.0]])
    y_test = np.array([[3.0, 3.0]])
    assert relative_output_error(y_ref, y_test) == pytest.approx(1.0 / 5.0)
    assert relative_output_error(y_ref, y_ref) == 0.0
    with pytest.raises(ValueError):
        relative_output_error(np.zeros((1, 2)), y_test)
    with pytest.raises(ValueError):
        relative_output_error(y_ref, np.ones((2, 2)))
