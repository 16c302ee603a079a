import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iodmd.snapshot import (
    SnapshotPairs,
    TrajectoryData,
    load_trajectory_csv,
    make_pairs,
    project_pairs,
    save_trajectory_csv,
)


def small_traj():
    states = np.arange(12.0).reshape(3, 4)
    inputs = np.array([[10.0, 11.0, 12.0, 13.0]])
    outputs = np.array([[0.0, 1.0, 4.0, 9.0]])
    return TrajectoryData(states=states, inputs=inputs, outputs=outputs, step_width=0.5)


def test_make_pairs_aligns_columns():
    pairs = make_pairs(small_traj())
    assert np.array_equal(pairs.x0, np.arange(12.0).reshape(3, 4)[:, :-1])
    assert np.array_equal(pairs.x1, np.arange(12.0).reshape(3, 4)[:, 1:])
    assert np.array_equal(pairs.u0, [[10.0, 11.0, 12.0]])
    assert np.array_equal(pairs.y0, [[0.0, 1.0, 4.0]])
    assert pairs.step_width == 0.5
    assert pairs.x0.shape[1] == 3


def test_make_pairs_needs_two_samples():
    with pytest.raises(ValueError):
        make_pairs(TrajectoryData(states=np.ones((2, 1))))


def test_trajectory_validates_channel_lengths():
    with pytest.raises(ValueError):
        TrajectoryData(states=np.ones((2, 4)), inputs=np.ones((1, 3)))
    with pytest.raises(ValueError):
        TrajectoryData(states=np.ones((2, 4)), step_width=0.0)
    # a 1-D channel block is not promoted to one row
    for name in ("inputs", "outputs"):
        with pytest.raises(ValueError) as exc:
            TrajectoryData(states=np.ones((2, 4)), **{name: np.ones(4)})
        assert str(exc.value) == f"{name} must be a *x4 matrix, got shape (4,)"
    with pytest.raises(ValueError, match=re.escape("states must be a *x* matrix, got shape (4,)")):
        TrajectoryData(states=np.ones(4))


def test_snapshot_pairs_shape_checks():
    with pytest.raises(ValueError):
        SnapshotPairs(x0=np.ones((2, 3)), x1=np.ones((2, 4)))
    with pytest.raises(ValueError):
        SnapshotPairs(x0=np.ones((2, 3)), x1=np.ones((2, 3)), u0=np.ones((1, 2)))
    x = np.ones((2, 3))
    for kwargs, message in (
        ({"x0": np.ones(3), "x1": np.ones(3)}, "x0 must be a *x* matrix, got shape (3,)"),
        ({"x0": x, "x1": None}, "x1 must be a 2x3 matrix, got shape ()"),
        ({"x0": x, "x1": x, "u0": np.ones(3)}, "u0 must be a *x3 matrix, got shape (3,)"),
        ({"x0": x, "x1": x, "y0": np.ones(3)}, "y0 must be a *x3 matrix, got shape (3,)"),
    ):
        with pytest.raises(ValueError) as exc:
            SnapshotPairs(**kwargs)
        assert str(exc.value) == message
    # omitted channels are empty blocks with one column per pair
    pairs = SnapshotPairs(x0=x, x1=x)
    assert pairs.u0.shape == pairs.y0.shape == (0, 3)
    assert (pairs.n_inputs, pairs.n_outputs) == (0, 0)


@pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_every_step_width_is_positive_and_finite(step):
    x = np.ones((2, 3))
    with pytest.raises(ValueError, match="need a positive finite step_width"):
        TrajectoryData(states=x, step_width=step)
    with pytest.raises(ValueError, match="need a positive finite step_width"):
        SnapshotPairs(x0=x, x1=x, step_width=step)
    with pytest.raises(ValueError, match="need a positive finite step_width"):
        SnapshotPairs(x0=x, x1=x, step_width=None)
    assert SnapshotPairs(x0=x, x1=x).step_width == 1.0


def test_project_pairs_applies_basis_transpose():
    pairs = make_pairs(small_traj())
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))
    reduced = project_pairs(pairs, q)
    assert np.allclose(reduced.x0, q.T @ pairs.x0)
    assert np.allclose(reduced.x1, q.T @ pairs.x1)
    # inputs and outputs pass through untouched
    assert np.array_equal(reduced.u0, pairs.u0)
    assert np.array_equal(reduced.y0, pairs.y0)


def test_trajectory_csv_roundtrip_exact(tmp_path):
    traj = small_traj()
    traj.states[0, 0] = 1.0 / 3.0  # not representable in short decimal
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    back = load_trajectory_csv(path)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.inputs, traj.inputs)
    assert np.array_equal(back.outputs, traj.outputs)
    assert back.step_width == traj.step_width


def test_load_trajectory_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError):
        load_trajectory_csv(path)


@pytest.mark.parametrize(
    "header",
    ["t,u1,x1,y1", "t,x1,xx,y1", "t,x2,x1,u1", "t,x1,y1,u1", "x1,t,u1,y1", "t, x1,u1,y1"],
)
def test_load_trajectory_rejects_a_misordered_header(tmp_path, header):
    # a column read into the wrong block would go unnoticed: every row
    # still has the right number of values
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n0,1,2,3\n1,4,5,6\n")
    with pytest.raises(ValueError, match=re.escape(repr(header))):
        load_trajectory_csv(path)


def test_load_trajectory_needs_a_state_column(tmp_path):
    # inputs and outputs alone leave nothing to fit
    path = tmp_path / "nostate.csv"
    path.write_text("t,u1,y1\n0,1,2\n1,3,4\n")
    with pytest.raises(ValueError, match="header 't,u1,y1' names no state column"):
        load_trajectory_csv(path)


def test_load_trajectory_rejects_rows_wider_than_the_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1\n0,1,2\n1,4,5\n")
    with pytest.raises(ValueError, match="rows have 3 values"):
        load_trajectory_csv(path)


@pytest.mark.parametrize("rows", ["", "0,1,2,3\n"])
def test_load_trajectory_needs_two_rows_without_a_warning(tmp_path, rows):
    # pytest turns warnings into errors, so a warning would fail this too
    path = tmp_path / "short.csv"
    path.write_text("t,x1,u1,y1\n" + rows)
    with pytest.raises(ValueError, match="need at least 2 samples"):
        load_trajectory_csv(path)


@given(
    seed=st.integers(0, 10_000),
    n_states=st.integers(1, 4),
    n_samples=st.integers(2, 6),
)
@settings(max_examples=25, deadline=None)
def test_csv_roundtrip_property(seed, n_states, n_samples, tmp_path_factory):
    rng = np.random.default_rng(seed)
    traj = TrajectoryData(
        states=rng.standard_normal((n_states, n_samples)),
        inputs=rng.standard_normal((1, n_samples)),
        outputs=rng.standard_normal((2, n_samples)),
        step_width=float(rng.uniform(0.01, 2.0)),
    )
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    save_trajectory_csv(traj, path)
    back = load_trajectory_csv(path)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.inputs, traj.inputs)
    assert np.array_equal(back.outputs, traj.outputs)
    assert back.step_width == pytest.approx(traj.step_width, rel=1e-12)


@pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0 / 3.0, 0.7])
def test_long_uniform_time_grid_loads(tmp_path, dt):
    n = 20_001
    traj = TrajectoryData(states=np.ones((1, n)), step_width=dt)
    path = tmp_path / "long.csv"
    save_trajectory_csv(traj, path)
    back = load_trajectory_csv(path)
    assert back.step_width == dt
    assert np.array_equal(back.times, traj.times)


@pytest.mark.parametrize("sample, shift", [(17, 0.25), (39, -0.5), (1, -1.0), (5, -3.0)])
def test_load_trajectory_rejects_a_shifted_time_row(tmp_path, sample, shift):
    # one time entry of a 40-sample trajectory moves off the grid (or back
    # in time); the loader names the first sample that does not fit
    rng = np.random.default_rng(3)
    traj = TrajectoryData(
        states=rng.standard_normal((2, 40)),
        inputs=rng.standard_normal((1, 40)),
        step_width=1e-3,
    )
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    fields = lines[sample + 1].split(",")
    fields[0] = "%.17g" % (float(fields[0]) + shift * 1e-3)
    lines[sample + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"sample {sample} \(line {sample + 2}\)"):
        load_trajectory_csv(path)
