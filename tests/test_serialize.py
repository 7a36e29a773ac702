"""Trajectory CSV codec: the batched writer against the per-row reference,
and the reader's round trip."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opiniondyn import OpinionState, WeightSpec, flow_simulate
from opiniondyn.serialize import fmt_float, load_trajectory, trajectory_csv
from opiniondyn.state import Trajectory


def reference_trajectory_csv(traj: Trajectory) -> str:
    """The per-row writer the batched one replaced; the format's oracle."""
    lines = ["step,time,agent,dim,value"]
    arr = traj.array
    for k in range(arr.shape[0]):
        t = fmt_float(traj.stamps[k])
        for agent in range(arr.shape[1]):
            for dim in range(arr.shape[2]):
                lines.append(f"{k},{t},{agent},{dim},{fmt_float(arr[k, agent, dim])}")
    return "\n".join(lines) + "\n"


SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 1e22]


def flow_trajectory() -> Trajectory:
    spec = WeightSpec.constant("nonnegative", np.array([[0.0, 1.0], [0.5, 0.0]]))
    return flow_simulate(spec, OpinionState([[0.0, 1.0], [1.0 / 3.0, -2.5]]), t_end=0.07, dt=0.01)


EXAMPLES = {
    "one_state": Trajectory(np.array([[[0.25], [1.0 / 3.0], [-2.0]]]), [0.0]),
    "vector_opinions": Trajectory(np.arange(24, dtype=float).reshape(2, 4, 3) / 7.0, [0.0, 1.0]),
    "special_values": Trajectory(np.array(SPECIAL).reshape(2, 3, 2), [-1.5, 1e300]),
    "flow_stamps": flow_trajectory(),
}


def bits(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=float).view(np.uint64)


def assert_bit_equal(loaded: Trajectory, traj: Trajectory):
    assert loaded.array.shape == traj.array.shape
    assert np.array_equal(bits(loaded.array), bits(traj.array))
    assert np.array_equal(bits(loaded.stamps), bits(traj.stamps))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_writer_matches_reference(name):
    traj = EXAMPLES[name]
    assert trajectory_csv(traj) == reference_trajectory_csv(traj)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_reader_round_trip_any_row_order_and_crlf(name, tmp_path):
    traj = EXAMPLES[name]
    header, *rows = trajectory_csv(traj).splitlines()
    shuffled = [rows[i] for i in np.random.default_rng(7).permutation(len(rows))]
    path = tmp_path / "trajectory.csv"
    path.write_bytes("\r\n".join([header, *shuffled, "", ""]).encode())
    assert_bit_equal(load_trajectory(path), traj)


@st.composite
def trajectories(draw, allow_nan: bool):
    steps = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    values = draw(
        st.lists(
            st.floats(allow_nan=allow_nan, allow_infinity=True),
            min_size=steps * n * m,
            max_size=steps * n * m,
        )
    )
    stamps = sorted(
        draw(st.lists(st.floats(-1e9, 1e9), min_size=steps, max_size=steps, unique=True))
    )
    return Trajectory(np.array(values).reshape(steps, n, m), stamps)


@settings(max_examples=200, deadline=None, database=None)
@given(trajectories(allow_nan=True))
def test_writer_matches_reference_property(traj):
    assert trajectory_csv(traj) == reference_trajectory_csv(traj)


@settings(max_examples=100, deadline=None, database=None)
@given(traj=trajectories(allow_nan=False), rnd=st.randoms(use_true_random=False))
def test_reader_round_trip_property(traj, rnd, tmp_path_factory):
    header, *rows = trajectory_csv(traj).splitlines()
    rnd.shuffle(rows)
    path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    assert_bit_equal(load_trajectory(path), traj)


@settings(max_examples=100, deadline=None, database=None)
@given(traj=trajectories(allow_nan=False), duplicate=st.booleans(), data=st.data())
def test_reader_names_the_missing_or_duplicate_row(traj, duplicate, data, tmp_path_factory):
    # With two states and two cells per state, dropping one row cannot
    # shrink the grid, so the reader must name exactly that row.
    assume(len(traj) >= 2 and traj.n * traj.m >= 2)
    header, *rows = trajectory_csv(traj).splitlines()
    victim = data.draw(st.integers(0, len(rows) - 1))
    step, _, agent, dim, _ = rows[victim].split(",")
    rows = rows + [rows[victim]] if duplicate else rows[:victim] + rows[victim + 1 :]
    path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    kind = "duplicate" if duplicate else "missing"
    with pytest.raises(ValueError, match=f"{kind} row for step {step}, agent {agent}, dim {dim}$"):
        load_trajectory(path)
