"""Trajectory CSV codec: the batched writer against the per-row reference,
the reader's round trip, and the C-parsed reader against the per-cell one."""

import random
import re
import warnings
from itertools import repeat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opiniondyn import (
    DeffuantWeisbuch,
    OpinionState,
    SymmetricPairGossip,
    WeightSpec,
    flow_simulate,
    serialize,
    simulate_gossip,
)
from opiniondyn.serialize import events_csv, fmt_float, load_trajectory, trajectory_csv
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


def test_writer_spans_chunks():
    # 17000 states of 4 cells: two chunks of _WRITE_CHUNK cells, the second partial
    rng = np.random.default_rng(3)
    traj = Trajectory(rng.normal(size=(17000, 2, 2)), np.arange(17000) / 3.0)
    assert traj.array.size > serialize._WRITE_CHUNK
    assert trajectory_csv(traj) == reference_trajectory_csv(traj)


@settings(max_examples=100, deadline=None, database=None)
@given(traj=trajectories(allow_nan=True), chunk=st.integers(1, 40))
def test_writer_matches_reference_at_any_chunk(traj, chunk):
    with mock.patch.object(serialize, "_WRITE_CHUNK", chunk):
        assert trajectory_csv(traj) == reference_trajectory_csv(traj)


def reference_events_csv(traj: Trajectory) -> str:
    """The per-record writer the column writer replaced; the format's oracle."""
    lines = ["step,i,j,interacted"]
    for step, (i, j, interacted) in enumerate(traj.events):
        lines.append(f"{step},{i},{j},{1 if interacted else 0}")
    return "\n".join(lines) + "\n"


EVENT_RUNS = {
    # 20000 steps: two chunks of _WRITE_CHUNK cells at four cells a row
    "dw": lambda: simulate_gossip(DeffuantWeisbuch(d=0.2, mu=0.5),
                                  OpinionState(np.linspace(0.0, 1.0, 300)), 20_000, 4, thin=7),
    "pair": lambda: simulate_gossip(SymmetricPairGossip(1.0 - np.eye(2)),
                                    OpinionState([0.0, 1.0]), 20_000, 5, thin=20_000),
}


@pytest.mark.parametrize("name", list(EVENT_RUNS))
def test_events_writer_matches_reference(name):
    traj = EVENT_RUNS[name]()
    assert 4 * len(traj.events) > serialize._WRITE_CHUNK
    text = events_csv(traj)
    assert text == reference_events_csv(traj)
    assert len(text.splitlines()) == 1 + traj.stamps[-1]


@pytest.mark.parametrize("chunk", [1, 3, 4, 5, 8, 13, 40])
def test_events_writer_matches_reference_at_any_chunk(chunk):
    traj = simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 0.2, 0.5, 0.9]),
                           steps=61, seed=2, thin=3)
    with mock.patch.object(serialize, "_WRITE_CHUNK", chunk):
        assert events_csv(traj) == reference_events_csv(traj)


def test_events_writer_needs_events():
    traj = Trajectory(np.zeros((1, 2, 1)), [0.0])
    with pytest.raises(ValueError, match="trajectory carries no event records"):
        events_csv(traj)


# ---------------------------------------------------------------------------
# the reader's two paths


_TRAJECTORY_HEADER = "step,time,agent,dim,value"

_TRAJECTORY_COLUMNS = (
    ("step", int, np.int64),
    ("time", float, np.float64),
    ("agent", int, np.int64),
    ("dim", int, np.int64),
    ("value", float, np.float64),
)

_READ_BLOCK = 1 << 16


def reference_load_trajectory(path) -> Trajectory:
    """The per-cell reader the C parse sits in front of, as it was before;
    the reader's oracle for bits and messages."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trajectory file")
    if lines[0] != _TRAJECTORY_HEADER:
        raise ValueError(
            f"{path}: unexpected trajectory header {lines[0]!r}, expected {_TRAJECTORY_HEADER!r}"
        )
    rows = lines[1:]
    total = len(rows)
    if not total:
        raise ValueError(f"{path}: the trajectory has a header but no rows")
    if set(map(str.count, rows, repeat(","))) != {4}:
        line = next(i for i, row in enumerate(rows, 2) if row.count(",") != 4)
        raise ValueError(f"{path}: line {line} does not hold the five fields {_TRAJECTORY_HEADER}")

    columns = [np.empty(total, dtype) for _, _, dtype in _TRAJECTORY_COLUMNS]
    for lo in range(0, total, _READ_BLOCK):
        block = rows[lo : lo + _READ_BLOCK]
        cells = ",".join(block).split(",")
        for c, ((name, parse, dtype), col) in enumerate(zip(_TRAJECTORY_COLUMNS, columns)):
            try:
                col[lo : lo + len(block)] = np.fromiter(map(parse, cells[c::5]), dtype, len(block))
            except (ValueError, OverflowError):
                column = cells[c::5]
                i = next(i for i, cell in enumerate(column) if not _parses(cell, parse, dtype))
                raise ValueError(
                    f"{path}: line {lo + i + 2}: {name} {column[i]!r} "
                    f"does not parse as {parse.__name__}"
                ) from None
    for c in (2, 3):
        outside = (columns[c] < 0) | (columns[c] >= total)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"{path}: line {i + 2}: {_TRAJECTORY_COLUMNS[c][0]} {columns[c][i]} "
                f"is out of range for a file of {total} rows"
            )

    order = np.lexsort((columns[3], columns[2], columns[0]))
    step, stamp, agent, dim, value = (col[order] for col in columns)
    n, m = int(agent.max()) + 1, int(dim.max()) + 1
    gap = _grid_gap(step, agent, dim, n, m)
    if gap:
        raise ValueError(f"{path}: {gap}")
    times = stamp.reshape(-1, n * m)
    differ = np.any(times != times[:, :1], axis=1)
    if differ.any():
        k = int(np.argmax(differ))
        raise ValueError(f"{path}: the rows of step {step[k * n * m]} disagree on its time")
    try:
        return Trajectory(value.reshape(-1, n, m), times[:, 0].copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parses(cell: str, parse, dtype) -> bool:
    try:
        np.fromiter(map(parse, (cell,)), dtype, 1)
    except (ValueError, OverflowError):
        return False
    return True


def _grid_gap(step, agent, dim, n: int, m: int) -> str | None:
    per_step = n * m
    pos = np.arange(len(step))
    starts = np.ones(len(step), dtype=bool)
    np.not_equal(step[1:], step[:-1], out=starts[1:])
    off = (starts != (pos % per_step == 0)) | (agent != pos // m % n) | (dim != pos % m)
    if not off.any():
        if len(step) % per_step == 0:
            return None
        p, owner = len(step), step[-1]
    else:
        p = int(np.argmax(off))
        if p and (step[p], agent[p], dim[p]) == (step[p - 1], agent[p - 1], dim[p - 1]):
            return f"duplicate row for step {step[p]}, agent {agent[p]}, dim {dim[p]}"
        owner = step[p - 1] if starts[p] and p % per_step else step[p]
    return f"missing row for step {owner}, agent {p // m % n}, dim {p % m}"


def outcome(reader, path):
    """What a reader makes of a file: the bits it reads, or its message."""
    try:
        traj = reader(path)
    except ValueError as exc:
        return str(exc)
    return traj.array.shape, bits(traj.array).tobytes(), bits(traj.stamps).tobytes()


def _edit_cell(edit, columns=range(5)):
    def mutate(header, rows, rnd):
        k = rnd.randrange(len(rows))
        cells = rows[k].split(",")
        c = rnd.choice(list(columns))
        cells[c] = edit(cells[c])
        return [header, *rows[:k], ",".join(cells), *rows[k + 1 :]]

    return mutate


def _insert_text(text):
    def mutate(header, rows, rnd):
        body = "\n".join(rows)
        at = rnd.randrange(len(body) + 1)
        return [header, body[:at] + text + body[at:]]

    return mutate


def _insert_row(rows, rnd, row):
    """rows with one more row in front of one of them."""
    at = rnd.randrange(len(rows))
    return [*rows[:at], row, *rows[at:]]


def _non_ascii_digit(cell):
    return re.sub(r"[0-9]", lambda d: chr(0x660 + int(d.group())), cell, count=1)


# Each mutation maps (header, data rows, random) to the lines of a file.
MUTATIONS = {
    "as written": lambda header, rows, rnd: [header, *rows],
    "shuffled rows": lambda header, rows, rnd: [header, *rnd.sample(rows, len(rows))],
    "trailing blank lines": lambda header, rows, rnd: [header, *rows, "", ""],
    "middle blank line": lambda header, rows, rnd: [header, *_insert_row(rows, rnd, "")],
    "leading whitespace": lambda header, rows, rnd: [" " + header, *rows],
    "leading whitespace in a row": _edit_cell(lambda cell: " " + cell, columns=[0]),
    "padded cell": _edit_cell(lambda cell: f" {cell}\t"),
    "underscore": _edit_cell(lambda cell: re.sub(r"([0-9])", r"\1_", cell, count=1)),
    "plus sign": _edit_cell(lambda cell: "+" + cell),
    "float in an int column": _edit_cell(lambda cell: cell + ".0", columns=[0, 2, 3]),
    "hash": _insert_text("#"),
    "comment line": lambda header, rows, rnd: [header, *_insert_row(rows, rnd, "# note")],
    "non-ASCII digit": _edit_cell(_non_ascii_digit),
    "form feed": _insert_text("\x0c"),
    "record separator": _insert_text("\x1e"),
    "empty cell": _edit_cell(lambda cell: ""),
    "header only": lambda header, rows, rnd: [header],
    "empty file": lambda header, rows, rnd: [],
}


def write_mutant(path, traj, mutation, rnd, crlf=False) -> Path:
    header, *rows = trajectory_csv(traj).splitlines()
    lines = MUTATIONS[mutation](header, rows, rnd)
    end = "\r\n" if crlf else "\n"
    path.write_bytes("".join(line + end for line in lines).encode())
    return path


def new_outcome(path):
    """load_trajectory's outcome, with every warning recorded: none may
    reach the caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(load_trajectory, path)
    assert [str(w.message) for w in caught] == []
    return got


@settings(max_examples=400, deadline=None, database=None)
@given(
    traj=trajectories(allow_nan=True),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    crlf=st.booleans(),
    rnd=st.randoms(use_true_random=False),
)
def test_reader_matches_per_cell_reader(traj, mutation, crlf, rnd, tmp_path_factory):
    path = write_mutant(tmp_path_factory.mktemp("traj") / "trajectory.csv", traj, mutation, rnd,
                        crlf)
    assert new_outcome(path) == outcome(reference_load_trajectory, path)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_each_mutation_takes_the_expected_path(mutation, crlf, tmp_path):
    traj = Trajectory(np.arange(12, dtype=float).reshape(3, 2, 2) / 7.0, [0.0, 0.5, 2.0])
    path = write_mutant(tmp_path / "trajectory.csv", traj, mutation, random.Random(5), crlf)
    plain = mutation in ("as written", "shuffled rows", "plus sign") and not crlf
    assert (serialize._plain_columns(path) is not None) == plain
    assert new_outcome(path) == outcome(reference_load_trajectory, path)



def test_c_path_reads_a_large_file_and_names_its_errors(tmp_path):
    rng = np.random.default_rng(4)
    traj = Trajectory(rng.normal(size=(3000, 3, 2)), np.cumsum(rng.random(3000) + 0.1))
    path = tmp_path / "trajectory.csv"
    text = trajectory_csv(traj)
    path.write_text(text)
    assert serialize._plain_columns(path) is not None
    assert_bit_equal(load_trajectory(path), traj)
    # a range error late in a plain file: same line number on both paths
    path.write_text(text + "0,0,99999,0,1\n")
    assert serialize._plain_columns(path) is not None
    assert new_outcome(path) == outcome(reference_load_trajectory, path)
    assert "line 18002: agent 99999 is out of range for a file of 18001 rows" in new_outcome(path)


def test_c_path_reads_a_file_without_a_final_newline(tmp_path):
    traj = EXAMPLES["special_values"]
    path = tmp_path / "trajectory.csv"
    path.write_text(trajectory_csv(traj).rstrip("\n"))
    assert serialize._plain_columns(path) is not None
    assert_bit_equal(load_trajectory(path), traj)


INT_COLUMNS = {"step": 0, "agent": 2, "dim": 3}


@pytest.mark.parametrize("action", ["ignore", "default"])
@pytest.mark.parametrize("column", sorted(INT_COLUMNS))
@pytest.mark.parametrize("cell", ["3.0", "2.7", "1e3", "nan", "99999999999999999999"])
def test_int_column_cells_fail_whatever_the_warning_filters(cell, column, action, tmp_path):
    header, *rows = trajectory_csv(EXAMPLES["vector_opinions"]).splitlines()
    cells = rows[1].split(",")
    cells[INT_COLUMNS[column]] = cell
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join([header, rows[0], ",".join(cells), *rows[2:]]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        got = outcome(load_trajectory, path)
    assert got == f"{path}: line 3: {column} {cell!r} does not parse as int"
    assert got == outcome(reference_load_trajectory, path)


def test_a_warning_from_loadtxt_sends_the_file_to_the_per_cell_path(tmp_path):
    # older numpy releases parse an int cell such as '2.7' through float,
    # truncate it and only warn; that warning must not let the result through
    header, *rows = trajectory_csv(EXAMPLES["vector_opinions"]).splitlines()
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    loadtxt = np.loadtxt

    def truncating_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        out = loadtxt(*args, **kwargs)
        out["step"] = 0
        return out

    with mock.patch.object(np, "loadtxt", truncating_loadtxt), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert serialize._plain_columns(path) is None
        assert_bit_equal(load_trajectory(path), EXAMPLES["vector_opinions"])
