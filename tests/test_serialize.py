"""Trajectory CSV codec: the batched writer against the per-row reference,
the reader's round trip, the reader against the per-cell one it replaced
and the messages it gives, the unsorted read of rows in written order, and
the atomic writer's memory and file mode, and the JSON artefact writer's
spelling of infinities."""

import json
import math
import os
import random
import re
import stat
import tracemalloc
import warnings
from itertools import groupby, repeat
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


def test_json_artefacts_spell_infinities_as_the_csv_files_do():
    payload = {"a": [math.inf, -math.inf, 1.5], "b": (0.1, {"c": -math.inf}), "d": None}
    text = serialize.json_text(payload)
    assert json.loads(text, parse_constant=float) == {
        "a": ["inf", "-inf", 1.5], "b": [0.1, {"c": "-inf"}], "d": None}
    assert text.endswith("}\n") and [fmt_float(math.inf), fmt_float(-math.inf)] == ["inf", "-inf"]
    with pytest.raises(ValueError):
        serialize.json_text({"a": math.nan})


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
    # 17000 states of 4 cells: five chunks of _WRITE_CHUNK cells, the last partial
    rng = np.random.default_rng(3)
    traj = Trajectory(rng.normal(size=(17000, 2, 2)), np.arange(17000) / 3.0)
    assert traj.array.size > serialize._WRITE_CHUNK
    assert trajectory_csv(traj) == reference_trajectory_csv(traj)


@settings(max_examples=100, deadline=None, database=None)
@given(traj=trajectories(allow_nan=True), chunk=st.integers(1, 40))
def test_writer_matches_reference_at_any_chunk(traj, chunk):
    with mock.patch.object(serialize, "_WRITE_CHUNK", chunk):
        assert trajectory_csv(traj) == reference_trajectory_csv(traj)


# ---------------------------------------------------------------------------
# the float kernel against "%.17g", value by value


def kernel_text(values) -> str:
    """The float kernel's text of each value and a newline, ``_WRITE_CHUNK``
    values per call."""
    values = np.asarray(values, dtype=float)
    step = serialize._WRITE_CHUNK
    return "".join(serialize._text(serialize._text_rows([values[lo : lo + step]], ord("\n")))
                   for lo in range(0, values.size, step))


def assert_kernel_is_python(values):
    values = np.asarray(values, dtype=float).tolist()
    got = kernel_text(values)
    if got != "%.17g\n" * len(values) % tuple(values):
        wrong = [(v, g) for v, g in zip(values, got.splitlines()) if g != "%.17g" % v]
        raise AssertionError(f"{len(wrong)} values differ from %.17g, the first {wrong[:5]}")


POWERS = np.array([float(f"1e{j}") for j in range(-323, 309)])

EDGES = [5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0, math.inf, -math.inf,
         math.nan, math.copysign(math.nan, -1.0), 1e16, 1e17, 99999999999999999.0, 0.1, 1e-4,
         9.9999999999999995e-5, 1e-5, 123.5, -7.0]


def exact_ties(count: int, seed: int) -> np.ndarray:
    """Doubles in [1e15, 2**50), with k = 15 and a spacing of 1/8, whose 17th
    digit is followed by exactly 5: N + 0.25 and N + 0.75."""
    whole = np.random.default_rng(seed).integers(10**15, 2**50, size=count)
    return np.concatenate([whole + 0.25, whole + 0.75, -(whole + 0.75)])


@pytest.mark.parametrize("values", [
    pytest.param(np.concatenate([POWERS, np.nextafter(POWERS, math.inf),
                                 np.nextafter(POWERS, -math.inf)]), id="powers-of-ten"),
    pytest.param(EDGES, id="edges"),
    pytest.param(exact_ties(2000, 0), id="exact-ties"),
    pytest.param([1.0, 2.0, 1000000000000000.25, 3.0], id="fallback-wider-than-the-rest"),
    pytest.param([1.0, math.nan, 2.0], id="nan-among-one-digit-values"),
])
def test_float_kernel_is_python(values):
    assert_kernel_is_python(values)


def test_float_kernel_on_random_bit_patterns():
    rng = np.random.default_rng(20)
    assert_kernel_is_python(rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(float))


def test_undecided_values_take_the_fallback():
    # with no margin the arithmetic rounds every exact tie down, so
    # 1000000000000000.75 would read ...0.7; "%.17g" rounds it to even, ...0.8
    ties = exact_ties(200, 1)
    with mock.patch.object(serialize, "_TIE_MARGIN", 0.0):
        undecided = kernel_text(ties).splitlines()
    assert sum(g != "%.17g" % v for v, g in zip(ties.tolist(), undecided)) >= 150
    assert_kernel_is_python(ties)


def reference_events_csv(traj: Trajectory) -> str:
    """The per-record writer the column writer replaced; the format's oracle."""
    lines = ["step,i,j,interacted"]
    for step, (i, j, interacted) in enumerate(traj.events):
        lines.append(f"{step},{i},{j},{1 if interacted else 0}")
    return "\n".join(lines) + "\n"


EVENT_RUNS = {
    # 20000 steps: five chunks of _WRITE_CHUNK cells at four cells a row
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
# the reader against the per-cell reader it replaced


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
    """The per-cell reader that once read every file the C parse declined;
    the oracle for bits and messages on the files both readers accept."""
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
        # only cells the edit changes: a value cell "inf" or "nan" has no
        # digit to replace, and would leave the file as written
        c = rnd.choice([c for c in columns if edit(cells[c]) != cells[c]])
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


def _names_a_mutated_cell(path, got, written):
    """Whether the message names a cell that does not parse, on its true
    file line, at a place the mutation changed."""
    found = re.fullmatch(rf"{re.escape(str(path))}: line (\d+): (\w+) (.*) does not parse as "
                         r"(int|float)", got) if isinstance(got, str) else None
    if not found:
        return False
    line, column = int(found[1]), serialize._ROW_DTYPE.names.index(found[2])
    kind = "int" if serialize._ROW_DTYPE[column] == np.int64 else "float"
    cells = path.read_bytes().decode().replace("\r\n", "\n").split("\n")[line - 1].split(",")
    before = written.read_text().split("\n")[line - 1].split(",")
    return found[4] == kind and found[3] == repr(cells[column]) and cells[column] != before[column]


# What the reader makes of each mutation, against the per-cell reader it
# replaced. "reference": that reader's bits or message; "written": the bits of
# the file before the mutation; "header": an unexpected-header message;
# "cell": a message naming a cell the mutation changed, on its file line. Two
# entries mean the outcome depends on where the mutation lands.
MUTATION_OUTCOMES = {
    "as written": {"reference"},
    "shuffled rows": {"reference"},
    "trailing blank lines": {"reference"},
    "middle blank line": {"written"},  # was: "does not hold the five fields"
    "leading whitespace": {"header"},  # was: read, the whole text stripped
    "leading whitespace in a row": {"reference"},
    "padded cell": {"reference"},
    "underscore": {"cell"},  # was: '1_5' read as 15.0, '0_' rejected
    "plus sign": {"reference"},
    "float in an int column": {"reference"},
    "hash": {"reference"},
    "comment line": {"reference"},
    "non-ASCII digit": {"cell"},  # was: read as its ASCII digit
    "form feed": {"written", "cell"},  # was: a line break
    "record separator": {"written", "cell"},  # was: a line break
    "empty cell": {"reference"},
    "header only": {"reference"},
    "empty file": {"reference"},
}


def assert_mutation_outcome(path, traj, mutation, rnd, crlf):
    written = path.with_name("written.csv")
    written.write_text(trajectory_csv(traj))
    write_mutant(path, traj, mutation, rnd, crlf)
    got = new_outcome(path)
    checks = {
        "reference": lambda: got == outcome(reference_load_trajectory, path),
        "written": lambda: got == outcome(reference_load_trajectory, written),
        "header": lambda: got.startswith(f"{path}: unexpected trajectory header "),
        "cell": lambda: _names_a_mutated_cell(path, got, written),
    }
    assert any(checks[kind]() for kind in MUTATION_OUTCOMES[mutation]), (mutation, got)


def test_every_mutation_has_an_outcome():
    assert sorted(MUTATION_OUTCOMES) == sorted(MUTATIONS)


@settings(max_examples=400, deadline=None, database=None)
@given(
    traj=trajectories(allow_nan=True),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    crlf=st.booleans(),
    rnd=st.randoms(use_true_random=False),
)
def test_reader_against_the_per_cell_reader(traj, mutation, crlf, rnd, tmp_path_factory):
    path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
    assert_mutation_outcome(path, traj, mutation, rnd, crlf)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_each_mutation_has_its_outcome(mutation, crlf, tmp_path):
    traj = Trajectory(np.arange(12, dtype=float).reshape(3, 2, 2) / 7.0, [0.0, 0.5, 2.0])
    assert_mutation_outcome(tmp_path / "trajectory.csv", traj, mutation, random.Random(5), crlf)


FIVE_FIELDS = f"does not hold the five fields {_TRAJECTORY_HEADER}"
BAD_HEADER = f"unexpected trajectory header '', expected {_TRAJECTORY_HEADER!r}"


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_blank_lines_between_rows_are_passed_over(crlf, tmp_path):
    traj = EXAMPLES["vector_opinions"]
    header, *rows = trajectory_csv(traj).splitlines()
    end = "\r\n" if crlf else "\n"
    path = tmp_path / "trajectory.csv"

    def write(lines):
        path.write_bytes("".join(line + end for line in lines).encode())

    # the file's lines 1-3, then two blank lines 4 and 5; rows[2] is line 6
    write([header, *rows[:2], "", "", *rows[2:]])
    assert_bit_equal(load_trajectory(path), traj)
    bad = rows[3].split(",")
    bad[4] = "x"
    write([header, *rows[:2], "", "", *rows[2:3], ",".join(bad), *rows[4:]])
    assert new_outcome(path) == f"{path}: line 7: value 'x' does not parse as float"
    write([header, *rows[:2], "", "", *rows[2:3], "0,0,1", *rows[4:]])
    assert new_outcome(path) == f"{path}: line 7 {FIVE_FIELDS}"
    write([header, *rows[:2], "", "", *rows[2:3], "0,0,99,0,1", *rows[4:]])
    assert new_outcome(path) == (
        f"{path}: line 7: agent 99 is out of range for a file of {len(rows)} rows"
    )


@pytest.mark.parametrize(
    "lines, message",
    [
        pytest.param([], "empty trajectory file", id="empty"),
        pytest.param([""], BAD_HEADER, id="blank-line"),
        pytest.param(["", _TRAJECTORY_HEADER, "0,0,0,0,1"], BAD_HEADER, id="blank-line-first"),
        pytest.param([_TRAJECTORY_HEADER], "the trajectory has a header but no rows",
                     id="header-only"),
        pytest.param([_TRAJECTORY_HEADER, "", "\r"], "the trajectory has a header but no rows",
                     id="header-and-blank-lines"),
        pytest.param([_TRAJECTORY_HEADER, "0,0,0,0,1_5"],
                     "line 2: value '1_5' does not parse as float", id="underscore"),
        pytest.param([_TRAJECTORY_HEADER, "0,0,0,0,1", "\t"], f"line 3 {FIVE_FIELDS}",
                     id="whitespace-line"),
        pytest.param([_TRAJECTORY_HEADER, "0,0,0,0, 1x\t"],
                     "line 2: value ' 1x\\t' does not parse as float", id="padded-bad-cell"),
    ],
)
def test_reader_messages(lines, message, tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_bytes("".join(line + "\n" for line in lines).encode())
    assert new_outcome(path) == f"{path}: {message}"


def test_reads_a_large_file_and_names_its_errors(tmp_path):
    rng = np.random.default_rng(4)
    traj = Trajectory(rng.normal(size=(3000, 3, 2)), np.cumsum(rng.random(3000) + 0.1))
    path = tmp_path / "trajectory.csv"
    text = trajectory_csv(traj)
    path.write_text(text)
    assert_bit_equal(load_trajectory(path), traj)
    # a range error late in the file: the per-cell reader's line number
    path.write_text(text + "0,0,99999,0,1\n")
    assert new_outcome(path) == outcome(reference_load_trajectory, path)
    assert "line 18002: agent 99999 is out of range for a file of 18001 rows" in new_outcome(path)
    # a bad cell late in the file, past loadtxt's first read
    path.write_text(text + "0,0,0,0,1\n" * 3 + "0,0,0,0,y\n")
    assert new_outcome(path) == f"{path}: line 18005: value 'y' does not parse as float"


def test_reads_a_file_without_a_final_newline(tmp_path):
    traj = EXAMPLES["special_values"]
    path = tmp_path / "trajectory.csv"
    path.write_text(trajectory_csv(traj).rstrip("\n"))
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


@pytest.mark.parametrize("action", ["ignore", "default"])
def test_a_warning_from_loadtxt_is_an_error(action, tmp_path):
    # numpy 2.0 parses an int cell such as '2.7' through float, truncates it
    # and only warns; that warning must not let the result through
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
        warnings.simplefilter(action)
        with pytest.raises(ValueError) as info:
            load_trajectory(path)
    assert str(info.value) == (
        f"{path}: loadtxt(): Parsing an integer via a float is deprecated."
    )


# ---------------------------------------------------------------------------
# rows in written order: read without sorting


def _step_blocks(rows):
    """The rows of a written file, one list per step block."""
    return [list(block) for _, block in groupby(rows, key=lambda row: row.split(",")[0])]


def _swap_dims(blocks):
    """The first step with the rows of agent 0's dims 0 and 1 swapped."""
    first = list(blocks[0])
    first[0], first[1] = first[1], first[0]
    return [first, *blocks[1:]]


ORDERINGS = {
    "as written": lambda blocks: blocks,
    "step blocks descending": lambda blocks: blocks[::-1],
    "repeated step block": lambda blocks: [*blocks[:2], blocks[1], *blocks[2:]],
    "rows not a multiple of n*m": lambda blocks: [*blocks[:-1], blocks[-1][:-1]],
    "dims swapped in one step": _swap_dims,
}


@pytest.mark.parametrize("ordering", list(ORDERINGS))
@pytest.mark.parametrize("name", ["vector_opinions", "special_values", "flow_stamps"])
def test_in_order_check_matches_the_sorting_reader(name, ordering, tmp_path):
    header, *rows = trajectory_csv(EXAMPLES[name]).splitlines()
    blocks = ORDERINGS[ordering](_step_blocks(rows))
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join([header, *(row for block in blocks for row in block)]) + "\n")
    columns = serialize._read_columns(path)
    traj = EXAMPLES[name]
    in_order = serialize._in_grid_order(columns[0], columns[2], columns[3], traj.n, traj.m)
    assert in_order == (ordering == "as written")
    assert new_outcome(path) == outcome(reference_load_trajectory, path)


@pytest.mark.parametrize("shuffle", [False, True], ids=["written", "shuffled"])
def test_only_rows_out_of_order_are_sorted(shuffle, tmp_path):
    traj = EXAMPLES["flow_stamps"]
    header, *rows = trajectory_csv(traj).splitlines()
    if shuffle:
        random.Random(3).shuffle(rows)
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        assert_bit_equal(load_trajectory(path), traj)
    assert (lexsort.call_count >= 1) if shuffle else (lexsort.call_count == 0)


# ---------------------------------------------------------------------------
# memory guards: tracemalloc's peak over what was allocated at the call

MiB = 1 << 20


def traced_peak(call) -> int:
    """Bytes the call allocated at its peak, over what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_atomic_write_peaks_at_a_slice_not_the_text(tmp_path):
    # measured 2.0 MiB on numpy 2.4 / CPython 3.11: the 1 MiB str slice and
    # its encoded bytes; writing the whole text at once peaked at 8.0 MiB
    text = "0123456789abcde\n" * (8 * MiB // 16)
    path = tmp_path / "big.txt"
    assert traced_peak(lambda: serialize.atomic_write_text(path, text)) <= 2 * MiB + MiB // 2
    assert path.read_text() == text


def test_loading_a_written_trajectory_peaks_near_its_record_array(tmp_path):
    # measured 4.1 MiB, 1.0 MiB over loadtxt's 3.05 MiB of rows (the value
    # copy, bool temporaries, loadtxt's buffers); the sorting path peaked
    # at 8.8 MiB
    traj = Trajectory(np.random.default_rng(0).normal(size=(20001, 4, 1)), np.arange(20001) / 3.0)
    path = tmp_path / "trajectory.csv"
    serialize.atomic_write_text(path, trajectory_csv(traj))
    record_array = 20001 * 4 * serialize._ROW_DTYPE.itemsize
    loaded = []
    assert traced_peak(lambda: loaded.append(load_trajectory(path))) <= record_array + 3 * MiB // 2
    assert_bit_equal(loaded[0], traj)


# ---------------------------------------------------------------------------
# the atomic writer


def test_atomic_write_spans_slices_byte_for_byte(tmp_path):
    text = trajectory_csv(EXAMPLES["special_values"])
    path = tmp_path / "out" / "trajectory.csv"
    with mock.patch.object(serialize, "_WRITE_SLICE", 7):
        serialize.atomic_write_text(path, text)
    assert path.read_bytes() == text.encode()
    serialize.atomic_write_text(path, "")
    assert path.read_bytes() == b""
    assert [p.name for p in path.parent.iterdir()] == ["trajectory.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_applies_the_umask(umask, mode, tmp_path):
    previous = os.umask(umask)
    try:
        serialize.atomic_write_text(tmp_path / "a.json", "{}\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "a.json").stat().st_mode) == mode
