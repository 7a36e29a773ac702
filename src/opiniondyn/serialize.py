"""File formats: matrix and schedule input, CSV/JSON result output.

Floats are written with 17 significant digits so output round-trips
exactly and repeated runs with one seed produce byte-identical files.
All writes go through a temp-file-then-rename so readers never observe a
partial file. The trajectory CSV is known only here: ``trajectory_csv``
writes it and ``load_trajectory`` reads it back bit for bit.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import repeat
from pathlib import Path

import numpy as np

from .net_graph import BalanceResult
from .state import Trajectory

__all__ = [
    "fmt_float",
    "load_matrix",
    "resolve_matrix",
    "load_schedule",
    "trajectory_csv",
    "load_trajectory",
    "events_csv",
    "balance_json",
    "two_r_csv",
    "two_r_json",
    "atomic_write_text",
]


def fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_matrix(path) -> np.ndarray:
    """Read a square matrix from CSV (one row per line, comma-separated
    reals) or JSON (array of arrays); the format is chosen by extension,
    defaulting to CSV."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        data = json.loads(text)
    else:
        data = [
            [float(cell) for cell in line.split(",")]
            for line in text.strip().splitlines()
            if line.strip()
        ]
    mat = np.asarray(data, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got shape {mat.shape}")
    return mat


def resolve_matrix(value):
    """A matrix given inline, or as ``{"file": path}``: then the array
    ``load_matrix`` reads from that file."""
    if isinstance(value, dict) and "file" in value:
        return load_matrix(value["file"])
    return value


def load_schedule(source) -> list:
    """Parse a piecewise-constant schedule [{"until": t, "matrix": M}] from a
    JSON file path or an already-decoded list; each M is given inline or as
    ``{"file": path}`` (see ``resolve_matrix``)."""
    if isinstance(source, (str, Path)):
        entries = json.loads(Path(source).read_text())
    else:
        entries = source
    schedule = []
    for entry in entries:
        matrix = resolve_matrix(entry["matrix"])
        schedule.append((float(entry["until"]), np.asarray(matrix, dtype=float)))
    return schedule


_TRAJECTORY_HEADER = "step,time,agent,dim,value"

_TRAJECTORY_COLUMNS = (
    ("step", int, np.int64),
    ("time", float, np.float64),
    ("agent", int, np.int64),
    ("dim", int, np.int64),
    ("value", float, np.float64),
)

# Rows tokenised per block when reading: bounds the temporary cell lists.
_READ_BLOCK = 1 << 16


def trajectory_csv(traj: Trajectory) -> str:
    """Long-format CSV: step,time,agent,dim,value, one row per (step, agent,
    dim) in that order.

    One state is formatted per operation: a ``%``-template holding every
    (agent, dim) cell of the state, prefixed with the state's step and time.
    ``"%.17g" % v`` is the routine behind ``fmt_float``, so the bytes are
    those of formatting each value on its own.
    """
    arr = traj.array
    steps, n, m = arr.shape
    templates = [""] + [f"{agent},{dim},%.17g\n" for agent in range(n) for dim in range(m)]
    parts = [_TRAJECTORY_HEADER + "\n"]
    rows = arr.reshape(steps, n * m).tolist()
    for k, (t, row) in enumerate(zip(traj.stamps.tolist(), rows)):
        parts.append(f"{k},{t:.17g},".join(templates) % tuple(row))
    return "".join(parts)


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV as written by :func:`trajectory_csv`.

    Rows may come in any order, and CRLF line ends and trailing blank lines
    are accepted. Values are parsed with ``float``, so a written trajectory
    reads back bit for bit. Raises ``OSError`` when the file cannot be read,
    and ``ValueError`` naming the problem when it holds no complete
    trajectory: an empty file, a bad header, a row without five fields, a
    cell that is not a number, an agent or dim id outside the rows' range,
    a missing or duplicate (step, agent, dim) row, or rows of one step that
    disagree on its time.
    """
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
    """Name the first missing or duplicate row of (step, agent, dim) keys
    sorted in that order, or return None when every step holds each of the
    n*m (agent, dim) cells exactly once."""
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
        # A step that starts early leaves the previous step short of rows.
        owner = step[p - 1] if starts[p] and p % per_step else step[p]
    return f"missing row for step {owner}, agent {p // m % n}, dim {p % m}"


def events_csv(traj: Trajectory) -> str:
    """Gossip event records: step,i,j,interacted(0/1)."""
    if traj.events is None:
        raise ValueError("trajectory carries no event records")
    lines = ["step,i,j,interacted"]
    for step, (i, j, interacted) in enumerate(traj.events):
        lines.append(f"{step},{i},{j},{1 if interacted else 0}")
    return "\n".join(lines) + "\n"


def balance_json(result: BalanceResult) -> str:
    payload = {
        "balanced": result.balanced,
        "camps": [list(c) for c in result.camps] if result.camps else None,
        "witness": list(result.witness.nodes) if result.witness else None,
        "witness_kind": result.witness.kind if result.witness else None,
    }
    return json.dumps(payload, indent=2) + "\n"


def two_r_csv(rows: list) -> str:
    lines = ["d,trials,mean_clusters,std,conjecture"]
    for row in rows:
        lines.append(
            f"{fmt_float(row.d)},{row.trials},{fmt_float(row.mean_clusters)},"
            f"{fmt_float(row.std_clusters)},{row.conjecture}"
        )
    return "\n".join(lines) + "\n"


def two_r_json(rows: list) -> str:
    payload = [
        {
            "d": row.d,
            "trials": row.trials,
            "counts": list(row.counts),
            "mean_clusters": row.mean_clusters,
            "std": row.std_clusters,
            "conjecture": row.conjecture,
        }
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"
