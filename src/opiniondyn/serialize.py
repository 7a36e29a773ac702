"""File formats: matrix and schedule input, CSV/JSON result output.

Floats are written with 17 significant digits so output round-trips
exactly and repeated runs with one seed produce byte-identical files.
All writes go through a temp-file-then-rename so readers never observe a
partial file. The trajectory CSV is known only here: ``trajectory_csv``
writes it and ``load_trajectory`` reads it back bit for bit.

``trajectory_csv`` formats a bounded chunk of states per ``%`` operation,
not a state at a time. ``load_trajectory`` parses the rows under the
header line with one ``np.loadtxt`` call, in C; only a file it rejects is
read again, to name the rejected row's file line. Rows that stand in
written order, as every written file's do, are read without sorting; any
other order is sorted first, to the same result.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .net_graph import BalanceResult
from .state import Trajectory, _array, _real

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
    """Write ``text`` to a new temp file beside ``path`` (mode 0666 less the
    umask, as a plain write gives), ``_WRITE_SLICE`` characters at a time so
    no encoded copy holds the whole text, then rename it over ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            for lo in range(0, len(text), _WRITE_SLICE):
                fh.write(text[lo : lo + _WRITE_SLICE])
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
    try:
        if path.suffix.lower() == ".json":
            data = json.loads(text)
        else:
            data = [
                [float(cell) for cell in line.split(",")]
                for line in text.strip().splitlines()
                if line.strip()
            ]
        return _array("matrix", data, square=True)
    except ValueError as exc:
        raise ValueError(f"{path}: expected a square matrix of reals: {exc}") from None


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
        try:
            entries = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}: expected a JSON schedule: {exc}") from None
    else:
        entries = source
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"a schedule is a list of {{until, matrix}} entries, got {entries!r}")
    schedule = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and "until" in entry and "matrix" in entry):
            raise ValueError(f"schedule entry {i} needs 'until' and 'matrix', got {entry!r}")
        try:
            matrix = _array("matrix", resolve_matrix(entry["matrix"]))
            schedule.append((_real("until", entry["until"]), matrix))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"schedule entry {i}: {exc}") from None
    return schedule


_TRAJECTORY_HEADER = "step,time,agent,dim,value"

_ROW_DTYPE = np.dtype({"names": _TRAJECTORY_HEADER.split(","),
                       "formats": [np.int64, np.float64, np.int64, np.int64, np.float64]})

# Cells formatted per ``%`` operation when writing: bounds the template and
# the argument tuple.
_WRITE_CHUNK = 1 << 16

# Characters handed to the file per write: bounds the encoded copy.
_WRITE_SLICE = 1 << 20


def trajectory_csv(traj: Trajectory) -> str:
    """Long-format CSV: step,time,agent,dim,value, one row per (step, agent,
    dim) in that order.

    Each state has a ``%``-template holding its (agent, dim) cells, prefixed
    with the state's step and time; the templates of a chunk of states
    (``_WRITE_CHUNK`` cells) are joined and formatted by one operation.
    ``"%.17g" % v`` is the routine behind ``fmt_float``, so the bytes are
    those of formatting each value on its own.
    """
    arr = traj.array
    steps, n, m = arr.shape
    templates = [""] + [f"{agent},{dim},%.17g\n" for agent in range(n) for dim in range(m)]
    cells = arr.reshape(-1)
    stamps = traj.stamps.tolist()
    per_chunk = max(1, _WRITE_CHUNK // max(1, n * m))  # states
    parts = [_TRAJECTORY_HEADER + "\n"]
    for lo in range(0, steps, per_chunk):
        hi = min(lo + per_chunk, steps)
        template = "".join(
            [f"{k},{t:.17g},".join(templates) for k, t in zip(range(lo, hi), stamps[lo:hi])]
        )
        parts.append(template % tuple(cells[lo * n * m : hi * n * m].tolist()))
    return "".join(parts)


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV as written by :func:`trajectory_csv`.

    The first line must be the header itself. Rows may come in any order
    (rows in written order are read without sorting); CRLF line ends and
    empty lines are passed over. numpy's tokenizer parses the cells, so a
    written trajectory reads back bit for bit. Raises ``OSError`` when the
    file cannot be read, and ``ValueError`` naming the problem, and its file
    line, when it holds no complete trajectory: an empty file, a bad header,
    a row without five fields, a cell that is not an ASCII number (an int
    column takes integers only), an agent or dim id outside the rows' range,
    a missing or duplicate (step, agent, dim) row, or rows of one step that
    disagree on its time.
    """
    columns = _read_columns(path)
    total = len(columns[0])
    for c in (2, 3):
        outside = (columns[c] < 0) | (columns[c] >= total)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"{path}: line {_data_line(path, i)[0]}: {_ROW_DTYPE.names[c]} {columns[c][i]} "
                f"is out of range for a file of {total} rows"
            )

    n, m = int(columns[2].max()) + 1, int(columns[3].max()) + 1
    if _in_grid_order(columns[0], columns[2], columns[3], n, m):
        # the sort would keep this order; copying the values frees loadtxt's rows
        step, stamp, value = columns[0], columns[1], np.ascontiguousarray(columns[4])
    else:
        order = np.lexsort((columns[3], columns[2], columns[0]))
        step, stamp, agent, dim, value = (col[order] for col in columns)
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


def _read_columns(path) -> list:
    """The five columns, parsed by one ``np.loadtxt`` call on the handle
    whose first line was checked as the header."""
    with Path(path).open() as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty trajectory file")
        header = header.removesuffix("\n")
        if header != _TRAJECTORY_HEADER:
            raise ValueError(
                f"{path}: unexpected trajectory header {header!r}, expected {_TRAJECTORY_HEADER!r}"
            )
        # loadtxt warns on a file without rows, and numpy 2.0 warns where it
        # truncates an int cell such as '2.7': a warning is an error here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
            except Warning as warning:
                if "input contained no data" in str(warning):
                    raise ValueError(f"{path}: the trajectory has a header but no rows") from None
                raise ValueError(f"{path}: {warning}") from None
            except ValueError as exc:
                raise ValueError(f"{path}: {_row_error(path, str(exc))}") from None
    return [rows[field] for field in _ROW_DTYPE.names]


def _row_error(path, message: str) -> str:
    """loadtxt's message for a bad row, restated with the row's file line;
    any other message as it is."""
    if bad := re.search(r"at row (\d+), column (\d+)\.$", message):
        line, text = _data_line(path, int(bad[1]))
        c = int(bad[2]) - 1
        kind = "int" if _ROW_DTYPE[c] == np.int64 else "float"
        return f"line {line}: {_ROW_DTYPE.names[c]} {text.split(',')[c]!r} does not parse as {kind}"
    if short := re.search(r"were found at row (\d+);", message):
        line, _ = _data_line(path, int(short[1]) - 1)
        return f"line {line} does not hold the five fields {_TRAJECTORY_HEADER}"
    return message


def _data_line(path, row: int) -> tuple:
    """The file line number and text of data row ``row`` (from 0), counted
    as loadtxt counts rows: after the header, passing over empty lines.
    Only error messages need it, so only they read the file again."""
    with Path(path).open() as fh:
        rows = ((line, text.removesuffix("\n")) for line, text in enumerate(fh, 1) if text != "\n")
        return next(islice(rows, row + 1, None))  # row + 1: past the header


def _in_grid_order(step, agent, dim, n: int, m: int) -> bool:
    """Whether the rows stand as sorting would leave a complete grid: whole
    steps of n*m rows in (agent, dim) order, with strictly increasing steps.
    Each check compares a (rows / n*m, n*m) reshape, so its temporary is bool."""
    per_step = n * m
    if len(step) % per_step:
        return False
    cells = np.arange(per_step)
    steps = step.reshape(-1, per_step)
    return bool(
        (agent.reshape(-1, per_step) == cells // m).all()
        and (dim.reshape(-1, per_step) == cells % m).all()
        and (steps == steps[:, :1]).all()
        and (steps[1:, 0] > steps[:-1, 0]).all()
    )


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
    """Gossip event records: step,i,j,interacted(0/1), one row per step.

    Formatted from the event columns, ``_WRITE_CHUNK`` cells per ``%``
    operation, as ``trajectory_csv`` formats its states.
    """
    events = traj.events
    if events is None:
        raise ValueError("trajectory carries no event records")
    parts = ["step,i,j,interacted\n"]
    per_chunk = max(1, _WRITE_CHUNK // 4)  # rows
    for lo in range(0, len(events), per_chunk):
        hi = min(lo + per_chunk, len(events))
        rows = np.column_stack((np.arange(lo, hi), events.agent[lo:hi], events.partner[lo:hi],
                                events.interacted[lo:hi]))
        parts.append("%d,%d,%d,%d\n" * (hi - lo) % tuple(rows.ravel().tolist()))
    return "".join(parts)


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
