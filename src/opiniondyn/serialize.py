"""File formats: matrix and schedule input, CSV/JSON result output.

Floats are written with 17 significant digits so output round-trips
exactly and repeated runs with one seed produce byte-identical files.
All writes go through a temp-file-then-rename so readers never observe a
partial file. The trajectory CSV is known only here: ``trajectory_csv``
writes it and ``load_trajectory`` reads it back bit for bit.

``trajectory_csv`` and ``events_csv`` write a bounded chunk of rows at a
time with numpy: each row is a line of a byte matrix, each field in fixed
columns, and the chunk's text is that matrix less the NULs of the columns
its rows leave empty. A float is written as ``"%.17g" % v`` writes it, byte
for byte. Its 17 digits D = round(a * 10**(16 - k)) come from one exact
double-double product (Dekker's two-product) with an exact table of powers
of ten; the decimal exponent k comes from ``np.log10`` and is checked
against the smallest doubles >= 10**k and >= 10**(k + 1), so the last bit
of the logarithm cannot matter. The product is off by less than 2**-45,
so its rounding is decided unless its fraction lies within 2**-30 of 1/2,
where the exact ties are. Those values, a D of other than 17 digits, inf
and nan are formatted by ``"%.17g" % v`` itself.

``load_trajectory`` parses the rows under the header line with one
``np.loadtxt`` call, in C; only a file it rejects is read again, to name
the rejected row's file line. Rows that stand in
written order, as every written file's do, are read without sorting; any
other order is sorted first, to the same result.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import secrets
import warnings
from itertools import islice
from pathlib import Path
from typing import NamedTuple

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
    "json_text",
    "balance_json",
    "two_r_csv",
    "two_r_json",
    "atomic_write_text",
]


def fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def _spelled(value):
    """value with each infinite float as the str ``fmt_float`` writes for it."""
    if isinstance(value, dict):
        return {key: _spelled(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spelled(v) for v in value]
    return fmt_float(value) if isinstance(value, float) and math.isinf(value) else value


def json_text(payload) -> str:
    """The text of every JSON artefact, indented by 2 with a final newline. JSON
    has no infinity: one is the string "inf" or "-inf", as in the CSV files.
    ValueError for a NaN."""
    return json.dumps(_spelled(payload), indent=2, allow_nan=False) + "\n"


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

# Cells formatted per chunk when writing: bounds each chunk's byte matrix
# and the kernel's temporaries.
_WRITE_CHUNK = 1 << 14

# Chunk texts joined into each piece of a written text before the pieces
# are joined: pieces of about 1 << 16 cells keep a writer's peak memory
# steady from run to run (see ``_joined``).
_PIECE_CHUNKS = 4

# Characters handed to the file per write: bounds the encoded copy.
_WRITE_SLICE = 1 << 20


def trajectory_csv(traj: Trajectory) -> str:
    """Long-format CSV: step,time,agent,dim,value, one row per (step, agent,
    dim) in that order.

    ``_WRITE_CHUNK`` cells at a time are one byte matrix, a row per cell:
    the state's ``step,time,``, written once per state, the cell's
    ``agent,dim,``, written once per trajectory, the value and a newline.
    Each field has fixed columns, and a row holds NUL in the columns its
    text leaves empty; the chunk's text is the matrix less its NULs.

    Floats are written by ``_float_text``, whose text is ``"%.17g" % v``,
    the routine behind ``fmt_float``, so the bytes are those of formatting
    each value on its own. Its digits are exact: the double-double product
    behind them is off by less than 2**-45, every value whose rounding that
    error could change (a fraction within 2**-30 of 1/2) or whose exponent
    check or digit count fails is formatted by ``"%.17g" % v`` itself, and
    the exponent is checked against exact powers of ten (see ``_decimal``).
    """
    arr = traj.array
    _, n, m = arr.shape
    per_state = n * m
    cells = arr.reshape(-1)
    ids = np.arange(per_state)
    cell_text = _text_rows([ids // m, ids % m], ord(","))

    def chunks():
        yield _TRAJECTORY_HEADER + "\n"
        for lo in range(0, cells.size, _WRITE_CHUNK):
            hi = min(lo + _WRITE_CHUNK, cells.size)
            first, last = lo // per_state, (hi - 1) // per_state + 1
            state_text = _text_rows([np.arange(first, last), traj.stamps[first:last]], ord(","))
            values = _float_text(cells[lo:hi])
            a, b = state_text.shape[1], cell_text.shape[1]
            out = np.empty((hi - lo, a + b + values.shape[1] + 1), np.uint8)
            rows = np.arange(lo, hi)
            _rows(out[:, :a])[:] = _rows(state_text)[rows // per_state - first]
            _rows(out[:, a : a + b])[:] = _rows(cell_text)[rows % per_state]
            out[:, a + b : -1] = values
            out[:, -1] = ord("\n")
            yield _text(out)

    return _joined(chunks())


# The text kernel: rows of int and float cells as byte matrices, a row per
# entry, each field in fixed columns and NUL in the columns a row leaves
# empty.

# Decimal exponents of the positive finite doubles, 5e-324 to 1.8e308.
_K_MIN, _K_MAX = -324, 308

# Columns of one float's text: its sign, the "0" before the point of a
# fixed value below 1, 17 integer digits, the point, the zeros after the
# point of a fixed value below 0.1, 17 fraction digits, "e", and the
# exponent's sign and three digits. Each value's layout shows some of them:
# the byte here, or its digit or exponent text where this holds 0xFF.
_FLOAT_TEMPLATE = b"-0" + b"\xff" * 17 + b".000" + b"\xff" * 17 + b"e" + b"\xff" * 4
_INT, _FRAC, _EXP = 2, 23, 41  # the first integer and fraction digit, the exponent's sign

# Layouts: fixed notation for the exponents k = -4..16, then scientific
# with two and with three exponent digits.
_LAYOUTS = 23

# The kernel's undecided margin: a scaled value whose fraction lies within
# this of 1/2 is formatted by "%.17g" itself.
_TIE_MARGIN = 2.0**-30


class _Tables(NamedTuple):
    ceil: np.ndarray  # for j from _K_MIN: the smallest double >= 10**j
    hi: np.ndarray  # for k from _K_MIN: 10**(16 - k) = (hi + lo) * 2**shift
    hi_hi: np.ndarray  # hi split in two halves, for Dekker's product
    hi_lo: np.ndarray
    lo: np.ndarray
    shift: np.ndarray
    layout: np.ndarray  # for k from _K_MIN: its layout
    exponent: np.ndarray  # for k from _K_MIN: "+XXX" as 4 bytes
    quads: np.ndarray  # the strings "0000" to "9999" as uint32
    shown_by: np.ndarray  # per place of a 4-digit group of D and group: digits D shows
    templates: np.ndarray  # per (layout, shown, negative): its template


def _ratio(j: int) -> tuple:
    """10**j as (numerator, denominator) ints."""
    return (10**j, 1) if j >= 0 else (1, 10**-j)


@functools.cache
def _decimal_tables() -> _Tables:
    """The float kernel's tables, built on the first write (in about 5 ms),
    not at import; the powers of ten exactly, in integer arithmetic (an int
    quotient is correctly rounded)."""
    ceil = []
    for j in range(_K_MIN, _K_MAX + 1):
        num, den = _ratio(j)
        x = num / den
        p, q = x.as_integer_ratio()
        ceil.append(x if p * den >= num * q else math.nextafter(x, math.inf))
    ceil.append(math.inf)  # 10**309
    hi, lo, shift = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = _ratio(16 - k)
        s = num.bit_length() - den.bit_length()
        num, den = num << max(-s, 0), den << max(s, 0)  # 10**(16 - k) / 2**s, in (1/2, 2)
        if num < den:
            num, s = 2 * num, s - 1
        hi.append(num / den)
        p, q = hi[-1].as_integer_ratio()
        lo.append((num * q - p * den) / (den * q))
        shift.append(s)
    hi = np.array(hi)
    split = hi * 134217729.0  # 2**27 + 1
    hi_hi = split - (split - hi)
    ks = np.arange(_K_MIN, _K_MAX + 1)
    q = np.arange(10_000)
    kept = 4 - (q % 10 == 0) - (q % 100 == 0) - (q % 1000 == 0)  # digits up to the last nonzero
    # what each (layout, shown, negative) shows of _FLOAT_TEMPLATE, in that order
    layout, shown, negative = (key.ravel() for key in np.meshgrid(
        np.arange(_LAYOUTS), np.arange(18), [False, True], indexing="ij"))
    fixed, k, j = layout < 21, layout[:, None] - 4, np.arange(17)
    whole = np.where(fixed, np.maximum(layout - 4, -1), 0)[:, None]  # the last integer digit
    shows = np.column_stack([
        negative, fixed & (layout < 4), j <= whole, shown > whole[:, 0] + 1,
        fixed[:, None] & (k <= -2 - np.arange(3)), (whole < j) & (j < shown[:, None]),
        ~fixed, ~fixed, layout == 22, ~fixed, ~fixed])
    return _Tables(
        np.array(ceil), hi, hi_hi, hi - hi_hi, np.array(lo), np.array(shift),
        np.where((ks >= -4) & (ks < 17), ks + 4, 21 + (abs(ks) >= 100)),
        np.frombuffer(b"".join(b"%+04d" % k for k in range(_K_MIN, _K_MAX + 1)),
                      np.uint8).reshape(-1, 4),
        (q[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0],
        np.where(q > 0, 4 * np.arange(5)[:, None] - 3 + kept, 0).astype(np.int8),
        np.where(shows, np.frombuffer(_FLOAT_TEMPLATE, np.uint8), 0).astype(np.uint8))


def _decimal(values) -> tuple:
    """(k, D, fallback): the decimal exponent k and the 17 digits D that
    ``"%.17g"`` writes for each float (0 and 0 for a zero), and whether the
    value must be written by ``"%.17g"`` itself.

    A positive finite a = m * 2**e (``np.frexp``) with k = floor(log10 a)
    has D = round(a * 10**(16 - k)), in [10**16, 10**17). k comes from
    ``np.log10`` and is then corrected against the smallest doubles >= 10**k
    and >= 10**(k + 1), so it is exact whatever the last bit of the
    logarithm. The product is m times the table's 10**(16 - k) =
    (hi + lo) * 2**shift: m * hi exactly, as a double and its error by
    Dekker's two-product, plus m * lo rounded once. The double-double is
    within 2**-106 of the power, so the scaled product (below 2**57) is off
    by less than 2**-45 in all, and the rounding of its fraction is decided
    unless that fraction lies within 2**-30 (``_TIE_MARGIN``) of 1/2; true
    ties, such as 1000000000000000.25, land there. Those values, a D outside
    [10**16, 10**17), inf and nan fall back.
    """
    t = _decimal_tables()
    a = np.abs(values)
    zero = a == 0
    regular = np.isfinite(a) & ~zero
    a[~regular] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    k -= a < t.ceil[k - _K_MIN]
    k += a >= t.ceil[k + 1 - _K_MIN]
    i = k - _K_MIN
    m, e = np.frexp(a)
    p = m * t.hi[i]
    split = m * 134217729.0
    m_hi = split - (split - m)
    m_lo = m - m_hi
    f_hi, f_lo = t.hi_hi[i], t.hi_lo[i]
    rest = ((m_hi * f_hi - p) + m_hi * f_lo + m_lo * f_hi) + m_lo * f_lo + m * t.lo[i]
    e += t.shift[i]
    rest = np.ldexp(rest, e)
    below = np.floor(rest)
    frac = rest - below
    digits = np.ldexp(p, e).astype(np.int64) + below.astype(np.int64) + (frac > 0.5)
    fallback = ~(regular | zero) | regular & (
        (np.abs(frac - 0.5) < _TIE_MARGIN) | (digits < 10**16) | (digits >= 10**17))
    digits[zero] = 0
    return k, digits, fallback


def _digit_text(digits) -> tuple:
    """(text, shown): each D of up to 17 digits as 17 ASCII digits, an
    (N, 17) uint8 matrix made of 4-digit groups, and how many of them %g
    shows: all but the trailing zeros, and one for D = 0."""
    t = _decimal_tables()
    top, bottom = (part.astype(np.int32) for part in np.divmod(digits, 10**8))
    groups = [top // 10**8, top // 10**4 % 10**4, top % 10**4, bottom // 10**4, bottom % 10**4]
    text = np.empty((len(digits), 5), np.uint32)  # "000" and the 17 digits
    shown = np.ones(len(digits), np.int8)
    for place, group in enumerate(groups):
        text[:, place] = t.quads[group]
        np.maximum(shown, t.shown_by[place][group], out=shown)
    return text.view(np.uint8)[:, 3:], shown


def _float_text(values) -> np.ndarray:
    """``"%.17g" % v`` of each float of ``values``, a row each, in the
    columns of ``_FLOAT_TEMPLATE`` that some row shows, NUL in those a row
    leaves empty.

    ``_decimal`` gives each value's exponent k and digits, or sends it to
    the fallback: ``"%.17g" % v`` itself, so the text is Python's by
    construction. The %g layout follows k: fixed notation for -4 <= k < 17,
    with trailing zeros and a bare point dropped, else d.ddde+XX. Each row
    is the template of its layout, digit count and sign, with the digits
    and-ed into its integer and its fraction columns and the exponent's
    text into its own.
    """
    t = _decimal_tables()
    k, digits, fallback = _decimal(values)
    text, shown = _digit_text(digits)
    i = k - _K_MIN
    layout = t.layout[i]
    code = (layout * 18 + shown) * 2 + np.signbit(values)  # the templates' order
    # the columns some row shows, and the fraction digits between them
    used = t.templates[np.flatnonzero(np.bincount(code, minlength=len(t.templates)))].any(axis=0)
    fracs = np.flatnonzero(used[_FRAC : _FRAC + 17])
    used[_FRAC + fracs.min(initial=17) : _FRAC + fracs.max(initial=-1) + 1] = True
    columns = np.flatnonzero(used)
    out = np.ascontiguousarray(t.templates[:, columns])
    out = _rows(out)[code].view(np.uint8).reshape(len(values), len(columns))
    for first in (_INT, _FRAC):  # each area's columns in use are contiguous
        at, end = np.searchsorted(columns, (first, first + 17))
        if end > at:
            digit = columns[at] - first
            out[:, at:end] &= text[:, digit : digit + end - at]
    sci = np.flatnonzero(layout >= 21)
    at, end = np.searchsorted(columns, (_EXP, _EXP + 4))
    out[sci, at:end] &= t.exponent[i[sci]][:, columns[at:end] - _EXP]
    exact = {row: ("%.17g" % float(values[row])).encode() for row in np.flatnonzero(fallback)}
    width = max(map(len, exact.values()), default=0)
    if width > out.shape[1]:
        out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
    for row, spelled in exact.items():
        out[row] = np.frombuffer(spelled.ljust(out.shape[1], b"\0"), np.uint8)
    return out


def _int_text(values) -> np.ndarray:
    """``"%d" % v`` of each int of ``values``, a row each: the sign, if some
    value is negative, and the digits right-aligned, NUL in the columns a
    row leaves empty."""
    values = np.asarray(values, np.int64)
    negative = values < 0
    rest = values.astype(np.uint64)
    np.negative(rest, out=rest, where=negative)  # exact for the smallest int64 too
    digits = len(str(int(rest.max(initial=0))))
    out = np.empty((len(values), int(negative.any()) + digits), np.uint8)
    out[:, 0] = negative * ord("-")  # overwritten by the first digit without a sign
    for col in range(out.shape[1] - 1, out.shape[1] - 1 - digits, -1):
        digit = rest % 10 + ord("0")
        if col < out.shape[1] - 1:
            digit *= rest > 0  # a leading zero
        out[:, col] = digit
        rest //= 10
    return out


def _text_rows(columns: list, end: int) -> np.ndarray:
    """The rows "c0,c1,...,cL" and the byte ``end`` of equal-length int or
    float columns, as a byte matrix with a row per entry."""
    rows = len(columns[0])
    blocks = []
    for col in columns:
        blocks += [_float_text(col) if col.dtype.kind == "f" else _int_text(col),
                   np.full((rows, 1), ord(","), np.uint8)]
    blocks[-1][:] = end
    return np.concatenate(blocks, axis=1)


def _rows(matrix) -> np.ndarray:
    """The rows of a byte matrix whose rows are contiguous, as one void item
    each: a row is then copied as one item."""
    return matrix.view(np.dtype((np.void, matrix.shape[1])))[:, 0]


def _text(out) -> str:
    """The text of a byte matrix: its rows one after the other, less NULs."""
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _joined(texts) -> str:
    """The chunk texts ``texts`` as one str, joined ``_PIECE_CHUNKS`` at a
    time into pieces first. Joined at once, cli-artefacts' ``peak_rss_mb``
    swung from 76 to 94 MB between seeds, as the heap's free space happened
    to split; in pieces, it stayed within 2 MB."""
    texts = iter(texts)
    pieces = []
    while piece := list(islice(texts, _PIECE_CHUNKS)):
        pieces.append("".join(piece))
    return "".join(pieces)


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

    Written from the event columns by the kernel that writes
    ``trajectory_csv``, ``_WRITE_CHUNK`` cells (four a row) per byte matrix.
    """
    events = traj.events
    if events is None:
        raise ValueError("trajectory carries no event records")
    per_chunk = max(1, _WRITE_CHUNK // 4)  # rows

    def chunks():
        yield "step,i,j,interacted\n"
        for lo in range(0, len(events), per_chunk):
            hi = min(lo + per_chunk, len(events))
            yield _text(_text_rows([np.arange(lo, hi), events.agent[lo:hi],
                                    events.partner[lo:hi], events.interacted[lo:hi]], ord("\n")))

    return _joined(chunks())


def balance_json(result: BalanceResult) -> str:
    return json_text({
        "balanced": result.balanced,
        "camps": [list(c) for c in result.camps] if result.camps else None,
        "witness": list(result.witness.nodes) if result.witness else None,
        "witness_kind": result.witness.kind if result.witness else None,
    })


def two_r_csv(rows: list) -> str:
    lines = ["d,trials,mean_clusters,std,conjecture"]
    for row in rows:
        lines.append(
            f"{fmt_float(row.d)},{row.trials},{fmt_float(row.mean_clusters)},"
            f"{fmt_float(row.std_clusters)},{row.conjecture}"
        )
    return "\n".join(lines) + "\n"


def two_r_json(rows: list) -> str:
    return json_text([
        {
            "d": row.d,
            "trials": row.trials,
            "counts": list(row.counts),
            "mean_clusters": row.mean_clusters,
            "std": row.std_clusters,
            "conjecture": row.conjecture,
        }
        for row in rows
    ])
