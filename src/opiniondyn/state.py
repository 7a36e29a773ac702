"""Shared state containers: agent opinion vectors and recorded trajectories."""

from __future__ import annotations

import functools
import numbers
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimulationError",
    "NonConvergentError",
    "UnstableError",
    "IntegrationError",
    "MaxStepsError",
    "OpinionState",
    "Trajectory",
]


class SimulationError(Exception):
    """Base class for simulation failures."""


class NonConvergentError(SimulationError):
    """An iterative computation did not converge within its iteration budget."""


class UnstableError(SimulationError):
    """A stability precondition (spectral radius strictly below 1) failed."""


class IntegrationError(SimulationError):
    """The ODE integrator produced a non-finite state."""

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step = step
        self.time = time


class MaxStepsError(SimulationError):
    """A fixed-point iteration hit its step budget; carries the partial run."""

    def __init__(self, message: str, trajectory: Trajectory | None = None):
        super().__init__(message)
        self.trajectory = trajectory


def _count(name: str, value, least) -> int:
    """A count or seed as an int: an int, a numpy integer or a whole float
    (3.0), not a bool, and at least ``least``; ValueError naming it otherwise."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


@functools.lru_cache(maxsize=None)
def _inside(within: str):
    """Membership in an interval written as "(0, 1]" (a bracket is a closed
    end), of a float or elementwise of an array; NaN lies in none."""
    lo, hi = (float(end) for end in within[1:-1].split(", "))
    lo_in, hi_in = within[0] == "[", within[-1] == "]"
    return lambda v: ((lo <= v) if lo_in else (lo < v)) & ((v <= hi) if hi_in else (v < hi))


def _real(name: str, value, within=None) -> float:
    """A real number as a float: an int, a float or a numpy number, not a bool,
    a str, None or an int beyond the float range, and inside ``within``, an
    interval such as "(0, 1]", if given; ValueError naming it otherwise."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        real = float(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if within is not None and not _inside(within)(real):
        raise ValueError(f"{name} must lie in {within}, got {real}")
    return real


def _instance(name: str, value, cls: type):
    """value as it is if it is a ``cls``; ValueError naming it otherwise."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {reprlib.repr(value)}")
    return value


def _iterable(name: str, value):
    """iter(value); ValueError naming it for a value that is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {reprlib.repr(value)}") from None


def _agents(name: str, count, n: int) -> None:
    """ValueError unless ``count`` per-agent entries, None for one shared by
    all, fit a run of n agents: the one agent-count rule."""
    if count is not None and count != n:
        raise ValueError(f"{name} is for {count} agents, not {n}")


_NORMS = ("euclidean", "max", "sum")
# Rows per block of the pairwise distances: temporaries of _BLOCK x n floats.
_BLOCK = 32
# Largest |difference| whose square neither overflows nor underflows.
_SQUARE_SAFE = 1e150
# Distinct floats of magnitude 1e-130 or more are 1e-146 or more apart, so
# only a nonzero opinion below it has a difference below 1 / _SQUARE_SAFE.
_SPACED = 1e-130


def _fold(columns, norm: str) -> np.ndarray:
    """The norm of differences given one fresh array per column, in column
    order: squares added, then np.sqrt for "euclidean" but not "squared";
    np.maximum of abs for "max"; abs added for "sum"."""
    each = np.abs if norm in ("max", "sum") else np.square
    join = np.maximum if norm == "max" else np.add
    total = None
    for d in columns:
        each(d, out=d)
        total = d if total is None else join(total, d, out=total)
    return np.sqrt(total, out=total) if norm == "euclidean" else total


def _distance_blocks(values: np.ndarray, norm: str = "euclidean"):
    """The one kernel of every pairwise distance: yields (rows, block) for
    each ``_BLOCK`` rows of an (n, m) array, block the (rows, n) distances
    of those rows to every row under the "euclidean", "max" or "sum" norm,
    or the squared Euclidean distances for "squared".

    ``_fold`` goes over the m columns in order: the bits of numpy's norm
    for m <= 7 (numpy's pairwise sum reorders from m = 8 on). A Euclidean
    distance whose largest |difference| s is finite and nonzero but outside
    [1/_SQUARE_SAFE, _SQUARE_SAFE], where its squares overflow or underflow,
    is s * ||diff / s||, where the spread or the smallest nonzero magnitude
    of the values shows that one can. An overflow is an infinity, without a
    warning.
    """
    m = values.shape[1]
    with np.errstate(over="ignore"):
        rescale = norm == "euclidean" and (np.ptp(values, axis=0).max() > _SQUARE_SAFE
                                           or np.any((values != 0) & (np.abs(values) < _SPACED)))
    for start in range(0, values.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        with np.errstate(over="ignore"):
            block = _fold((values[rows, k, None] - values[:, k] for k in range(m)), norm)
            if rescale:
                scale = _fold((values[rows, k, None] - values[:, k] for k in range(m)), "max")
                i, j = np.nonzero((scale > 0) & (scale < 1 / _SQUARE_SAFE)
                                  | (scale > _SQUARE_SAFE) & (scale < np.inf))
                diff, s = values[i + start] - values[j], scale[i, j]
                block[i, j] = s * _fold((diff[:, k] / s for k in range(m)), "euclidean")
        yield rows, block


def _distances(values: np.ndarray, norm: str = "euclidean") -> np.ndarray:
    """The (n, n) distances of ``_distance_blocks``."""
    return np.concatenate([block for _, block in _distance_blocks(values, norm)])


def _stamps(steps: int, thin: int) -> list:
    """The kept states of a run of ``steps`` steps thinned to every thin-th:
    state 0, every thin-th state and the last."""
    stamps = list(range(0, steps + 1, thin))
    if steps % thin:
        stamps.append(steps)
    return stamps


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy in C order (float unless ``dtype`` says otherwise), as
    ndarray.copy makes it (row sums of another layout can round differently):
    how every frozen type stores an array, so later writes cannot reach it."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


_FLOAT = np.dtype(float)


def _array(name: str, values, square=False, finite=False) -> np.ndarray:
    """values as a float array: an int or float dtype cast as np.asarray(values,
    dtype=float) casts it (a float64 ndarray as it is), an object array read
    element by element by ``_real``. ValueError naming it for any other dtype
    (str, bool, complex), a ragged list, a non-square matrix if ``square`` is
    set or a NaN or infinite entry if ``finite`` is."""
    arr = values
    if not (type(arr) is np.ndarray and arr.dtype is _FLOAT):
        try:
            arr = np.asarray(values)
            if arr.dtype.kind == "O":
                arr = np.array([_real(name, v) for v in arr.flat]).reshape(arr.shape)
            if arr.dtype.kind not in "fiu":
                raise TypeError
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be an array of real numbers, "
                             f"got {reprlib.repr(values)}") from None
        arr = arr.astype(float, copy=False)
    if square and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _reals(name: str, values, within=None) -> np.ndarray:
    """values as a nonempty float vector: a list or tuple element by element
    by ``_real``, anything else by ``_array``, each inside ``within`` as
    ``_real`` rules it; ValueError naming it otherwise."""
    vector = (np.array([v if type(v) is float else _real(name, v) for v in values], dtype=float)
              if isinstance(values, (list, tuple)) else _array(name, values))
    if vector.ndim != 1 or not vector.size:
        raise ValueError(f"{name} must be a nonempty list of real numbers, "
                         f"got {reprlib.repr(values)}")
    if within is not None and not _inside(within)(vector).all():
        _real(name, float(vector[~_inside(within)(vector)][0]), within)
    return vector


def _bound(name: str, value, within=None):
    """One bound shared by all agents (``_real``) or one per agent (``_reals``)."""
    if isinstance(value, (list, tuple, range)) or isinstance(value, np.ndarray) and value.ndim:
        return _reals(name, value, within)
    return _real(name, value, within)


def as_state_array(values, name: str = "opinion values") -> np.ndarray:
    """Coerce input to an (n, m) float array; 1-D input becomes (n, 1)."""
    arr = _array(name, values, finite=True)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"need at least one agent and one dimension, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class OpinionState:
    """Opinions of n agents, each a point in R^m (m=1 for scalar models)."""

    values: np.ndarray  # shape (n, m), treated as immutable

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(as_state_array(self.values)))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def flat(self) -> np.ndarray:
        """The (n,) view for scalar opinions; requires m == 1."""
        if self.m != 1:
            raise ValueError(f"flat view requires scalar opinions, m={self.m}")
        return self.values[:, 0]

    def diameter(self) -> float:
        """Largest pairwise Euclidean distance, the largest ``_distance_blocks`` entry."""
        return max(float(block.max()) for _, block in _distance_blocks(self.values))


# records converted to Python objects at a time when iterating events
_ITER_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class Events(Sequence):
    """The per-step records of a gossip run, held as three read-only columns:
    the active agent, its partner and whether the step interacted.

    As a sequence, record k is the tuple ``(agent, partner, interacted)`` of
    Python scalars (int, int, bool); it equals a list or tuple of such
    tuples with the same records. ``np.asarray(events)`` is the (S, 3) int64
    array of those rows, the flag as 0 or 1.
    """

    agent: np.ndarray
    partner: np.ndarray
    interacted: np.ndarray

    def __post_init__(self):
        for name, dtype in (("agent", np.int64), ("partner", np.int64), ("interacted", bool)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    def __len__(self) -> int:
        return len(self.agent)

    def __getitem__(self, k: int) -> tuple:
        return self.agent.item(k), self.partner.item(k), self.interacted.item(k)

    def __iter__(self):
        for lo in range(0, len(self), _ITER_CHUNK):
            hi = lo + _ITER_CHUNK
            yield from zip(self.agent[lo:hi].tolist(), self.partner[lo:hi].tolist(),
                           self.interacted[lo:hi].tolist())

    def __eq__(self, other):
        if isinstance(other, Events):
            return (np.array_equal(self.agent, other.agent)
                    and np.array_equal(self.partner, other.partner)
                    and np.array_equal(self.interacted, other.interacted))
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("events are stored as columns; their array is always a copy")
        rows = np.column_stack((self.agent, self.partner, self.interacted))
        return rows if dtype is None else rows.astype(dtype, copy=False)


@dataclass
class Trajectory:
    """Time-ordered sequence of opinion states with optional per-step events.

    States are held stacked in one (S, n, m) array to keep long runs cheap;
    ``state(k)`` materializes a single :class:`OpinionState`. ``events``,
    kept by the gossip runs, holds one record per simulated step, thinned
    or not: ``events[k]`` is step k + 1, so ``len(events) == stamps[-1]``.
    ``terminated_at`` is the first step index whose state is a fixed point of
    the generating map (within the run's stop tolerance), or None.
    """

    array: np.ndarray  # (S, n, m)
    stamps: np.ndarray  # (S,)
    terminated_at: int | None = None
    events: Events | None = None

    def __post_init__(self):
        self.array = _array("trajectory array", self.array)
        self.stamps = _array("stamps", self.stamps)
        if self.array.ndim != 3:
            raise ValueError(f"trajectory array must be (S, n, m), got {self.array.shape}")
        if self.stamps.shape != self.array.shape[:1]:
            raise ValueError("one stamp per state required")
        if len(self.stamps) > 1 and not np.all(np.diff(self.stamps) > 0):
            raise ValueError("stamps must be strictly increasing")

    def __len__(self) -> int:
        return self.array.shape[0]

    @property
    def n(self) -> int:
        return self.array.shape[1]

    @property
    def m(self) -> int:
        return self.array.shape[2]

    def state(self, k: int) -> OpinionState:
        return OpinionState(self.array[k])

    @property
    def initial(self) -> OpinionState:
        return self.state(0)

    @property
    def final(self) -> OpinionState:
        return self.state(len(self) - 1)
