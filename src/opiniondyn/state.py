"""Shared state containers: agent opinion vectors and recorded trajectories."""

from __future__ import annotations

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

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class MaxStepsError(SimulationError):
    """A fixed-point iteration hit its step budget; carries the partial run."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


def _pairwise_sq(values: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of an (n, m) array."""
    diff = values[:, None, :] - values[None, :, :]
    return (diff**2).sum(-1)


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy in C order (float unless ``dtype`` says otherwise), as
    ndarray.copy makes it (row sums of another layout can round differently):
    how every frozen type stores an array, so later writes cannot reach it."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _unit_weights(lam, n: int, what: str) -> np.ndarray:
    """lam as a float vector of n per-agent weights in [0, 1]; ``what``
    names the weights in the error."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n,):
        raise ValueError("lam must be a length-n vector")
    if not np.all((lam >= 0) & (lam <= 1)):
        raise ValueError(f"{what} must lie in [0, 1]")
    return lam


def as_state_array(values) -> np.ndarray:
    """Coerce input to an (n, m) float array; 1-D input becomes (n, 1)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"opinion values must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"need at least one agent and one dimension, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("opinion values must be finite")
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
        """Largest pairwise Euclidean distance between agents."""
        return float(np.sqrt(_pairwise_sq(self.values)).max())


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
        self.array = np.asarray(self.array, dtype=float)
        self.stamps = np.asarray(self.stamps, dtype=float)
        if self.array.ndim != 3:
            raise ValueError(f"trajectory array must be (S, n, m), got {self.array.shape}")
        if len(self.stamps) != self.array.shape[0]:
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
