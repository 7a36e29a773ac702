"""Randomized asynchronous pairwise-interaction models.

At every step a random agent or pair is activated and only the activated
opinions change: one-sided averaging toward a sampled neighbor, symmetric
pair averaging, prejudice-anchored updates on a sampled arc of the
Friedkin-Johnsen model (``GossipFJ`` runs the ``FJSpec`` whose fixed point
``fj_fixed_point`` computes), and the bounded-confidence pair dynamics
(``DeffuantWeisbuch``).

Randomness is fully reproducible: every run is driven by a Philox
counter-based generator keyed through numpy's SeedSequence with
(seed, stream), so Monte Carlo trials on distinct streams are independent
while identical (seed, stream, model, x0) give bit-identical runs. The
draws never look at the state, so every model is split into a block draw
and an update loop. The simulator consumes randomness in blocks of up to
2**20 steps: within a block it first draws all activation indices, then
all partner draws, in the order documented on each model, and then applies
the block step by step. Replaying a simulation's recorded events
reproduces its states.

The bounded-confidence pair dynamics is one rule: agent i moves by mu
times the gap when the gap is within its bound d_i, and in the symmetric
mode agent j moves back by the same amount when the gap is within d_j. The
bound is one d shared by all agents or one per agent. One float update loop
applies the rule, and the exact run (``dw_run_exact``) reads the same
bounds. It costs more per step as the run goes on; the symmetric mode, where
both agents move, then conserves the sum exactly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf

import numpy as np

from .linear_dynamics import FJSpec, check_stochastic
from .state import Events, OpinionState, Trajectory, _agents, _bound, _count, _frozen
from .state import _instance, _real, _reals, _stamps

__all__ = [
    "make_rng",
    "DegrootGossip",
    "SymmetricPairGossip",
    "GossipFJ",
    "DeffuantWeisbuch",
    "simulate_gossip",
    "dw_run_exact",
    "DWExactRun",
    "cesaro",
    "bernoulli_convolution",
]

_BLOCK = 1 << 20  # steps per draw call; part of the stream layout
_CHUNK = 1 << 14  # steps or states converted to Python lists at a time
_HEADROOM = 256  # bits the exact runs' shared scale grows by beyond the need


def make_rng(seed: int | tuple | np.random.Generator, *spawn_key: int) -> np.random.Generator:
    """Philox generator of SeedSequence(seed, spawn_key=spawn_key); a
    (seed, stream) tuple, or a bare seed (stream 0), has the spawn key
    (stream,). Seed and stream are counts >= 0 (``state._count``). A
    Generator is returned as it is."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, tuple):
        return make_rng(*seed)
    if not spawn_key:
        return make_rng(seed, 0)
    seed_seq = np.random.SeedSequence(_count("seed", seed, 0),
                                      spawn_key=[_count("stream", key, 0) for key in spawn_key])
    return np.random.Generator(np.random.Philox(seed_seq))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


class _RowPartners:
    """The activation shared by the two averaging gossips: a uniformly random
    agent i samples its partner j from row i of the zero-diagonal stochastic
    matrix p. Draw order: activation index, then one uniform variate mapped
    through the row's cumulative distribution."""

    def __post_init__(self):
        p = check_stochastic(self.p)
        if np.any(np.diag(p) != 0):
            raise ValueError("partner matrix must have a zero diagonal")
        object.__setattr__(self, "p", _frozen(p))

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def _draw(self, rng, n, count):
        return _draw_row_partners(self.p, rng, count)


@dataclass(frozen=True)
class DegrootGossip(_RowPartners):
    """One-sided gossip averaging.

    The active agent i moves toward its sampled partner j by its gain:
    x_i' = x_i + gains_i (x_j - x_i). Nobody else changes.
    """

    p: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        g = _reals("gains", self.gains, "(0, 1)")
        _agents("gains", len(g), self.n)
        object.__setattr__(self, "gains", _frozen(g))

    def _apply(self, x, draws, snap, keep, record):
        gains = self.gains.tolist()
        for i, j, s in zip(*draws, snap):
            xi = x[i]
            x[i] = xi + gains[i] * (x[j] - xi)
            if s:
                keep(x)


@dataclass(frozen=True)
class SymmetricPairGossip(_RowPartners):
    """Both sampled agents move to their midpoint:
    x_i' = x_j' = (x_i + x_j) / 2.
    """

    p: np.ndarray

    def _apply(self, x, draws, snap, keep, record):
        for i, j, s in zip(*draws, snap):
            mid = 0.5 * (x[i] + x[j])
            x[i] = mid
            x[j] = mid
            if s:
                keep(x)


@dataclass(frozen=True)
class GossipFJ:
    """Asynchronous prejudice-anchored averaging of the prejudice model
    ``spec`` (lam, W, u), whose fixed point ``fj_fixed_point`` computes.

    An arc (i, j) is sampled uniformly from the nonzero support of W, in
    ``np.nonzero`` order, and only agent i updates:
    x_i' = x_i + lam_i w_ij (x_j - x_i) + (1 - lam_i) w_ij (u_i - x_i).
    A positive self-weight contributes the self-arc (i, i), on which the
    agent re-anchors toward its prejudice. Dropping the self-arcs would bias
    the ergodic limit away from the anchored-averaging fixed point.
    Draw order: one uniform arc index per step.
    """

    spec: FJSpec
    # per arc: tail i, head j, lam_i w_ij and (1 - lam_i) w_ij
    _by_arc: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        spec = _instance("spec", self.spec, FJSpec)
        lam, w, u = spec.lam, spec.w, spec.u
        if u.shape[1] != 1:
            raise ValueError(f"gossip prejudices must be scalar, got u of shape {u.shape}")
        ai, aj = np.nonzero(w)
        w_arc, lam_arc = w[ai, aj], lam[ai]
        by_arc = (_frozen(ai, int), _frozen(aj, int), _frozen(lam_arc * w_arc),
                  _frozen((1.0 - lam_arc) * w_arc))
        object.__setattr__(self, "_by_arc", by_arc)

    @classmethod
    def from_fj(cls, lam, w, u) -> "GossipFJ":
        """The gossip of ``FJSpec(lam=lam, w=w, u=u)``."""
        return cls(FJSpec(lam=lam, w=w, u=u))

    @property
    def n(self) -> int:
        return self.spec.n

    def _draw(self, rng, n, count):
        arc = rng.integers(len(self._by_arc[0]), size=count)
        return tuple(a[arc] for a in self._by_arc)

    def _apply(self, x, draws, snap, keep, record):
        u = self.spec.u[:, 0].tolist()
        for i, j, g1, g2, s in zip(*draws, snap):
            xi = x[i]
            x[i] = xi + g1 * (x[j] - xi) + g2 * (u[i] - xi)
            if s:
                keep(x)


@dataclass(frozen=True)
class DeffuantWeisbuch:
    """Bounded-confidence pair dynamics.

    A random pair (i, j) meets. Agent i moves by mu times the gap
    x_j - x_i when the gap is within its bound d_i; in the symmetric mode
    agent j moves by the same amount the other way when the gap is within
    d_j. ``d`` is one bound shared by all agents or a positive per-agent
    vector. mode "symmetric": both agents of a uniformly random unordered
    pair may move. mode "asymmetric": only the first agent of a uniformly
    random ordered pair moves.
    Draw order per step: first index uniform on n, second uniform on the
    remaining n-1 (skipping the first).
    """

    d: float | np.ndarray
    mu: float
    mode: str = "symmetric"

    def __post_init__(self):
        d = _bound("d", self.d, "(0, inf]")
        mu = _real("mu", self.mu, "(0, 1)")
        if self.mode not in ("symmetric", "asymmetric"):
            raise ValueError("mode must be 'symmetric' or 'asymmetric'")
        object.__setattr__(self, "d", d if isinstance(d, float) else _frozen(d))
        object.__setattr__(self, "mu", mu)

    @property
    def n(self) -> int | None:
        """The agent count of per-agent bounds; None for a shared bound."""
        return None if isinstance(self.d, float) else len(self.d)

    def _bounds(self, n: int) -> list:
        """The bound of each of n agents as a list of floats."""
        return np.broadcast_to(self.d, n).tolist()

    def _draw(self, rng, n, count):
        return _draw_pairs(rng, n, count)

    def _apply(self, x, draws, snap, keep, record):
        bounds, symmetric = self._bounds(len(x)), self.mode == "symmetric"
        mu = self.mu
        moved = []
        flag = moved.append
        for i, j, s in zip(*draws, snap):
            xi = x[i]
            xj = x[j]
            gap = xj - xi
            agap = abs(gap)
            moved_i = agap <= bounds[i]
            moved_j = symmetric and agap <= bounds[j]
            shift = mu * gap
            if moved_i:
                x[i] = xi + shift
            if moved_j:
                x[j] = xj - shift
            if record:
                flag(moved_i or moved_j)
            if s:
                keep(x)
        return moved if record else None


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------
#
# Every model has a block draw and an update loop. ``_draw(rng, n, count)``
# makes the model's draws for ``count`` steps in the stream layout above and
# returns them as per-step arrays, the agent i and the partner j first.
# ``_apply(x, draws, snap, keep, record)`` runs the steps on the list of
# Python floats ``x`` in place, given the draws as lists; after each step
# whose ``snap`` flag is set it calls ``keep(x)``. It returns the per-step
# ``interacted`` flags as a list of bools, or None when every step interacts
# or ``record`` is false (the run keeps no events).

_MODELS = (_RowPartners, GossipFJ, DeffuantWeisbuch)


def _draw_row_partners(p: np.ndarray, rng, count: int):
    """Active agents uniform on n, then one uniform each, mapped to the
    partner bisect_right(cumulative row, uniform) clamped to n - 1. The
    bisection runs for the whole block at once, on the row's cumulative
    sums padded with +inf to a power-of-two width."""
    n = p.shape[0]
    act = rng.integers(n, size=count)
    unif = rng.random(count)
    width = 1 << n.bit_length()
    cum = np.full((n, width), np.inf)
    cum[:, :n] = np.cumsum(p, axis=1)
    cum = cum.ravel()
    last = act * width - 1  # flat index of the last entry found <= uniform
    step = width >> 1
    while step:
        probe = last + step
        np.copyto(last, probe, where=cum[probe] <= unif)
        step >>= 1
    partner = last - act * width + 1
    return act, np.minimum(partner, n - 1, out=partner)


def _draw_pairs(rng, n: int, count: int):
    """First agents uniform on n, then second agents uniform on the other
    n - 1 agents."""
    act = rng.integers(n, size=count)
    partner = rng.integers(n - 1, size=count)
    partner += partner >= act
    return act, partner


def _check_run(model, x0: OpinionState, steps, thin) -> tuple:
    """The run's (steps, thin) as ints, once the run is checked."""
    if _instance("x0", x0, OpinionState).m != 1:
        raise ValueError("gossip models act on scalar opinions")
    steps, thin = _count("steps", steps, 1), _count("thin", thin, 1)
    if not isinstance(model, _MODELS):
        raise ValueError(f"unknown gossip model {type(model).__name__}")
    n = x0.n
    if isinstance(model, DeffuantWeisbuch) and n < 2:
        raise ValueError(f"pair dynamics needs at least two agents, got {n}")
    _agents("model", model.n, n)
    return steps, thin


def _chunks(draw, rng, n: int, steps: int, thin: int):
    """Draw ``steps`` steps in blocks of _BLOCK and yield them in chunks of
    at most _CHUNK steps as (the chunk's slice of the run, its draws as
    array slices, snap flags). A step's flag is set when the state after it
    is kept: every thin-th step and the last."""
    done = 0
    while done < steps:
        count = min(_BLOCK, steps - done)
        arrays = draw(rng, n, count)
        for lo in range(0, count, _CHUNK):
            size = min(_CHUNK, count - lo)
            before = done + lo
            snap = [False] * size
            first = thin - 1 - before % thin
            snap[first::thin] = [True] * len(range(first, size, thin))
            if before + size == steps:
                snap[-1] = True
            yield slice(before, before + size), [a[lo:lo + size] for a in arrays], snap
        done += count


class _EventLog:
    """The event columns of a run of ``steps`` steps, filled a chunk at a
    time: the draws' agent and partner, and the interacted flags."""

    def __init__(self, steps: int):
        try:
            self.agent = np.empty(steps, np.int64)
            self.partner = np.empty(steps, np.int64)
            self.interacted = np.ones(steps, bool)
        except MemoryError as exc:
            raise ValueError(f"{steps} steps are too many events to hold in memory") from exc

    def add(self, at: slice, draws, moved) -> None:
        self.agent[at] = draws[0]
        self.partner[at] = draws[1]
        if moved is not None:
            # bytes() of a bool list is its 0/1 bytes, three times faster
            # than numpy's conversion of the list
            self.interacted[at] = np.frombuffer(bytes(moved), bool)

    def events(self) -> Events:
        return Events(self.agent, self.partner, self.interacted)


def simulate_gossip(
    model: DegrootGossip | SymmetricPairGossip | GossipFJ | DeffuantWeisbuch, x0: OpinionState,
    steps: int, seed: int | tuple | np.random.Generator, thin: int = 1,
    record_events: bool = True,
) -> Trajectory:
    """Run a gossip model for a fixed number of steps.

    Deterministic given (seed, model, x0). ``thin`` keeps every thin-th
    state (the initial and final states are always kept); events, when
    recorded, cover every step as (i, j, interacted) records.
    """
    steps, thin = _check_run(model, x0, steps, thin)
    rng = make_rng(seed)
    n = x0.n
    x = x0.flat.tolist()
    # kept states as raw doubles: 8 bytes a value, and no float object
    # outlives its step
    kept = array("d", x)
    log = _EventLog(steps) if record_events else None
    for at, draws, snap in _chunks(model._draw, rng, n, steps, thin):
        moved = model._apply(x, [a.tolist() for a in draws], snap, kept.extend, log is not None)
        if log is not None:
            log.add(at, draws, moved)
    stamps = _stamps(steps, thin)
    return Trajectory(
        np.frombuffer(kept).reshape(len(stamps), n, 1),
        np.array(stamps, dtype=float),
        events=None if log is None else log.events(),
    )


# ---------------------------------------------------------------------------
# Exact pair dynamics
# ---------------------------------------------------------------------------


@dataclass
class DWExactRun:
    """Pair-dynamics run in exact dyadic-rational arithmetic: float snapshots
    in the trajectory, and the first and last states as Fractions, on which
    conserved quantities hold with no roundoff at all."""

    trajectory: Trajectory
    initial_exact: tuple
    final_exact: tuple


def _to_dyadic(v: float):
    """Exact dyadic form of a float: (num, exp) with value num / 2**exp."""
    p, q = float(v).as_integer_ratio()
    return p, q.bit_length() - 1


def _scaled_bounds(bounds: list, exp: int):
    """Each bound d as the integer floor(d * 2**exp), and the negatives: a
    gap g on the scale 2**exp is within d iff -floor <= g <= floor. An
    infinite bound stays inf and trusts every gap, as in the float twin."""
    up = []
    for d in bounds:
        if d != inf:
            p, e = _to_dyadic(d)
            d = (p << exp) >> e
        up.append(d)
    return up, [-b for b in up]


def dw_run_exact(
    model: DeffuantWeisbuch, x0: OpinionState, steps: int,
    seed: int | tuple | np.random.Generator, thin: int | None = None,
    record_events: bool = False,
) -> DWExactRun:
    """Run the pair dynamics (symmetric or asymmetric, with a shared or a
    per-agent bound) in exact arithmetic.

    Floats and the move fraction are dyadic rationals, so every opinion
    stays an integer over one shared scale 2**E. ``exps`` bounds the
    exponent each opinion needs; before a move E is raised, with _HEADROOM
    bits to spare, to the larger partner's plus the move fraction's, so
    every update is exact. The symmetric dynamics, where both agents move,
    conserves the opinion sum exactly, not merely to roundoff. Each move
    lengthens a converging agent's numerator by mu_exp bits (1 at mu = 0.5,
    54 at mu = 0.3), so time per step grows with the run length. A halving
    move (mu = 1/2, both agents move) costs three big-integer operations:
    the gap, its half, and the one midpoint both agents take. With one
    shared bound, agent i's bound test is agent j's. The per-step
    interacted flags are built only when ``record_events`` is set. Pair
    draws are the float simulator's, so a run is comparable draw-for-draw
    with its float twin. ``thin`` defaults to keeping the ends only.
    """
    if not isinstance(model, DeffuantWeisbuch):
        raise ValueError("exact runs are provided for the pair dynamics")
    steps, thin = _check_run(model, x0, steps, steps if thin is None else thin)
    rng = make_rng(seed)
    n = x0.n
    bounds, symmetric = model._bounds(n), model.mode == "symmetric"
    # with one shared bound agent j's test is agent i's
    tied = symmetric and model.n is None
    dyadic = [_to_dyadic(v) for v in x0.flat.tolist()]
    initial = tuple(Fraction(p, 1 << e) for p, e in dyadic)
    exps = [e for _, e in dyadic]
    scale_exp = max(exps)
    scale = 1 << scale_exp
    nums = [p << (scale_exp - e) for p, e in dyadic]
    bnd, nbnd = _scaled_bounds(bounds, scale_exp)
    mu_num, mu_exp = _to_dyadic(model.mu)
    halving = mu_num == 1 and mu_exp == 1
    # kept states as raw doubles; p / scale is correctly rounded
    kept = array("d", [p / scale for p in nums])
    log = _EventLog(steps) if record_events else None
    for at, draws, snap in _chunks(_draw_pairs, rng, n, steps, thin):
        act, partner = (a.tolist() for a in draws)
        moved = [] if log is not None else None
        for i, j, s in zip(act, partner, snap):
            gap = nums[j] - nums[i]
            moved_i = nbnd[i] <= gap <= bnd[i]
            moved_j = moved_i if tied else symmetric and nbnd[j] <= gap <= bnd[j]
            if moved_i or moved_j:
                e_i, e_j = exps[i], exps[j]
                e_new = (e_i if e_i >= e_j else e_j) + mu_exp
                if e_new > scale_exp:
                    grow = e_new + _HEADROOM - scale_exp
                    scale_exp += grow
                    scale = 1 << scale_exp
                    nums = [p << grow for p in nums]
                    gap <<= grow
                    bnd, nbnd = _scaled_bounds(bounds, scale_exp)
                # exact: gap is a multiple of 2**mu_exp; a power-of-two mu needs no product
                shift = (gap if mu_num == 1 else mu_num * gap) >> mu_exp
                if halving and moved_i and moved_j:
                    # nums[j] - shift is the same midpoint
                    nums[i] = nums[j] = nums[i] + shift
                    exps[i] = exps[j] = e_new
                else:
                    if moved_i:
                        nums[i] += shift
                        exps[i] = e_new
                    if moved_j:
                        nums[j] -= shift
                        exps[j] = e_new
            if moved is not None:
                moved.append(moved_i or moved_j)
            if s:
                kept.extend([p / scale for p in nums])
        if log is not None:
            log.add(at, draws, moved)

    final = tuple(Fraction(p, scale) for p in nums)
    stamps = _stamps(steps, thin)
    traj = Trajectory(np.frombuffer(kept).reshape(len(stamps), n, 1), stamps,
                      events=None if log is None else log.events())
    return DWExactRun(trajectory=traj, initial_exact=initial, final_exact=final)


# ---------------------------------------------------------------------------
# Averages and the two-source limit law
# ---------------------------------------------------------------------------


def cesaro(trajectory: Trajectory) -> np.ndarray:
    """Running arithmetic means of the recorded states, shape (S, n, m).

    Entry k averages states 0..k; ergodic gossip processes converge in this
    average even when the raw opinions keep fluctuating. Each mean is the
    previous one plus a shrinking correction, ``mean + (v - mean) / k`` with
    k the 1-based count, so very long runs stay numerically stable.

    The recurrence runs as one Python-float pass per (agent, dimension),
    _CHUNK states at a time. Python floats perform the same IEEE operations
    as numpy float64 elementwise, so the result is bit-identical with the
    elementwise recurrence over whole states. An empty trajectory gives an
    empty (0, n, m) array.
    """
    arr = _instance("trajectory", trajectory, Trajectory).array
    out = np.empty_like(arr)
    if not len(arr):
        return out
    out[0] = arr[0]
    for i, j in np.ndindex(arr.shape[1:]):
        column, means = arr[:, i, j], out[:, i, j]
        mean = float(column[0])
        for lo in range(1, len(column), _CHUNK):
            chunk = []
            push = chunk.append
            for k, v in enumerate(column[lo:lo + _CHUNK].tolist(), lo + 1):
                mean = mean + (v - mean) / k
                push(mean)
            means[lo:lo + _CHUNK] = chunk
    return out


def bernoulli_convolution(gamma: float, depth: int,
                          rng: int | tuple | np.random.Generator) -> float:
    """One sample of the stationary opinion of an agent torn between two
    fixed sources at 0 and 1: (gamma / (1 - gamma)) * sum_{s=1..depth}
    (1 - gamma)^s xi_s with fair coin flips xi_s, drawn as
    ``make_rng(rng).integers(0, 2, size=depth)``. At gamma = 1/2 the
    distribution is uniform on [0, 1]."""
    _real("gamma", gamma, "(0, 1)")
    depth = _count("depth", depth, 1)
    bits = make_rng(rng).integers(0, 2, size=depth)
    powers = np.cumprod(np.full(depth, 1.0 - gamma))
    return float(gamma / (1.0 - gamma) * (powers * bits).sum())
