"""Randomized asynchronous pairwise-interaction models.

At every step a random agent or pair is activated and only the activated
opinions change: one-sided averaging toward a sampled neighbor, symmetric
pair averaging, prejudice-anchored updates on a sampled arc, and the
bounded-confidence pair dynamics in its symmetric, asymmetric, and
heterogeneous forms.

Randomness is fully reproducible: every run is driven by a Philox
counter-based generator keyed through numpy's SeedSequence with
(seed, stream), so Monte Carlo trials on distinct streams are independent
while identical (seed, stream, model, x0) give bit-identical runs. The
draws never look at the state, so every model is split into a block draw
and an update loop. The simulator consumes randomness in blocks of up to
2**20 steps: within a block it first draws all activation indices, then
all partner draws, in the order documented on each model, and then applies
the block step by step. ``gossip_step`` is a one-step block, so a single
step consumes the stream exactly as ``simulate_gossip(steps=1)`` does;
replaying a simulation's recorded events reproduces its states.

The three bounded-confidence pair dynamics are one rule: agent i moves by
mu times the gap when the gap is within its bound d_i, and in the symmetric
dynamics agent j moves back by the same amount when the gap is within d_j.
They differ only in the bounds (one d, or one per agent) and in whether j
moves, so they share one float update loop, and the exact run
(``dw_run_exact``) reads the same rule. It costs more per step as the run
goes on; the symmetric dynamics, where both agents move, then conserves the
sum exactly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from math import inf

import numpy as np

from .linear_dynamics import check_stochastic
from .state import OpinionState, Trajectory

__all__ = [
    "RngSeed",
    "make_rng",
    "DegrootGossip",
    "SymmetricPairGossip",
    "GossipFJ",
    "DeffuantWeisbuch",
    "DWHeterogeneous",
    "build_gammas",
    "gossip_step",
    "simulate_gossip",
    "dw_run_exact",
    "DWExactRun",
    "cesaro",
    "bernoulli_convolution",
]

_BLOCK = 1 << 20  # steps per draw call; part of the stream layout
_CHUNK = 1 << 14  # steps or states converted to Python lists at a time
_HEADROOM = 256  # bits the exact runs' shared scale grows by beyond the need


@dataclass(frozen=True)
class RngSeed:
    """Seed plus a derived sub-stream index for parallel trials."""

    seed: int
    stream: int = 0


def make_rng(seed) -> np.random.Generator:
    """Philox generator for a seed given as int, RngSeed, or (seed, stream)."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        key, stream = seed.seed, seed.stream
    elif isinstance(seed, tuple):
        key, stream = seed
    else:
        key, stream = int(seed), 0
    ss = np.random.SeedSequence(key, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegrootGossip:
    """One-sided gossip averaging.

    A uniformly random agent i becomes active, samples a partner j from row
    i of the zero-diagonal stochastic matrix p, and moves by its gain:
    x_i' = x_i + gains_i (x_j - x_i). Nobody else changes.
    Draw order: activation index, then one uniform variate mapped through
    the row's cumulative distribution.
    """

    p: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        p = check_stochastic(self.p)
        if np.any(np.diag(p) != 0):
            raise ValueError("partner matrix must have a zero diagonal")
        g = np.asarray(self.gains, dtype=float)
        if g.shape != (p.shape[0],):
            raise ValueError("one gain per agent required")
        if np.any(g <= 0) or np.any(g >= 1):
            raise ValueError("gains must lie strictly inside (0, 1)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gains", g)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def _draw(self, rng, n, count):
        return _draw_row_partners(self.p, rng, count)

    def _apply(self, x, draws, snap, keep):
        gains = self.gains.tolist()
        for i, j, s in zip(*draws, snap):
            xi = x[i]
            x[i] = xi + gains[i] * (x[j] - xi)
            if s:
                keep(x)
        return repeat(True)


@dataclass(frozen=True)
class SymmetricPairGossip:
    """Both sampled agents move to their midpoint.

    Activation as in one-sided gossip (agent uniform, partner from row i of
    p); then x_i' = x_j' = (x_i + x_j) / 2.
    """

    p: np.ndarray

    def __post_init__(self):
        p = check_stochastic(self.p)
        if np.any(np.diag(p) != 0):
            raise ValueError("partner matrix must have a zero diagonal")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def _draw(self, rng, n, count):
        return _draw_row_partners(self.p, rng, count)

    def _apply(self, x, draws, snap, keep):
        for i, j, s in zip(*draws, snap):
            mid = 0.5 * (x[i] + x[j])
            x[i] = mid
            x[j] = mid
            if s:
                keep(x)
        return repeat(True)


@dataclass(frozen=True)
class GossipFJ:
    """Asynchronous prejudice-anchored averaging.

    An arc (i, j) is sampled uniformly from the arc list and only agent i
    updates: x_i' = x_i + gamma1_ij (x_j - x_i) + gamma2_ij (u_i - x_i).
    The arc list defaults to the full nonzero support of the coupling
    matrix the gamma factors were built from; a positive self-weight
    contributes the self-arc (i, i), on which the agent re-anchors toward
    its prejudice. Dropping the self-arcs would bias the ergodic limit away
    from the anchored-averaging fixed point.
    Draw order: one uniform arc index per step.
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    u: np.ndarray
    arcs: tuple

    def __post_init__(self):
        g1 = np.asarray(self.gamma1, dtype=float)
        g2 = np.asarray(self.gamma2, dtype=float)
        if g1.shape != g2.shape or g1.ndim != 2 or g1.shape[0] != g1.shape[1]:
            raise ValueError("gamma factors must be equal-size square matrices")
        if np.any(g1 < 0) or np.any(g2 < 0):
            raise ValueError("gamma factors must be entrywise nonnegative")
        if np.any(g1 + g2 > 1 + 1e-12):
            raise ValueError("gamma1 + gamma2 must not exceed 1 entrywise")
        u = np.asarray(self.u, dtype=float).reshape(-1)
        if u.shape[0] != g1.shape[0]:
            raise ValueError("prejudice vector length must match matrix size")
        arcs = tuple((int(i), int(j)) for i, j in self.arcs)
        if not arcs:
            raise ValueError("arc list must be nonempty")
        n = g1.shape[0]
        for i, j in arcs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"invalid arc ({i}, {j})")
        rows, cols = np.nonzero(g1 + g2)
        support = {(int(i), int(j)) for i, j in zip(rows, cols)}
        if not support.issubset(set(arcs)):
            raise ValueError("gamma factors are supported outside the arc list")
        object.__setattr__(self, "gamma1", g1)
        object.__setattr__(self, "gamma2", g2)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "arcs", arcs)

    @classmethod
    def from_fj(cls, lam, w, u) -> "GossipFJ":
        """Canonical construction from susceptibilities and a stochastic
        matrix: the arc list is the full nonzero support of w, self-arcs
        included."""
        g1, g2 = build_gammas(lam, w)
        w = np.asarray(w, dtype=float)
        arcs = tuple((int(i), int(j)) for i, j in zip(*np.nonzero(w)))
        return cls(gamma1=g1, gamma2=g2, u=u, arcs=arcs)

    @property
    def n(self) -> int:
        return self.gamma1.shape[0]

    def _draw(self, rng, n, count):
        arc = rng.integers(len(self.arcs), size=count)
        ai, aj = np.array(self.arcs).T
        return ai[arc], aj[arc], self.gamma1[ai, aj][arc], self.gamma2[ai, aj][arc]

    def _apply(self, x, draws, snap, keep):
        u = self.u.tolist()
        for i, j, g1, g2, s in zip(*draws, snap):
            xi = x[i]
            x[i] = xi + g1 * (x[j] - xi) + g2 * (u[i] - xi)
            if s:
                keep(x)
        return repeat(True)


class _PairDynamics:
    """The bounded-confidence pair rule shared by the pair models.

    A uniformly random pair (i, j) meets. Agent i moves by mu times the gap
    x_j - x_i when the gap is within its bound d_i; in the symmetric rule
    agent j moves by the same amount the other way when the gap is within
    d_j. ``_rule(n)`` gives the per-agent bounds as a list of floats and
    whether j moves too; the float loop and ``dw_run_exact`` both read it.
    """

    def _draw(self, rng, n, count):
        return _draw_pairs(rng, n, count)

    def _apply(self, x, draws, snap, keep):
        bounds, symmetric = self._rule(len(x))
        mu = float(self.mu)
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
            flag(moved_i or moved_j)
            if s:
                keep(x)
        return moved


@dataclass(frozen=True)
class DeffuantWeisbuch(_PairDynamics):
    """Bounded-confidence pair dynamics.

    A random pair meets; the move happens only when the gap is within the
    confidence bound d, in which case the mover shifts by mu times the gap.
    mode "symmetric": both agents of a uniformly random unordered pair move
    toward each other. mode "asymmetric": only the first agent of a
    uniformly random ordered pair moves.
    Draw order per step: first index uniform on n, second uniform on the
    remaining n-1 (skipping the first).
    """

    d: float
    mu: float
    mode: str = "symmetric"

    def __post_init__(self):
        if not self.d > 0:  # NaN fails this too
            raise ValueError("confidence bound must be positive")
        if not 0 < self.mu < 1:
            raise ValueError("the move fraction must lie in (0, 1)")
        if self.mode not in ("symmetric", "asymmetric"):
            raise ValueError("mode must be 'symmetric' or 'asymmetric'")

    def _rule(self, n):
        return [float(self.d)] * n, self.mode == "symmetric"


@dataclass(frozen=True)
class DWHeterogeneous(_PairDynamics):
    """Pair dynamics with per-agent confidence bounds: each side of the
    sampled pair moves iff the gap is within its own bound.
    Draw order as in the homogeneous pair dynamics."""

    d: np.ndarray
    mu: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 1 or not np.all(d > 0):
            raise ValueError("per-agent bounds must be a positive vector")
        if not 0 < self.mu < 1:
            raise ValueError("the move fraction must lie in (0, 1)")
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def _rule(self, n):
        return self.d.tolist(), True


def build_gammas(lam, w):
    """Split a stochastic coupling matrix into the opinion and prejudice
    factors: gamma1 = diag(lam) W, gamma2 = (I - diag(lam)) W."""
    lam = np.asarray(lam, dtype=float)
    w = check_stochastic(w)
    if lam.shape != (w.shape[0],):
        raise ValueError("lam must be a length-n vector")
    if np.any(lam < 0) or np.any(lam > 1):
        raise ValueError("susceptibilities must lie in [0, 1]")
    return lam[:, None] * w, (1.0 - lam)[:, None] * w


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------
#
# Every model has a block draw and an update loop. ``_draw(rng, n, count)``
# makes the model's draws for ``count`` steps in the stream layout above and
# returns them as per-step arrays, the agent i and the partner j first.
# ``_apply(x, draws, snap, keep)`` runs the steps on the list of Python
# floats ``x`` in place, given the draws as lists; after each step whose
# ``snap`` flag is set it calls ``keep(x)``. It returns the per-step
# ``interacted`` flags. The pair models share both: their ``_rule(n)`` gives
# the per-agent bounds and whether the partner moves too, and one loop in
# ``_PairDynamics._apply`` applies it.

_MODELS = (DegrootGossip, SymmetricPairGossip, GossipFJ, _PairDynamics)


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


def _check_run(model, x0: OpinionState, steps: int, thin: int) -> None:
    if x0.m != 1:
        raise ValueError("gossip models act on scalar opinions")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if not isinstance(model, _MODELS):
        raise TypeError(f"unknown gossip model {type(model).__name__}")
    n = x0.n
    if isinstance(model, _PairDynamics) and n < 2:
        raise ValueError(f"pair dynamics needs at least two agents, got {n}")
    if getattr(model, "n", n) != n:
        raise ValueError("model size must match the state")


def _chunks(draw, rng, n: int, steps: int, thin: int):
    """Draw ``steps`` steps in blocks of _BLOCK and yield them in chunks of
    at most _CHUNK steps as (draws as lists, snap flags). A step's flag is
    set when the state after it is kept: every thin-th step and the last."""
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
            yield [a[lo:lo + size].tolist() for a in arrays], snap
        done += count


def _stamps(steps: int, thin: int) -> list:
    """Step counts of the kept states: 0, every thin-th step, and the last."""
    stamps = list(range(0, steps + 1, thin))
    if steps % thin:
        stamps.append(steps)
    return stamps


def gossip_step(x: OpinionState, model, rng, u=None):
    """One randomized interaction; returns (new state, event record).

    The event is the tuple (i, j, interacted) naming the sampled agents and
    whether an update actually happened. Exactly the agents designated by
    the model variant change; for GossipFJ the prejudice vector defaults to
    the one stored on the model. The step is a one-step block of
    ``simulate_gossip`` and consumes the generator exactly as it does.
    """
    if u is not None and isinstance(model, GossipFJ):
        model = replace(model, u=u)
    traj = simulate_gossip(model, x, steps=1, seed=rng)
    return traj.final, traj.events[0]


def simulate_gossip(
    model, x0: OpinionState, steps: int, seed, thin: int = 1, record_events: bool = True
) -> Trajectory:
    """Run a gossip model for a fixed number of steps.

    Deterministic given (seed, model, x0). ``thin`` keeps every thin-th
    state (the initial and final states are always kept); events, when
    recorded, cover every step as (i, j, interacted) tuples.
    """
    _check_run(model, x0, steps, thin)
    rng = make_rng(seed)
    n = x0.n
    x = x0.flat.tolist()
    # kept states as raw doubles: 8 bytes a value, and no float object
    # outlives its step
    kept = array("d", x)
    events = [] if record_events else None
    for draws, snap in _chunks(model._draw, rng, n, steps, thin):
        moved = model._apply(x, draws, snap, kept.extend)
        if events is not None:
            events.extend(zip(draws[0], draws[1], moved))
    stamps = _stamps(steps, thin)
    return Trajectory(
        np.frombuffer(kept).reshape(len(stamps), n, 1),
        np.array(stamps, dtype=float),
        events=events,
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
    model, x0: OpinionState, steps: int, seed, thin: int | None = None,
    record_events: bool = False,
) -> DWExactRun:
    """Run the pair dynamics (symmetric, asymmetric or heterogeneous) in
    exact arithmetic.

    Floats and the move fraction are dyadic rationals, so every opinion
    stays an integer over one shared scale 2**E. ``exps`` bounds the
    exponent each opinion needs; before a move E is raised, with _HEADROOM
    bits to spare, to the larger partner's plus the move fraction's, so
    every update is exact. The symmetric dynamics, where both agents move,
    conserves the opinion sum exactly, not merely to roundoff. Each move
    lengthens a converging agent's numerator by mu_exp bits (1 at mu = 0.5,
    54 at mu = 0.3), so time per step grows with the run length. Pair
    draws are the float simulator's, so a run is comparable draw-for-draw
    with its float twin. ``thin`` defaults to keeping the ends only.
    """
    if not isinstance(model, _PairDynamics):
        raise TypeError("exact runs are provided for the pair dynamics")
    if thin is None:
        thin = steps
    _check_run(model, x0, steps, thin)
    rng = make_rng(seed)
    n = x0.n
    bounds, symmetric = model._rule(n)
    dyadic = [_to_dyadic(v) for v in x0.flat.tolist()]
    initial = tuple(Fraction(p, 1 << e) for p, e in dyadic)
    exps = [e for _, e in dyadic]
    scale_exp = max(exps)
    scale = 1 << scale_exp
    nums = [p << (scale_exp - e) for p, e in dyadic]
    bnd, nbnd = _scaled_bounds(bounds, scale_exp)
    mu_num, mu_exp = _to_dyadic(model.mu)
    # kept states as raw doubles; p / scale is correctly rounded
    kept = array("d", [p / scale for p in nums])
    events = [] if record_events else None
    for (act, partner), snap in _chunks(_draw_pairs, rng, n, steps, thin):
        moved = []
        flag = moved.append
        for i, j, s in zip(act, partner, snap):
            gap = nums[j] - nums[i]
            moved_i = nbnd[i] <= gap <= bnd[i]
            moved_j = symmetric and nbnd[j] <= gap <= bnd[j]
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
                if moved_i:
                    nums[i] += shift
                    exps[i] = e_new
                if moved_j:
                    nums[j] -= shift
                    exps[j] = e_new
            flag(moved_i or moved_j)
            if s:
                kept.extend([p / scale for p in nums])
        if events is not None:
            events.extend(zip(act, partner, moved))

    final = tuple(Fraction(p, scale) for p in nums)
    stamps = _stamps(steps, thin)
    traj = Trajectory(np.frombuffer(kept).reshape(len(stamps), n, 1), stamps, events=events)
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
    arr = trajectory.array
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


def bernoulli_convolution(gamma: float, depth: int, rng, bits=None) -> float:
    """One sample of the stationary opinion of an agent torn between two
    fixed sources at 0 and 1: (gamma / (1 - gamma)) * sum_{s=1..depth}
    (1 - gamma)^s xi_s with fair coin flips xi_s. At gamma = 1/2 the
    distribution is uniform on [0, 1]. ``bits`` may inject explicit coin
    flips (mainly for testing)."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if bits is None:
        bits = make_rng(rng).integers(0, 2, size=depth)
    else:
        bits = np.asarray(bits)
        if bits.shape != (depth,):
            raise ValueError("bits must have length depth")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must be 0 or 1")
    powers = np.cumprod(np.full(depth, 1.0 - gamma))
    return float(gamma / (1.0 - gamma) * (powers * bits).sum())
