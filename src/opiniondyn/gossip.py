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
simulator consumes randomness in blocks of up to 2**20 steps: within a
block it first draws all activation indices, then all partner draws, in the
order documented on each model. Single-step ``gossip_step`` draws the same
quantities per call but lays them out per step, so it has its own stream
layout; replaying a simulation's recorded events reproduces its states.

The symmetric bounded-confidence pair dynamics can also be run in exact
dyadic-rational arithmetic (``dw_run_exact``), where conserved quantities
are conserved exactly rather than to roundoff.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

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

_BLOCK = 1 << 20


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


@dataclass(frozen=True)
class DeffuantWeisbuch:
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
        if self.d <= 0:
            raise ValueError("confidence bound must be positive")
        if not 0 < self.mu < 1:
            raise ValueError("the move fraction must lie in (0, 1)")
        if self.mode not in ("symmetric", "asymmetric"):
            raise ValueError("mode must be 'symmetric' or 'asymmetric'")


@dataclass(frozen=True)
class DWHeterogeneous:
    """Pair dynamics with per-agent confidence bounds: each side of the
    sampled pair moves iff the gap is within its own bound.
    Draw order as in the homogeneous pair dynamics."""

    d: np.ndarray
    mu: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 1 or np.any(d <= 0):
            raise ValueError("per-agent bounds must be a positive vector")
        if not 0 < self.mu < 1:
            raise ValueError("the move fraction must lie in (0, 1)")
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]


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


def _pair_cdf_rows(p: np.ndarray) -> list:
    return [list(np.cumsum(row)) for row in p]


def _partner_from_row(cum_row, u: float, n: int) -> int:
    return min(bisect_right(cum_row, u), n - 1)


def _apply_degroot(x, i, j, gain):
    x[i] = x[i] + gain * (x[j] - x[i])


def _apply_pair_average(x, i, j):
    mid = 0.5 * (x[i] + x[j])
    x[i] = mid
    x[j] = mid


def _apply_fj(x, i, j, g1, g2, u_i):
    x[i] = x[i] + g1 * (x[j] - x[i]) + g2 * (u_i - x[i])


def _apply_dw(x, i, j, d_i, d_j, mu, symmetric):
    gap = x[j] - x[i]
    agap = abs(gap)
    moved_i = agap <= d_i
    moved_j = symmetric and agap <= d_j
    shift = mu * gap
    if moved_i:
        x[i] = x[i] + shift
    if moved_j:
        x[j] = x[j] - shift
    return moved_i or moved_j


def _require_pair(n: int) -> None:
    if n < 2:
        raise ValueError(f"pair dynamics needs at least two agents, got {n}")


def gossip_step(x: OpinionState, model, rng, u=None):
    """One randomized interaction; returns (new state, event record).

    The event is the tuple (i, j, interacted) naming the sampled agents and
    whether an update actually happened. Exactly the agents designated by
    the model variant change; for GossipFJ the prejudice vector defaults to
    the one stored on the model.
    """
    if x.m != 1:
        raise ValueError("gossip models act on scalar opinions")
    rng = make_rng(rng)
    n = x.n
    vals = list(x.flat)
    if isinstance(model, (DegrootGossip, SymmetricPairGossip)):
        if model.n != n:
            raise ValueError("model size must match the state")
        i = int(rng.integers(n))
        uvar = float(rng.random())
        j = _partner_from_row(list(np.cumsum(model.p[i])), uvar, n)
        if isinstance(model, DegrootGossip):
            _apply_degroot(vals, i, j, model.gains[i])
        else:
            _apply_pair_average(vals, i, j)
        event = (i, j, True)
    elif isinstance(model, GossipFJ):
        if model.n != n:
            raise ValueError("model size must match the state")
        prejudice = model.u if u is None else np.asarray(u, dtype=float).reshape(-1)
        arc = int(rng.integers(len(model.arcs)))
        i, j = model.arcs[arc]
        _apply_fj(vals, i, j, model.gamma1[i, j], model.gamma2[i, j], prejudice[i])
        event = (i, j, True)
    elif isinstance(model, (DeffuantWeisbuch, DWHeterogeneous)):
        _require_pair(n)
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        if isinstance(model, DeffuantWeisbuch):
            moved = _apply_dw(vals, i, j, model.d, model.d, model.mu,
                              model.mode == "symmetric")
        else:
            if model.n != n:
                raise ValueError("model size must match the state")
            moved = _apply_dw(vals, i, j, model.d[i], model.d[j], model.mu, True)
        event = (i, j, moved)
    else:
        raise TypeError(f"unknown gossip model {type(model).__name__}")
    return OpinionState(np.array(vals)), event


def simulate_gossip(
    model, x0: OpinionState, steps: int, seed, thin: int = 1, record_events: bool = True
) -> Trajectory:
    """Run a gossip model for a fixed number of steps.

    Deterministic given (seed, model, x0). ``thin`` keeps every thin-th
    state (the initial and final states are always kept); events, when
    recorded, cover every step as (i, j, interacted) tuples.
    """
    if x0.m != 1:
        raise ValueError("gossip models act on scalar opinions")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    rng = make_rng(seed)
    n = x0.n
    x = list(x0.flat)
    kept = [np.array(x)]
    stamps = [0]
    events = [] if record_events else None

    is_degroot = isinstance(model, DegrootGossip)
    is_pair = isinstance(model, SymmetricPairGossip)
    is_fj = isinstance(model, GossipFJ)
    is_dw = isinstance(model, DeffuantWeisbuch)
    is_dwh = isinstance(model, DWHeterogeneous)
    if not (is_degroot or is_pair or is_fj or is_dw or is_dwh):
        raise TypeError(f"unknown gossip model {type(model).__name__}")
    if (is_degroot or is_pair or is_fj or is_dwh) and model.n != n:
        raise ValueError("model size must match the state")
    if is_dw or is_dwh:
        _require_pair(n)

    if is_degroot or is_pair:
        cum_rows = _pair_cdf_rows(model.p)
        gains = list(model.gains) if is_degroot else None
    if is_fj:
        arcs = model.arcs
        g1 = model.gamma1
        g2 = model.gamma2
        prejudice = list(model.u)
    if is_dw:
        d_i = d_j = model.d
        mu = model.mu
        symmetric = model.mode == "symmetric"
    if is_dwh:
        d_arr = list(model.d)
        mu = model.mu

    done = 0
    while done < steps:
        count = min(_BLOCK, steps - done)
        if is_fj:
            arc_idx = rng.integers(len(arcs), size=count)
        else:
            act = rng.integers(n, size=count)
            if is_degroot or is_pair:
                unif = rng.random(count)
            else:
                partner = rng.integers(n - 1, size=count)
        for b in range(count):
            if is_fj:
                i, j = arcs[arc_idx[b]]
                _apply_fj(x, i, j, g1[i, j], g2[i, j], prejudice[i])
                moved = True
            elif is_degroot:
                i = act[b]
                j = _partner_from_row(cum_rows[i], unif[b], n)
                _apply_degroot(x, i, j, gains[i])
                moved = True
            elif is_pair:
                i = act[b]
                j = _partner_from_row(cum_rows[i], unif[b], n)
                _apply_pair_average(x, i, j)
                moved = True
            else:
                i = act[b]
                j = partner[b]
                if j >= i:
                    j += 1
                if is_dw:
                    moved = _apply_dw(x, i, j, d_i, d_j, mu, symmetric)
                else:
                    moved = _apply_dw(x, i, j, d_arr[i], d_arr[j], mu, True)
            if events is not None:
                events.append((int(i), int(j), bool(moved)))
            k = done + b + 1
            if k % thin == 0 or k == steps:
                kept.append(np.array(x))
                stamps.append(k)
        done += count

    return Trajectory(
        np.stack(kept)[:, :, None],
        np.array(stamps, dtype=float),
        events=events,
    )


# ---------------------------------------------------------------------------
# Exact pair dynamics
# ---------------------------------------------------------------------------


@dataclass
class DWExactRun:
    """Pair-dynamics run in exact dyadic-rational arithmetic.

    The trajectory holds float snapshots; initial_exact/final_exact are the
    untouched Fraction states, on which conserved quantities hold with no
    roundoff at all.
    """

    trajectory: Trajectory
    initial_exact: tuple
    final_exact: tuple


def _to_dyadic(v: float):
    """Exact dyadic form of a float: (num, exp) with value num / 2**exp."""
    p, q = float(v).as_integer_ratio()
    return p, q.bit_length() - 1


def dw_run_exact(
    model, x0: OpinionState, steps: int, seed, thin: int | None = None,
    record_events: bool = False,
) -> DWExactRun:
    """Run the bounded-confidence pair dynamics in exact arithmetic.

    Floats are dyadic rationals and the move fraction is one as well, so
    the whole run stays inside the dyadic lattice; opinions are carried as
    raw (numerator, exponent) integer pairs and every update is exact.
    In particular the symmetric variant conserves the opinion sum exactly,
    not merely to roundoff. Pair sampling never looks at the state and is
    identical to the float simulator, so a run is comparable draw-for-draw
    with its float twin. ``thin`` defaults to keeping only the first and
    last states.
    """
    if not isinstance(model, (DeffuantWeisbuch, DWHeterogeneous)):
        raise TypeError("exact runs are provided for the pair dynamics")
    if x0.m != 1:
        raise ValueError("gossip models act on scalar opinions")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = make_rng(seed)
    n = x0.n
    _require_pair(n)
    if thin is None:
        thin = steps
    nums = []
    exps = []
    for v in x0.flat.tolist():
        p, e = _to_dyadic(v)
        nums.append(p)
        exps.append(e)
    initial = tuple(Fraction(p, 1 << e) for p, e in zip(nums, exps))
    mu_num, mu_exp = _to_dyadic(model.mu)
    if isinstance(model, DeffuantWeisbuch):
        d_num, d_exp = _to_dyadic(model.d)
        bound_nums = [d_num] * n
        bound_exps = [d_exp] * n
        symmetric = model.mode == "symmetric"
    else:
        if model.n != n:
            raise ValueError("model size must match the state")
        bound_nums, bound_exps = [], []
        for v in model.d.tolist():
            p, e = _to_dyadic(v)
            bound_nums.append(p)
            bound_exps.append(e)
        symmetric = True

    def snapshot():
        return np.array([float(Fraction(p, 1 << e)) for p, e in zip(nums, exps)])

    def within(agap_num, gap_exp, which):
        # |gap| <= d_which, cross-shifted to integers
        b_num, b_exp = bound_nums[which], bound_exps[which]
        if gap_exp >= b_exp:
            return agap_num <= b_num << (gap_exp - b_exp)
        return agap_num << (b_exp - gap_exp) <= b_num

    kept = [snapshot()]
    stamps = [0]
    events = [] if record_events else None
    done = 0
    while done < steps:
        count = min(_BLOCK, steps - done)
        act = rng.integers(n, size=count)
        partner = rng.integers(n - 1, size=count)
        for b in range(count):
            i = int(act[b])
            j = int(partner[b])
            if j >= i:
                j += 1
            e_i, e_j = exps[i], exps[j]
            e_g = e_i if e_i >= e_j else e_j
            gap_num = (nums[j] << (e_g - e_j)) - (nums[i] << (e_g - e_i))
            agap = -gap_num if gap_num < 0 else gap_num
            moved_i = within(agap, e_g, i)
            moved_j = symmetric and within(agap, e_g, j)
            if moved_i or moved_j:
                shift_num = mu_num * gap_num
                e_s = e_g + mu_exp
                if moved_i:
                    e_new = e_i if e_i >= e_s else e_s
                    nums[i] = (nums[i] << (e_new - e_i)) + (shift_num << (e_new - e_s))
                    exps[i] = e_new
                if moved_j:
                    e_new = e_j if e_j >= e_s else e_s
                    nums[j] = (nums[j] << (e_new - e_j)) - (shift_num << (e_new - e_s))
                    exps[j] = e_new
            if events is not None:
                events.append((i, j, bool(moved_i or moved_j)))
            k = done + b + 1
            if k % thin == 0 or k == steps:
                kept.append(snapshot())
                stamps.append(k)
        done += count

    final = tuple(Fraction(p, 1 << e) for p, e in zip(nums, exps))
    traj = Trajectory(np.stack(kept)[:, :, None], np.array(stamps, dtype=float), events=events)
    return DWExactRun(trajectory=traj, initial_exact=initial, final_exact=final)


# ---------------------------------------------------------------------------
# Averages and the two-source limit law
# ---------------------------------------------------------------------------


def cesaro(trajectory: Trajectory) -> np.ndarray:
    """Running arithmetic means of the recorded states, shape (S, n, m).

    Computed incrementally (each mean is the previous one plus a shrinking
    correction) so very long runs stay numerically stable. Entry k averages
    states 0..k; ergodic gossip processes converge in this average even
    when the raw opinions keep fluctuating.
    """
    arr = trajectory.array
    out = np.empty_like(arr)
    out[0] = arr[0]
    for k in range(1, arr.shape[0]):
        out[k] = out[k - 1] + (arr[k] - out[k - 1]) / (k + 1)
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
    powers = np.cumprod(np.full(depth, 1.0 - gamma))
    return float(gamma / (1.0 - gamma) * (powers * bits).sum())
