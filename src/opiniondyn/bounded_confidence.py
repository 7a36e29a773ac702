"""Bounded-confidence opinion dynamics.

Agents average only the opinions inside their confidence set. The plain
model (synchronous averaging over symmetric confidence intervals) is
provided with every common confidence geometry: asymmetric and per-agent
interval bounds, shifted left endpoints, and norm balls for vector
opinions. Distance-weighted generalizations, truth-attracted and inertial
variants, chain analysis for scalar runs, the quadratic interaction energy,
and a smoothed continuous-time version are included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linear_dynamics import KIND_NONNEGATIVE, WeightSpec, flow_simulate
from .state import MaxStepsError, NonConvergentError, OpinionState, Trajectory

__all__ = [
    "ConfidenceSpec",
    "PhiSpec",
    "DChainPartition",
    "trust_set",
    "trust_matrix",
    "hk_step",
    "phi_step",
    "truth_step",
    "inertial_step",
    "simulate_bc",
    "hk_energy",
    "phi_energy",
    "d_chain_partition",
    "smooth_hk_simulate",
    "hk_indicator_phi",
    "heterophily_phi",
    "reputation_phi",
]

_NORM_ORDS = {"euclidean": 2, "max": np.inf, "sum": 1}


def _offsets(bound):
    """One float shared by all agents, or a tuple of per-agent floats."""
    return float(bound) if np.ndim(bound) == 0 else tuple(float(b) for b in bound)


@dataclass(frozen=True)
class ConfidenceSpec:
    """Geometry of the trust sets, stored as the offsets of a trust window.

    Every interval geometry is one rule on scalar opinions (m = 1): agent i
    trusts agent j iff lo_i <= x_j - x_i <= hi_i, where ``lo`` (negative)
    and ``hi`` (positive) are each one float shared by all agents or a
    per-agent tuple. The constructors fill them in: ``symmetric(d)`` stores
    (-d, d), ``asymmetric(d_left, d_right)`` (-d_left, d_right),
    ``per_agent(bounds)`` (-d_i, d_i) and ``shifted(d, eta)``
    (-d + eta_i, d); ``ConfidenceSpec(lo=..., hi=...)`` gives any other
    window, per-agent asymmetric bounds included. A norm ball (``lo`` None)
    acts on vector opinions: agent i trusts agent j iff
    ||x_j - x_i|| <= hi_i under the Euclidean, max, or sum ``norm``
    (Euclidean by default). ``closed`` selects non-strict (<=) versus strict
    (<) boundary membership; non-strict is the default. A per-agent tuple
    must match the agent count of the state it is applied to.
    """

    lo: float | tuple | None
    hi: float | tuple
    closed: bool = True
    norm: str = "euclidean"

    def __post_init__(self):
        if self.norm not in _NORM_ORDS:
            raise ValueError(f"norm must be one of {sorted(_NORM_ORDS)}")
        for name in ("lo", "hi"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _offsets(getattr(self, name)))
        lo, hi = self.lo, self.hi
        # "not > 0" rather than "<= 0", so that a NaN bound is rejected too
        if not np.all(np.asarray(hi) > 0) or (lo is not None and not np.all(np.asarray(lo) < 0)):
            raise ValueError("confidence bounds must be positive")
        if isinstance(lo, tuple) and isinstance(hi, tuple) and len(lo) != len(hi):
            raise ValueError("left and right bound lists must have equal length")

    @property
    def variant(self) -> str:
        """``"interval"`` for a scalar trust window, ``"norm_ball"`` otherwise."""
        return "interval" if self.lo is not None else "norm_ball"

    @classmethod
    def symmetric(cls, d: float, closed: bool = True) -> "ConfidenceSpec":
        """Trust all opinions within distance d of one's own."""
        return cls(lo=-d, hi=d, closed=closed)

    @classmethod
    def asymmetric(cls, d_left: float, d_right: float, closed: bool = True) -> "ConfidenceSpec":
        """Trust opinions in [x_i - d_left, x_i + d_right]."""
        return cls(lo=-d_left, hi=d_right, closed=closed)

    @classmethod
    def per_agent(cls, bounds, closed: bool = True) -> "ConfidenceSpec":
        """Symmetric intervals with an individual bound per agent."""
        bounds = tuple(float(b) for b in bounds)
        return cls(lo=tuple(-b for b in bounds), hi=bounds, closed=closed)

    @classmethod
    def shifted(cls, d: float, eta, closed: bool = True) -> "ConfidenceSpec":
        """Intervals [x_i - d + eta_i, x_i + d] with 0 <= eta_i and max eta_i < d."""
        eta = tuple(float(e) for e in eta)
        # a bound d <= 0 is left to the positivity check
        if not d <= 0 and (any(e < 0 for e in eta) or max(eta) >= d):
            raise ValueError("shifts must satisfy 0 <= eta_i and max eta_i < d")
        return cls(lo=tuple(-d + e for e in eta), hi=d, closed=closed)

    @classmethod
    def norm_ball(cls, d, norm: str = "euclidean", closed: bool = True) -> "ConfidenceSpec":
        """Trust within a norm ball of radius d (scalar) or d_i (per agent)."""
        return cls(lo=None, hi=d, closed=closed, norm=norm)


def _column(bound, n: int):
    """A shared offset as is, per-agent offsets as an (n, 1) column."""
    if isinstance(bound, float):
        return bound
    if len(bound) != n:
        raise ValueError("per-agent bounds must match the agent count")
    return np.asarray(bound)[:, None]


def _rows(bound, rows: slice):
    """The part of a ``_column`` bound that applies to a block of rows."""
    return bound if isinstance(bound, float) else bound[rows]


# Rows per pass of the trust test and the settled-row test: their float and
# bool temporaries are _BLOCK x n (x m), small enough to stay in cache.
_BLOCK = 32


def trust_matrix(x: OpinionState, spec: ConfidenceSpec) -> np.ndarray:
    """Boolean (n, n) matrix: entry (i, j) True iff agent i trusts agent j.

    Row i is agent i's trust set; the diagonal is always True. The mask is
    filled ``_BLOCK`` rows at a time, so besides the mask itself the
    temporaries (the gaps x_j - x_i, or the differences x_i - x_j and their
    norms) are O(_BLOCK * n * m).
    """
    n = x.n
    if spec.lo is None:
        lo, hi = None, _column(spec.hi, n)
        values, order = x.values, _NORM_ORDS[spec.norm]

        def distance(rows):
            return np.linalg.norm(values[rows, None, :] - values[None, :, :], ord=order, axis=2)
    else:
        if x.m != 1:
            raise ValueError("interval confidence variants require scalar opinions")
        lo, hi = _column(spec.lo, n), _column(spec.hi, n)
        v = x.flat

        def distance(rows):
            return v[None, :] - v[rows, None]  # gap[i, j] = x_j - x_i

    mask = np.empty((n, n), dtype=bool)
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        gap, out = distance(rows), mask[rows]
        (np.less_equal if spec.closed else np.less)(gap, _rows(hi, rows), out=out)
        if lo is not None:
            out &= gap >= _rows(lo, rows) if spec.closed else gap > _rows(lo, rows)
    np.fill_diagonal(mask, True)
    return mask


def trust_set(x: OpinionState, i: int, spec: ConfidenceSpec) -> frozenset:
    """Agents whose opinions agent i currently accepts (always contains i)."""
    if not 0 <= i < x.n:
        raise ValueError(f"agent index {i} out of range")
    return frozenset(np.nonzero(trust_matrix(x, spec)[i])[0].tolist())


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise mean of the trusted opinions.

    Agents with identical trust sets receive bit-identical means (shared
    summation), and a row whose trusted opinions already coincide returns
    that value exactly, so collapsed groups are exact fixed points.

    Row i is settled iff no trusted j has x_j != x_i in any dimension (the
    mask holds i itself); the test runs ``_BLOCK`` rows at a time with bool
    temporaries of O(_BLOCK * n). A settled row takes x_i. A settled row
    with a zero component instead takes the componentwise maximum over its
    trust set, as the earlier max == min test did: numpy's reduction picks
    which of +0.0 and -0.0 a mixed zero becomes.
    """
    n, m = values.shape
    counts = mask.sum(axis=1)
    means = (mask @ values) / counts[:, None]
    settled = np.empty(n, dtype=bool)
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        differs = values[None, :, 0] != values[rows, None, 0]
        for k in range(1, m):
            differs |= values[None, :, k] != values[rows, None, k]
        differs &= mask[rows]
        settled[rows] = ~differs.any(axis=1)
    if settled.any():
        means[settled] = values[settled]
        zero = np.flatnonzero(settled & (values == 0).any(axis=1))
        if zero.size:
            trusted = np.where(mask[zero, :, None], values[None, :, :], -np.inf)
            means[zero] = trusted.max(axis=1)
    return means


def hk_step(x: OpinionState, spec: ConfidenceSpec) -> OpinionState:
    """One synchronous step: every opinion moves to the mean of its trust set.

    Equivalent to time-varying averaging with the state-dependent matrix
    whose rows are uniform over the trust sets.
    """
    return OpinionState(_masked_mean(x.values, trust_matrix(x, spec)))


def truth_step(x: OpinionState, lam, target, spec: ConfidenceSpec) -> OpinionState:
    """Bounded-confidence step with attraction toward an external opinion.

    x_i' = lam_i * (trust-set mean) + (1 - lam_i) * target. Agents with
    lam_i = 1 behave as plain bounded-confidence agents; lam_i = 0 jumps to
    the target in one step.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (x.n,):
        raise ValueError("lam must be a length-n vector")
    if np.any(lam < 0) or np.any(lam > 1):
        raise ValueError("attraction weights must lie in [0, 1]")
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape[0] != x.m:
        raise ValueError("target must be a point in opinion space")
    means = _masked_mean(x.values, trust_matrix(x, spec))
    return OpinionState(lam[:, None] * means + (1.0 - lam)[:, None] * target[None, :])


def inertial_step(x: OpinionState, lam, spec: ConfidenceSpec) -> OpinionState:
    """Bounded-confidence step with per-agent inertia.

    x_i' = (1 - lam_i) * x_i + lam_i * (trust-set mean); lam_i = 0 freezes
    the agent, lam_i = 1 recovers the plain step.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (x.n,):
        raise ValueError("lam must be a length-n vector")
    if np.any(lam < 0) or np.any(lam > 1):
        raise ValueError("inertia weights must lie in [0, 1]")
    means = _masked_mean(x.values, trust_matrix(x, spec))
    return OpinionState((1.0 - lam)[:, None] * x.values + lam[:, None] * means)


# ---------------------------------------------------------------------------
# Distance-weighted averaging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """Distance-responsive interaction weights.

    Either one shared weight function phi(sigma) >= 0 of the squared
    distance, or an n x n table of per-pair functions (the diagonal entries
    must be positive constants so every denominator stays positive). An
    antiderivative Phi(r) = integral of phi over [0, r] may be supplied in
    closed form for energy evaluation; otherwise it is approximated by
    iterated-trapezoid quadrature to a 1e-8 target.
    """

    phi: Callable | None = None
    phi_table: tuple | None = None  # n x n nested tuple of callables
    antiderivative: Callable | None = None
    antiderivative_table: tuple | None = None

    def __post_init__(self):
        if (self.phi is None) == (self.phi_table is None):
            raise ValueError("provide exactly one of phi, phi_table")
        if self.phi is not None:
            if self.phi(0.0) <= 0:
                raise ValueError("phi(0) must be positive")
        else:
            probes = (0.0, 0.37, 1.0, 5.5)
            for i, row in enumerate(self.phi_table):
                f = row[i]
                vals = {f(p) for p in probes}
                if len(vals) != 1 or next(iter(vals)) <= 0:
                    raise ValueError("diagonal weight functions must be positive constants")

    @property
    def n(self) -> int | None:
        return None if self.phi_table is None else len(self.phi_table)

    def weight(self, i: int, j: int, sigma: float) -> float:
        f = self.phi if self.phi is not None else self.phi_table[i][j]
        v = float(f(sigma))
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"weight function returned {v} at sigma={sigma}")
        return v

    def potential(self, i: int, j: int, r: float) -> float:
        """Phi^{ij}(r), from the closed form when given, else by quadrature."""
        if self.antiderivative is not None:
            return float(self.antiderivative(r))
        if self.antiderivative_table is not None:
            return float(self.antiderivative_table[i][j](r))
        f = self.phi if self.phi is not None else self.phi_table[i][j]
        return _trapezoid_antiderivative(f, r)


def _trapezoid_antiderivative(f, r: float, target: float = 1e-8, max_doublings: int = 12) -> float:
    """Trapezoid rule for the integral of f over [0, r] on 64 cells, doubling
    the cells until two estimates differ by less than ``target``. Each pass
    evaluates f only at the new midpoints, so a call costs at most
    64 * 2**max_doublings + 1 evaluations; raises NonConvergentError when the
    last pass still misses the target (e.g. f has a jump and no closed-form
    antiderivative)."""
    if r <= 0:
        return 0.0
    n = 64
    grid = np.linspace(0.0, r, n + 1)
    vals = np.array([f(g) for g in grid], dtype=float)
    est = np.trapezoid(vals, grid)
    for _ in range(max_doublings):
        n *= 2
        grid = np.linspace(0.0, r, n + 1)
        finer = np.empty(n + 1)
        finer[::2] = vals  # grid[2k] is the previous grid[k], bit for bit
        finer[1::2] = [f(g) for g in grid[1::2]]
        vals = finer
        nxt = np.trapezoid(vals, grid)
        if abs(nxt - est) < target:
            return float(nxt)
        est = nxt
    raise NonConvergentError(
        f"trapezoid quadrature of phi on [0, {r}] did not settle within {target} "
        f"after {max_doublings} doublings; give a closed-form antiderivative",
        iterations=max_doublings,
    )


def hk_indicator_phi(d: float) -> PhiSpec:
    """Weights reproducing the plain bounded-confidence step: the indicator
    of squared distances up to d^2, with the exact antiderivative min(r, d^2)."""
    if not d > 0:
        raise ValueError("confidence bound must be positive")
    dsq = d * d
    return PhiSpec(
        phi=lambda sigma: 1.0 if sigma <= dsq else 0.0,
        antiderivative=lambda r: min(r, dsq),
    )


def heterophily_phi(a: float, b: float, d1: float, d2: float) -> PhiSpec:
    """Two-level weights attracting moderately distant opinions more than
    close ones: phi = a on [0, d1^2], b on (d1^2, d2^2), 0 beyond, with
    0 < a < b and 0 < d1 < d2."""
    if not (0 < a < b and 0 < d1 < d2):
        raise ValueError("need 0 < a < b and 0 < d1 < d2")
    s1, s2 = d1 * d1, d2 * d2

    def phi(sigma):
        if sigma <= s1:
            return a
        if sigma < s2:
            return b
        return 0.0

    def anti(r):
        return a * min(r, s1) + b * min(max(r - s1, 0.0), s2 - s1)

    return PhiSpec(phi=phi, antiderivative=anti)


def reputation_phi(weights, d: float) -> PhiSpec:
    """Per-pair weights phi^{ij}(sigma) = w_j for sigma < d^2 (0 beyond):
    every agent inside the confidence ball counts with its own positive
    reputation w_j. Diagonal entries are the constant w_i (they are only
    ever evaluated at distance zero)."""
    w = [float(v) for v in weights]
    if any(not v > 0 for v in w):
        raise ValueError("reputations must be positive")
    if not d > 0:
        raise ValueError("confidence bound must be positive")
    dsq = d * d
    n = len(w)

    def make(i, j):
        wj = w[j]
        if i == j:
            return lambda sigma: wj
        return lambda sigma: wj if sigma < dsq else 0.0

    def make_anti(i, j):
        wj = w[j]
        if i == j:
            return lambda r: wj * r
        return lambda r: wj * min(r, dsq)

    table = tuple(tuple(make(i, j) for j in range(n)) for i in range(n))
    anti = tuple(tuple(make_anti(i, j) for j in range(n)) for i in range(n))
    return PhiSpec(phi_table=table, antiderivative_table=anti)


def _phi_weights(x: OpinionState, phi: PhiSpec) -> np.ndarray:
    if phi.n is not None and phi.n != x.n:
        raise ValueError("weight table size must match the agent count")
    diff = x.values[:, None, :] - x.values[None, :, :]
    sq = (diff**2).sum(-1)
    n = x.n
    w = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            w[i, j] = phi.weight(i, j, sq[i, j])
    return w


def phi_step(x: OpinionState, phi: PhiSpec) -> OpinionState:
    """Weighted-averaging step x_i' = sum_j phi_ij x_j / sum_j phi_ij with
    phi_ij evaluated at the squared pairwise distance. With indicator
    weights this coincides with the plain bounded-confidence step."""
    w = _phi_weights(x, phi)
    denom = w.sum(axis=1)
    if np.any(denom <= 0):
        raise ValueError("a row of interaction weights summed to zero")
    return OpinionState((w @ x.values) / denom[:, None])


def simulate_bc(
    stepper: Callable[[OpinionState], OpinionState],
    x0: OpinionState,
    max_steps: int,
    stop_tol: float = 0.0,
) -> Trajectory:
    """Iterate a bounded-confidence step map until it reaches a fixed point.

    Stops at the first state whose successor differs by at most stop_tol in
    every component (the default 0.0 demands an exact fixed point, which the
    plain model attains; weighted variants converge only asymptotically and
    should pass a small positive tolerance). ``terminated_at`` is that
    state's step index; the confirming successor is recorded too, so the
    returned trajectory is self-contained evidence of the fixed point.
    Raises MaxStepsError carrying the partial trajectory when the budget
    runs out first.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    states = [x0.values]
    x = x0
    for k in range(max_steps + 1):
        x_next = stepper(x)
        if np.all(np.abs(x_next.values - x.values) <= stop_tol):
            states.append(x_next.values)
            return Trajectory(
                np.stack(states), np.arange(len(states), dtype=float), terminated_at=k
            )
        if k == max_steps:
            break
        states.append(x_next.values)
        x = x_next
    partial = Trajectory(np.stack(states), np.arange(len(states), dtype=float))
    raise MaxStepsError(f"no fixed point within {max_steps} steps", trajectory=partial)


def hk_energy(x: OpinionState, d: float) -> float:
    """Quadratic interaction energy sum_{i,j} min(|x_i - x_j|^2, d^2) over
    all ordered pairs; zero exactly at consensus, bounded by d^2 n (n-1)."""
    diff = x.values[:, None, :] - x.values[None, :, :]
    sq = (diff**2).sum(-1)
    return float(np.minimum(sq, d * d).sum())


def phi_energy(x: OpinionState, phi: PhiSpec) -> float:
    """Interaction energy sum_{i,j} Phi(|x_i - x_j|^2) with Phi the
    antiderivative of the weight function; non-increasing weights make this
    a Lyapunov function of the weighted step."""
    diff = x.values[:, None, :] - x.values[None, :, :]
    sq = (diff**2).sum(-1)
    n = x.n
    return float(sum(phi.potential(i, j, sq[i, j]) for i in range(n) for j in range(n)))


@dataclass(frozen=True)
class DChainPartition:
    """Maximal runs of sorted scalar opinions with consecutive gaps <= d.

    ``chains`` lists agent indices ordered by opinion value; chains are the
    connected components of the influence graph, separated by gaps > d.
    """

    chains: tuple[tuple[int, ...], ...]
    diameters: tuple[float, ...]
    d: float


def sorted_split(v: np.ndarray, tol: float):
    """Stable ascending order of scalar values, the consecutive gaps of the
    sorted values, and the gap positions that exceed tol: the runs split
    there are ``np.split(order, splits + 1)``."""
    order = np.argsort(v, kind="stable")
    gaps = np.diff(v[order])
    return order, gaps, np.flatnonzero(gaps > tol)


def d_chain_partition(x: OpinionState, d: float) -> DChainPartition:
    """Sort scalar opinions and split at gaps exceeding d."""
    if x.m != 1:
        raise ValueError("chains are defined for scalar opinions")
    if d <= 0:
        raise ValueError("confidence bound must be positive")
    v = x.flat
    order, _, splits = sorted_split(v, d)
    sorted_v = v[order]
    cuts = np.concatenate(([0], splits + 1, [x.n]))
    diameters = sorted_v[cuts[1:] - 1] - sorted_v[cuts[:-1]]
    chains = tuple(tuple(c.tolist()) for c in np.split(order, splits + 1))
    return DChainPartition(chains, tuple(diameters.tolist()), d)


def smooth_hk_simulate(
    x0: OpinionState, s: Callable[[float], float], t_end: float, dt: float | None = None
) -> Trajectory:
    """Continuous-time bounded-confidence flow with a smooth influence
    profile: dx_i/dt = sum_j s(x_j - x_i) (x_j - x_i) for scalar opinions,
    s even, continuous, and nonnegative. The even profile makes the
    coupling symmetric, so the mean opinion is conserved. Delegates to the
    Laplacian-flow integrator with the state-dependent matrix
    A(x)_ij = s(x_j - x_i)."""
    if x0.m != 1:
        raise ValueError("the smoothed model is defined for scalar opinions")

    def rule(t, state):
        v = state[:, 0]
        gap = v[None, :] - v[:, None]
        a = np.vectorize(s, otypes=[float])(gap)
        if np.any(a < 0):
            raise ValueError("influence profile must be nonnegative")
        np.fill_diagonal(a, 0.0)
        return a

    spec = WeightSpec.from_rule(KIND_NONNEGATIVE, rule, n=x0.n)
    return flow_simulate(spec, x0, t_end=t_end, dt=dt)
