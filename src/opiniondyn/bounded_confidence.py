"""Bounded-confidence opinion dynamics.

Agents average only the opinions inside their confidence set. The plain
model (synchronous averaging over symmetric confidence intervals) is
provided with every common confidence geometry: asymmetric and per-agent
interval bounds, shifted left endpoints, and norm balls for vector
opinions. Distance-weighted generalizations, truth-attracted and inertial
variants, chain analysis for scalar runs and the quadratic interaction
energy are included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .net_graph import _first_hit
from .state import MaxStepsError, OpinionState, Trajectory
from .state import _count, _frozen, _pairwise_sq, _unit_weights

__all__ = [
    "ConfidenceSpec",
    "PhiSpec",
    "DChainPartition",
    "hk_step",
    "phi_step",
    "truth_step",
    "inertial_step",
    "simulate_bc",
    "hk_energy",
    "d_chain_partition",
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
    ``per_agent(d_per_agent)`` (-d_i, d_i) and ``shifted(d, eta)``
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
    def per_agent(cls, d_per_agent, closed: bool = True) -> "ConfidenceSpec":
        """Symmetric intervals with an individual bound per agent."""
        bounds = tuple(float(b) for b in d_per_agent)
        return cls(lo=tuple(-b for b in bounds), hi=bounds, closed=closed)

    @classmethod
    def shifted(cls, d: float, eta, closed: bool = True) -> "ConfidenceSpec":
        """Intervals [x_i - d + eta_i, x_i + d] with 0 <= eta_i and max eta_i < d."""
        eta = tuple(float(e) for e in eta)
        if not eta:
            raise ValueError("eta must hold one shift per agent, got an empty list")
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
# Mask entries per float block of the scalar trust-set sums and of the
# signed-zero maximum in _masked_mean (1 MiB of float64).
_PRODUCT_ENTRIES = 2**17


def _product_blocks(n: int) -> list[slice]:
    """Row blocks of the scalar trust-set sums in ``_masked_mean``.

    Each block starts at a multiple of ``_BLOCK`` and holds about
    ``_PRODUCT_ENTRIES`` mask entries, at least ``_BLOCK`` rows, so n <= 353
    is one block. A lone last row joins the block before it.
    """
    size = max(_BLOCK, _PRODUCT_ENTRIES // n // _BLOCK * _BLOCK)
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


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


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise mean of the trusted opinions.

    Agents with identical trust sets receive bit-identical means (shared
    summation), and a row whose trusted opinions already coincide returns
    that value exactly, so collapsed groups are exact fixed points.

    Scalar opinions (m = 1) take ``mask @ values`` one ``_product_blocks``
    block at a time, so the float copy of the mask that the product needs is
    one block of about ``_PRODUCT_ENTRIES`` entries, never n x n. The sums
    keep the bits of the single product on one OpenBLAS thread, by two rules:

    - Every block starts at a multiple of 4. numpy sends a block of two or
      more rows to BLAS gemv, whose kernel takes rows four at a time and
      sums each row in the same order wherever it sits, as long as the
      groups of four line up with the single product's. Blocks that start
      at other rows change bits.
    - No block has one row unless n == 1. numpy sends a 1 x n block to BLAS
      dot, which sums in another order, so a lone last row joins the block
      before it.

    Unlike the single product, the sums do not depend on the OpenBLAS
    thread count for n < 14 400: OpenBLAS splits a gemv of 460 800 entries
    or more between threads, at rows that need not be a multiple of 4, and
    every block stays under that size. Vector opinions keep the single gemm
    call, because OpenBLAS's dgemm sums the row blocks of a large product
    (n of about 1000) in a different order.

    Row i is settled iff no trusted j has x_j != x_i in any dimension (the
    mask holds i itself); the test runs ``_BLOCK`` rows at a time with bool
    temporaries of O(_BLOCK * n). A settled row takes x_i. A settled row
    with a zero component instead takes the componentwise maximum over its
    trust set, as the earlier max == min test did: numpy's reduction picks
    which of +0.0 and -0.0 a mixed zero becomes. That maximum is exact, so
    it is taken over blocks of such rows of about ``_PRODUCT_ENTRIES``
    entries.
    """
    n, m = values.shape
    counts = mask.sum(axis=1)
    if m == 1:
        sums = np.empty((n, 1))
        for rows in _product_blocks(n):
            sums[rows] = mask[rows] @ values
    else:
        sums = mask @ values
    means = sums / counts[:, None]
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
        size = max(1, _PRODUCT_ENTRIES // (n * m))
        for start in range(0, zero.size, size):
            part = zero[start:start + size]
            trusted = np.where(mask[part, :, None], values[None, :, :], -np.inf)
            means[part] = trusted.max(axis=1)
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
    lam = _unit_weights(lam, x.n, "attraction weights")
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape[0] != x.m:
        raise ValueError("target must be a point in opinion space")
    if not np.all(np.isfinite(target)):
        raise ValueError(f"target must be finite, got {target.tolist()}")
    means = _masked_mean(x.values, trust_matrix(x, spec))
    return OpinionState(lam[:, None] * means + (1.0 - lam)[:, None] * target[None, :])


def inertial_step(x: OpinionState, lam, spec: ConfidenceSpec) -> OpinionState:
    """Bounded-confidence step with per-agent inertia.

    x_i' = (1 - lam_i) * x_i + lam_i * (trust-set mean); lam_i = 0 freezes
    the agent, lam_i = 1 recovers the plain step.
    """
    lam = _unit_weights(lam, x.n, "inertia weights")
    means = _masked_mean(x.values, trust_matrix(x, spec))
    return OpinionState((1.0 - lam)[:, None] * x.values + lam[:, None] * means)


# ---------------------------------------------------------------------------
# Distance-weighted averaging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """Distance-responsive interaction weights: one weight function ``phi``
    that maps an array of squared distances sigma to the weights
    phi(sigma) >= 0 elementwise, with phi(0) > 0 (the diagonal's sigma),
    scaled to w_j phi(sigma) by agent j's positive reputation when
    ``reputations`` w is given."""

    phi: Callable
    reputations: np.ndarray | None = None

    def __post_init__(self):
        if self.phi(0.0) <= 0:
            raise ValueError("phi(0) must be positive")
        if self.reputations is not None:
            w = _frozen(self.reputations)
            if w.ndim != 1:
                raise ValueError("reputations must be a vector")
            if not np.all(w > 0):  # "not > 0" rejects NaN too
                raise ValueError("reputations must be positive")
            object.__setattr__(self, "reputations", w)

    @property
    def n(self) -> int | None:
        return None if self.reputations is None else len(self.reputations)


def hk_indicator_phi(d: float) -> PhiSpec:
    """Weights reproducing the plain bounded-confidence step: the indicator
    of squared distances up to d^2."""
    if not d > 0:
        raise ValueError("confidence bound must be positive")
    dsq = d * d
    return PhiSpec(phi=lambda sigma: np.where(sigma <= dsq, 1.0, 0.0))


def heterophily_phi(a: float, b: float, d1: float, d2: float) -> PhiSpec:
    """Two-level weights attracting moderately distant opinions more than
    close ones: phi = a on [0, d1^2], b on (d1^2, d2^2), 0 beyond, with
    0 < a < b and 0 < d1 < d2."""
    if not (0 < a < b and 0 < d1 < d2):
        raise ValueError("need 0 < a < b and 0 < d1 < d2")
    s1, s2 = d1 * d1, d2 * d2
    return PhiSpec(phi=lambda sigma: np.where(sigma <= s1, a, np.where(sigma < s2, b, 0.0)))


def reputation_phi(w, d: float) -> PhiSpec:
    """Weights phi^{ij}(sigma) = w_j for sigma < d^2 (0 beyond): every agent
    inside the confidence ball counts with its own positive reputation w_j,
    as the indicator of sigma < d^2 scaled by w."""
    if not d > 0:
        raise ValueError("confidence bound must be positive")
    dsq = d * d
    return PhiSpec(phi=lambda sigma: np.where(sigma < dsq, 1.0, 0.0), reputations=w)


def _phi_weights(x: OpinionState, phi: PhiSpec) -> np.ndarray:
    """The n x n weights; ValueError at the row-major first weight that is
    negative or not finite."""
    if phi.n not in (None, x.n):
        raise ValueError("reputation count must match the agent count")
    sq = _pairwise_sq(x.values)
    w = np.array(phi.phi(sq), dtype=float)
    if phi.reputations is not None:  # a zero weight stays 0, also for w_j = inf
        np.multiply(w, phi.reputations, out=w, where=w != 0)
    hit = _first_hit(~np.isfinite(w) | (w < 0))
    if hit:
        raise ValueError(f"weight function returned {w[hit]} at sigma={sq[hit]}")
    return w


def phi_step(x: OpinionState, spec: PhiSpec) -> OpinionState:
    """Weighted-averaging step x_i' = sum_j phi_ij x_j / sum_j phi_ij with
    phi_ij from ``spec`` evaluated at the squared pairwise distance. With
    indicator weights this coincides with the plain bounded-confidence step."""
    w = _phi_weights(x, spec)
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
    runs out first, and ValueError for a NaN or negative stop_tol.
    """
    max_steps = _count("max_steps", max_steps, 1)
    if not stop_tol >= 0:
        raise ValueError(f"stop_tol must be nonnegative, got {stop_tol}")
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
    sq = _pairwise_sq(x.values)
    return float(np.minimum(sq, d * d).sum())


@dataclass(frozen=True)
class DChainPartition:
    """Maximal runs of sorted scalar opinions with consecutive gaps <= d.

    ``chains`` lists agent indices ordered by opinion value; chains are the
    connected components of the influence graph, separated by gaps > d.
    """

    chains: tuple[tuple[int, ...], ...]
    diameters: tuple[float, ...]


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
    if not d > 0:
        raise ValueError("confidence bound must be positive")
    v = x.flat
    order, _, splits = sorted_split(v, d)
    sorted_v = v[order]
    cuts = np.concatenate(([0], splits + 1, [x.n]))
    diameters = sorted_v[cuts[1:] - 1] - sorted_v[cuts[:-1]]
    chains = tuple(tuple(c.tolist()) for c in np.split(order, splits + 1))
    return DChainPartition(chains, tuple(diameters.tolist()))
