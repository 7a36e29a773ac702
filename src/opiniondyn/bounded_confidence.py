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
from .state import _BLOCK, _NORMS, _array, _bound, _count, _distance_blocks, _distances, _frozen
from .state import _agents, _instance, _real, _reals, _unit_weights

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
    (<) boundary membership; non-strict is the default. ``n``, a per-agent
    tuple's length (None for shared bounds), must match the state's.
    """

    lo: float | tuple | None
    hi: float | tuple
    closed: bool = True
    norm: str = "euclidean"

    def __post_init__(self):
        if self.norm not in _NORMS:
            raise ValueError(f"norm must be one of {sorted(_NORMS)}")
        lo = None if self.lo is None else _bound("lo", self.lo)  # a norm ball has no lo
        hi = _bound("hi", self.hi)
        # "not > 0" rather than "<= 0", so that a NaN bound is rejected too
        if not np.all(hi > 0) or (lo is not None and not np.all(lo < 0)):
            raise ValueError("confidence bounds must be positive")
        if isinstance(lo, np.ndarray) and isinstance(hi, np.ndarray) and lo.size != hi.size:
            raise ValueError("left and right bound lists must have equal length")
        object.__setattr__(self, "lo", tuple(lo.tolist()) if isinstance(lo, np.ndarray) else lo)
        object.__setattr__(self, "hi", tuple(hi.tolist()) if isinstance(hi, np.ndarray) else hi)

    @property
    def variant(self) -> str:
        """``"interval"`` for a scalar trust window, ``"norm_ball"`` otherwise."""
        return "interval" if self.lo is not None else "norm_ball"

    @property
    def n(self) -> int | None:
        """The agent count of per-agent bounds; None for shared ones."""
        return next((len(b) for b in (self.lo, self.hi) if isinstance(b, tuple)), None)

    @classmethod
    def symmetric(cls, d: float, closed: bool = True) -> "ConfidenceSpec":
        """Trust all opinions within distance d of one's own."""
        d = _real("d", d)
        return cls(lo=-d, hi=d, closed=closed)

    @classmethod
    def asymmetric(cls, d_left: float, d_right: float, closed: bool = True) -> "ConfidenceSpec":
        """Trust opinions in [x_i - d_left, x_i + d_right]."""
        return cls(lo=-_real("d_left", d_left), hi=_real("d_right", d_right), closed=closed)

    @classmethod
    def per_agent(cls, d_per_agent, closed: bool = True) -> "ConfidenceSpec":
        """Symmetric intervals with an individual bound per agent."""
        bounds = _reals("d_per_agent", d_per_agent)
        return cls(lo=-bounds, hi=bounds, closed=closed)

    @classmethod
    def shifted(cls, d: float, eta, closed: bool = True) -> "ConfidenceSpec":
        """Intervals [x_i - d + eta_i, x_i + d] with 0 <= eta_i and max eta_i < d."""
        d, eta = _real("d", d), _reals("eta", eta)
        # a bound d <= 0 is left to the positivity check
        if not d <= 0 and (np.any(eta < 0) or eta.max() >= d):
            raise ValueError("shifts must satisfy 0 <= eta_i and max eta_i < d")
        return cls(lo=-d + eta, hi=d, closed=closed)

    @classmethod
    def norm_ball(cls, d, norm: str = "euclidean", closed: bool = True) -> "ConfidenceSpec":
        """Trust within a norm ball of radius d (scalar) or d_i (per agent)."""
        return cls(lo=None, hi=_bound("d", d), closed=closed, norm=norm)


# Mask entries per float block of the scalar trust-set sums and of the
# signed-zero maximum in _mean (1 MiB of float64).
_PRODUCT_ENTRIES = 2**17


def _product_blocks(n: int) -> list[slice]:
    """Row blocks of the scalar trust-set sums in ``_mean``.

    Each block starts at a multiple of ``_BLOCK`` and holds about
    ``_PRODUCT_ENTRIES`` mask entries, at least ``_BLOCK`` rows, so n <= 353
    is one block. A lone last row joins the block before it.
    """
    size = max(_BLOCK, _PRODUCT_ENTRIES // n // _BLOCK * _BLOCK)
    if n <= size + 1:
        return [slice(0, n)]
    starts = list(range(0, n, size))
    if n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def _window_ends(s: np.ndarray, v: np.ndarray, bound, strict: bool) -> np.ndarray:
    """Per agent i, how many sorted opinions s_k have the rounded gap
    fl(s_k - x_i) below ``bound_i`` (``<`` if ``strict``, else ``<=``).

    The rounded gap is monotone in s_k, so those opinions are the first ones
    of s and the count is where agent i's trust window starts or stops. The
    search starts from ``searchsorted`` of x_i + bound_i, which can land a
    few values off, and moves each guess over whole runs of tied values
    until the gap test holds just below it and fails at it, so the rounds
    are bounded by the distinct values crossed, not by the ties.
    """
    below = np.less if strict else np.less_equal
    n = s.size
    k = np.searchsorted(s, v + bound, "left" if strict else "right")
    while True:
        up = (k < n) & below(s[np.minimum(k, n - 1)] - v, bound)
        down = (k > 0) & ~below(s[k - 1] - v, bound)
        if not (up.any() or down.any()):
            return k
        k[up] = np.searchsorted(s, s[k[up]], "right")
        k[down] = np.searchsorted(s, s[k[down] - 1], "left")


def _windows(x: OpinionState, spec: ConfidenceSpec):
    """The interval trust sets as windows of the sorted opinions, for every
    interval step at every agent count.

    Returns (low, high, count): agent i trusts agent j iff
    low_i <= x_j <= high_i, and it trusts count_i agents. Window i is the
    run of sorted opinions s_k with lo_i <= fl(s_k - x_i) <= hi_i (``<`` for
    open bounds): one sort and two ``_window_ends`` searches, no n x n
    pass. The value bounds hold every tie of the end values and x_i itself,
    so they select exactly the agents of the dense gap test, also where a
    gap overflows to an infinity.
    """
    if x.m != 1:
        raise ValueError("interval confidence variants require scalar opinions")
    _agents("spec", spec.n, x.n)
    v = x.flat
    s = np.sort(v)
    with np.errstate(over="ignore"):  # an overflowing guess or gap is in order as an infinity
        first = _window_ends(s, v, np.asarray(spec.lo), spec.closed)
        stop = _window_ends(s, v, np.asarray(spec.hi), not spec.closed)
    return s[first], s[stop - 1], stop - first


def _mean(values: np.ndarray, trusted: Callable, counts: np.ndarray,
          settled: np.ndarray) -> np.ndarray:
    """Row-wise mean of the trusted opinions.

    ``trusted(rows)`` is the bool trust mask of a slice or an index array of
    rows, ``counts`` the size of each trust set, and ``settled`` marks the
    rows whose trusted opinions all equal their own (the set holds i
    itself). Agents with identical trust sets receive bit-identical means
    (shared summation), and a settled row returns its value exactly, so
    collapsed groups are exact fixed points.

    Scalar opinions (m = 1) take ``trusted(rows) @ values`` one
    ``_product_blocks`` block at a time, so the float copy of the mask that
    the product needs is one block of about ``_PRODUCT_ENTRIES`` entries,
    never n x n. The sums keep the bits of the single product on one
    OpenBLAS thread, by two rules:

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

    A settled row takes x_i. A settled row with a zero component instead
    takes the componentwise maximum over its trust set, as the earlier
    max == min test did: numpy's reduction picks which of +0.0 and -0.0 a
    mixed zero becomes. That maximum is exact, so it is taken over blocks
    of such rows of about ``_PRODUCT_ENTRIES`` entries. A row whose sum
    overflows (or is NaN, from BLAS's separate partial sums) is taken again
    by ``_finite_means``.
    """
    n, m = values.shape
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_means retakes such a row
        if m == 1:
            sums = np.empty((n, 1))
            for rows in _product_blocks(n):
                sums[rows] = trusted(rows) @ values
        else:
            sums = trusted(slice(None)) @ values
    means = sums / counts[:, None]
    if settled.any():
        means[settled] = values[settled]
        zero = np.flatnonzero(settled & (values == 0).any(axis=1))
        for part in _row_parts(zero, n * m):
            trust = np.where(trusted(part)[:, :, None], values[None, :, :], -np.inf)
            means[part] = trust.max(axis=1)
    return _finite_means(means, np.isfinite(means), values,
                         lambda rows, scaled: (trusted(rows) @ scaled) / counts[rows, None])


def _row_parts(rows: np.ndarray, entries: int) -> list:
    """An index array of rows, in parts of about ``_PRODUCT_ENTRIES`` entries
    at ``entries`` a row."""
    size = max(1, _PRODUCT_ENTRIES // entries)
    return [rows[start:start + size] for start in range(0, rows.size, size)]


def _finite_means(means: np.ndarray, finite: np.ndarray, values: np.ndarray,
                  mean_of: Callable) -> np.ndarray:
    """``means``, each a mean of rows of the (n, m) opinions ``values``, with
    every row that holds an entry not ``finite`` taken again.

    A mean of finite opinions is finite, but their sum can overflow. The
    retaken rows are mean_of(rows, values * 2**-k) * 2**k, with 2**k > n, so
    no sum of n scaled opinions overflows; both scalings are exact unless an
    opinion falls below the normal range, and every other row keeps its
    bits. One ``isfinite`` pass when no row overflows.
    """
    if finite.all():
        return means
    k = len(values).bit_length()
    scaled = np.ldexp(values, -k)
    for part in _row_parts(np.flatnonzero(~finite.all(axis=1)), values.size):
        means[part] = np.ldexp(mean_of(part, scaled), k)
    return means


def _trust(x: OpinionState, spec: ConfidenceSpec) -> tuple[Callable, np.ndarray, np.ndarray]:
    """Every agent's trust set, as ``_mean`` reads it: (trusted, counts,
    settled), ``trusted(rows)`` the bool mask of a slice or an index array
    of rows, ``counts`` each set's size and ``settled`` the rows whose
    trusted opinions all equal their own.

    An interval's mask is built a block at a time from the ``_windows``
    value bounds: the same 0/1 operand as the dense gap test, with the
    counts and the settled rows (low == high) read off the windows. A norm
    ball's mask is built whole from ``state._distance_blocks``, with
    O(_BLOCK * n) temporaries besides it: agent i trusts agent j iff
    ||x_j - x_i|| <= hi_i (``<`` for open balls), and a row is settled when
    its trusted distances are all 0, as the kernel's rescale makes them
    only for equal opinions.
    """
    n = _instance("x", x, OpinionState).n
    _instance("spec", spec, ConfidenceSpec)
    if spec.lo is not None:
        low, high, counts = _windows(x, spec)
        v = x.flat
        return (lambda rows: (v >= low[rows, None]) & (v <= high[rows, None])), counts, low == high
    _agents("spec", spec.n, n)
    inside = np.less_equal if spec.closed else np.less
    mask, settled = np.empty((n, n), dtype=bool), np.empty(n, dtype=bool)
    hi = np.empty((n, 1))
    hi[:, 0] = spec.hi  # the radii as a column
    for rows, distance in _distance_blocks(x.values, spec.norm):
        inside(distance, hi[rows], out=mask[rows])
        settled[rows] = ~(mask[rows] & (distance != 0)).any(axis=1)
    return mask.__getitem__, mask.sum(axis=1), settled


def trust_matrix(x: OpinionState, spec: ConfidenceSpec) -> np.ndarray:
    """Boolean (n, n) trust mask of either geometry, the model's influence
    graph: entry (i, j) True iff agent i trusts agent j, as ``_trust`` reads
    it. Row i is agent i's trust set; the diagonal is True."""
    return _trust(x, spec)[0](slice(None))


def _trust_means(x: OpinionState, spec: ConfidenceSpec) -> np.ndarray:
    """Each agent's trust-set mean, as an (n, m) array."""
    trust = _trust(x, spec)  # which checks x before x.values is read
    return _mean(x.values, *trust)


def hk_step(x: OpinionState, spec: ConfidenceSpec) -> OpinionState:
    """One synchronous step: every opinion moves to the mean of its trust set.

    Equivalent to time-varying averaging with the state-dependent matrix
    whose rows are uniform over the trust sets.
    """
    return OpinionState(_trust_means(x, spec))


def truth_step(x: OpinionState, lam: np.ndarray, target: np.ndarray,
               spec: ConfidenceSpec) -> OpinionState:
    """Bounded-confidence step with attraction toward an external opinion.

    x_i' = lam_i * (trust-set mean) + (1 - lam_i) * target. Agents with
    lam_i = 1 behave as plain bounded-confidence agents; lam_i = 0 jumps to
    the target in one step.
    """
    means = _trust_means(x, spec)
    lam = _unit_weights(lam, x.n, "attraction weights")
    target = _array("target", target, finite=True).reshape(-1)
    if target.shape[0] != x.m:
        raise ValueError("target must be a point in opinion space")
    return OpinionState(lam[:, None] * means + (1.0 - lam)[:, None] * target[None, :])


def inertial_step(x: OpinionState, lam: np.ndarray, spec: ConfidenceSpec) -> OpinionState:
    """Bounded-confidence step with per-agent inertia.

    x_i' = (1 - lam_i) * x_i + lam_i * (trust-set mean); lam_i = 0 freezes
    the agent, lam_i = 1 recovers the plain step.
    """
    means = _trust_means(x, spec)
    lam = _unit_weights(lam, x.n, "inertia weights")
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
        if not callable(self.phi):
            raise ValueError(f"phi must be callable, got {self.phi!r}")
        if self.phi(0.0) <= 0:
            raise ValueError("phi(0) must be positive")
        if self.reputations is not None:
            w = _frozen(_array("reputations", self.reputations))
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
    d = _real("confidence bound", d, "positive")
    dsq = d * d
    return PhiSpec(phi=lambda sigma: np.where(sigma <= dsq, 1.0, 0.0))


def heterophily_phi(a: float, b: float, d1: float, d2: float) -> PhiSpec:
    """Two-level weights attracting moderately distant opinions more than
    close ones: phi = a on [0, d1^2], b on (d1^2, d2^2), 0 beyond, with
    0 < a < b and 0 < d1 < d2."""
    a, b, d1, d2 = _real("a", a), _real("b", b), _real("d1", d1), _real("d2", d2)
    if not (0 < a < b and 0 < d1 < d2):
        raise ValueError(f"need 0 < a < b and 0 < d1 < d2, got a={a}, b={b}, d1={d1}, d2={d2}")
    s1, s2 = d1 * d1, d2 * d2
    return PhiSpec(phi=lambda sigma: np.where(sigma <= s1, a, np.where(sigma < s2, b, 0.0)))


def reputation_phi(w: np.ndarray, d: float) -> PhiSpec:
    """Weights phi^{ij}(sigma) = w_j for sigma < d^2 (0 beyond): every agent
    inside the confidence ball counts with its own positive reputation w_j,
    as the indicator of sigma < d^2 scaled by w."""
    d = _real("confidence bound", d, "positive")
    dsq = d * d
    return PhiSpec(phi=lambda sigma: np.where(sigma < dsq, 1.0, 0.0), reputations=w)


def _phi_weights(x: OpinionState, phi: PhiSpec) -> np.ndarray:
    """The n x n weights; ValueError at the row-major first weight that is
    negative or not finite."""
    _agents("reputations", phi.n, x.n)
    sq = _distances(x.values, "squared")
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
    indicator weights this coincides with the plain bounded-confidence step.
    A row whose weighted sum or weight sum overflows is taken again by
    ``_finite_means``, with its weights scaled below 1 by a power of two."""
    w = _phi_weights(_instance("x", x, OpinionState), _instance("spec", spec, PhiSpec))
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_means retakes such a row
        denom = w.sum(axis=1)
        if np.any(denom <= 0):
            raise ValueError("a row of interaction weights summed to zero")
        means = (w @ x.values) / denom[:, None]

    def mean_of(rows, scaled):  # each row's weights below 1, scaled by a power of two
        weights = np.ldexp(w[rows], -np.frexp(w[rows].max(axis=1, keepdims=True))[1])
        return (weights @ scaled) / weights.sum(axis=1, keepdims=True)

    return OpinionState(_finite_means(means, np.isfinite(means) & np.isfinite(denom)[:, None],
                                      x.values, mean_of))


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
    runs out first, and ValueError unless stepper is callable, stop_tol
    is a nonnegative real number (``state._real``) and every stepper result
    is an OpinionState of x0's agents and dimensions. A change that
    overflows counts as an infinity, without a warning.
    """
    if not callable(stepper):
        raise ValueError(f"stepper must be callable, got {stepper!r}")
    max_steps = _count("max_steps", max_steps, 1)
    stop_tol = _real("stop_tol", stop_tol, "nonnegative")
    states = [_instance("x0", x0, OpinionState).values]
    x = x0
    for k in range(max_steps + 1):
        x_next = _instance("stepper result", stepper(x), OpinionState)
        if x_next.values.shape != x.values.shape:
            _agents("stepper result", x_next.n, x.n)
            raise ValueError(f"stepper result has {x_next.m} dimensions, not {x.m}")
        with np.errstate(over="ignore"):
            settled = np.all(np.abs(x_next.values - x.values) <= stop_tol)
        if settled:
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
    d = _real("confidence bound", d, "positive")
    sq = _distances(_instance("x", x, OpinionState).values, "squared")
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
    with np.errstate(over="ignore"):  # an overflowing gap is an infinity
        gaps = np.diff(v[order])
    return order, gaps, np.flatnonzero(gaps > tol)


def d_chain_partition(x: OpinionState, d: float) -> DChainPartition:
    """Sort scalar opinions and split at gaps exceeding d."""
    if _instance("x", x, OpinionState).m != 1:
        raise ValueError("chains are defined for scalar opinions")
    d = _real("confidence bound", d, "positive")
    v = x.flat
    order, _, splits = sorted_split(v, d)
    sorted_v = v[order]
    cuts = np.concatenate(([0], splits + 1, [x.n]))
    with np.errstate(over="ignore"):  # an overflowing diameter is an infinity
        diameters = sorted_v[cuts[1:] - 1] - sorted_v[cuts[:-1]]
    chains = tuple(tuple(c.tolist()) for c in np.split(order, splits + 1))
    return DChainPartition(chains, tuple(diameters.tolist()))
