"""Linear averaging dynamics over static, scheduled, or state-dependent graphs.

Discrete-time recursions x(k+1) = W(k) x(k) with row-stochastic W (opinion
pooling) or with signed W whose moduli are row-stochastic (antagonistic
pooling), the continuous-time Laplacian flow dx/dt = -L[A(t, x)] x integrated
with classical fixed-step RK4 and its predicted limit on a static signed
graph, the prejudice-anchored averaging model with its fixed point, and an
executable check of the premises under which the discrete time-varying
recursion is known to converge.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .net_graph import SignedGraph, _first_hit, connectivity, gauge_from_balance
from .net_graph import signed_laplacian_matrix, structural_balance
from .state import (
    IntegrationError,
    NonConvergentError,
    OpinionState,
    Trajectory,
    UnstableError,
    _agents,
    _array,
    _count,
    _frozen,
    _instance,
    _iterable,
    _real,
    _reals,
    as_state_array,
)

__all__ = [
    "WeightSpec",
    "FJSpec",
    "PremiseReport",
    "BipartitePrediction",
    "simulate_discrete",
    "verify_convergence_premises",
    "fj_fixed_point",
    "flow_simulate",
    "predict_bipartite_consensus",
]

STOCHASTIC_TOL = 1e-9
_NULL_ITERS = 10000  # power iterations of left_null_vector
_NULL_RESIDUAL = 1e-12  # its early-stop target for |p^T L|_inf

KIND_STOCHASTIC = "stochastic"
KIND_NONNEGATIVE = "nonnegative"
KIND_SIGNED = "signed"
_KINDS = (KIND_STOCHASTIC, KIND_NONNEGATIVE, KIND_SIGNED)


def check_stochastic(matrix) -> np.ndarray:
    """The matrix as a float array, or ValueError unless it is square,
    finite, entrywise nonnegative and has row sums within STOCHASTIC_TOL
    of 1.

    A pass of a C-ordered matrix of at most 256 entries is remembered by its
    content (shape and bytes), so a schedule that repeats a few small
    matrices pays for each check once. What is accepted does not change: a
    matrix changed in place has new content and is checked again."""
    w = _array("matrix", matrix)
    if w.size <= _REMEMBERED_ENTRIES and w.flags.c_contiguous:
        if _remembered_pass(w.shape, w.tobytes()):
            return w
    elif _passes(w):
        return w
    w = _array("matrix", w, square=True, finite=True)
    if np.any(w < 0):
        raise ValueError("stochastic matrix must be entrywise nonnegative")
    rows = w.sum(axis=1)
    if not np.all(np.abs(rows - 1.0) <= STOCHASTIC_TOL):
        raise ValueError(f"row sums deviate from 1 by more than {STOCHASTIC_TOL}: {rows}")
    return w


# Above this many entries tobytes would copy a matrix whose check is already
# a few passes over it, so larger passes are not remembered.
_REMEMBERED_ENTRIES = 256


def _passes(w: np.ndarray) -> bool:
    """Whether check_stochastic accepts the float array w in one pass. A NaN
    or -inf entry fails the min test, and a +inf entry makes its row sum fail
    the tolerance test. Input that fails here meets check_stochastic's full
    checks, which word the error."""
    return bool(w.ndim == 2 and w.shape[0] == w.shape[1] and w.size and w.min() >= 0
                and np.abs(w.sum(axis=1) - 1.0).max() <= STOCHASTIC_TOL)


@functools.lru_cache(maxsize=64)
def _remembered_pass(shape: tuple, data: bytes) -> bool:
    """_passes for the C-ordered float64 matrix of this shape and content
    (C order, since the row sums of another layout may round differently)."""
    return _passes(np.frombuffer(data).reshape(shape))


def check_signed_row_stochastic(matrix) -> np.ndarray:
    """Signed one-step matrix: |entries| sum to 1 per row within
    STOCHASTIC_TOL, nonnegative diagonal."""
    w = _array("matrix", matrix, square=True, finite=True)
    rows = np.abs(w).sum(axis=1)
    if not np.all(np.abs(rows - 1.0) <= STOCHASTIC_TOL):
        raise ValueError(f"modulus row sums deviate from 1 by more than {STOCHASTIC_TOL}: {rows}")
    if np.any(np.diag(w) < 0):
        raise ValueError("diagonal entries must be nonnegative")
    return w


@dataclass(frozen=True)
class WeightSpec:
    """Coupling-matrix source for the averaging dynamics.

    kind:
      * "stochastic"  -- rows sum to 1, entries >= 0;
      * "nonnegative" -- entries >= 0 (continuous-time contact rates);
      * "signed"      -- entries of any sign. When such a spec drives the
        discrete recursion, each applied matrix must additionally have
        modulus row sums equal to 1 and a nonnegative diagonal; this is
        checked at simulation time since continuous-time flows place no such
        restriction.

    Exactly one provider is set: a constant matrix, a finite piecewise
    schedule of (until, matrix) pairs (matrix active while t < until), or a
    rule (t, x) -> matrix for state-dependent couplings. A matrix or schedule
    is validated once into ``_segments``, a matrix as the one (inf, matrix).
    """

    kind: str
    matrix: np.ndarray | None = None
    schedule: tuple | None = None  # ((until, matrix), ...) with increasing until
    rule: Callable | None = None
    n: int | None = None
    _segments: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if sum(p is not None for p in (self.matrix, self.schedule, self.rule)) != 1:
            raise ValueError("exactly one of matrix, schedule, rule must be given")
        n = None if self.n is None else _count("n", self.n, 1)
        if self.rule is not None:
            _instance("rule", self.rule, Callable)
            if n is None:
                raise ValueError("rule provider requires the agent count n")
            object.__setattr__(self, "n", n)
            return
        segments, prev = [], -math.inf
        for until, mat in self.schedule if self.matrix is None else [(math.inf, self.matrix)]:
            until = _real("until", until)
            if not until > prev:  # also rejects NaN
                raise ValueError("schedule breakpoints must be strictly increasing")
            prev = until
            w = _frozen(self._validated(mat))
            if segments and w.shape[0] != segments[0][1].shape[0]:
                raise ValueError("all scheduled matrices must share one size")
            segments.append((until, w))
        if not segments:
            raise ValueError("schedule must be nonempty")
        _agents("n", n, w.shape[0])
        object.__setattr__(self, "_segments", tuple(segments))
        object.__setattr__(self, "n", w.shape[0])
        if self.matrix is not None:
            object.__setattr__(self, "matrix", w)
        else:
            object.__setattr__(self, "schedule", self._segments)

    def _validated(self, mat) -> np.ndarray:
        if self.kind == KIND_STOCHASTIC:
            return check_stochastic(mat)
        w = _array("matrix", mat, square=True, finite=True)
        if self.kind == KIND_NONNEGATIVE and np.any(w < 0):
            raise ValueError("nonnegative spec has negative entries")
        return w

    @classmethod
    def constant(cls, kind: str, matrix) -> "WeightSpec":
        return cls(kind=kind, matrix=matrix)

    @classmethod
    def from_rule(cls, kind: str, rule: Callable, n: int) -> "WeightSpec":
        return cls(kind=kind, rule=rule, n=n)

    @property
    def is_constant(self) -> bool:
        return self.matrix is not None

    def matrix_at(self, t: float, x: np.ndarray | None = None) -> np.ndarray:
        """Active coupling matrix at time/step t (state x for rule providers);
        a rule's matrix is validated and matched to the agent count ``n``."""
        for until, mat in self._segments:
            if t < until:
                return mat
        if self.rule is not None:
            w = self._validated(self.rule(t, x))
            _agents("rule matrix", len(w), self.n)
            return w
        return self._segments[-1][1]


@dataclass(frozen=True)
class FJSpec:
    """Prejudice-anchored averaging: x(k+1) = diag(lam) W x(k) + (I - diag(lam)) u.

    lam holds per-agent susceptibilities in [0, 1]; u is the prejudice vector
    (the initial opinions). Fixed-point operations additionally require the
    iteration matrix diag(lam) W to be Schur stable.
    """

    lam: np.ndarray
    w: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        w = check_stochastic(self.w)
        u = as_state_array(self.u, "u")
        lam = _reals("lam", self.lam, "[0, 1]")
        _agents("lam", len(lam), w.shape[0])
        _agents("u", u.shape[0], w.shape[0])
        for name, arr in (("lam", lam), ("w", w), ("u", u)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def n(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class PremiseReport:
    """Outcome of a premise check; violation is None on pass, otherwise a
    short machine-readable description of the first failure found."""

    passed: bool
    violation: dict | None = None


def simulate_discrete(spec: WeightSpec, x0: OpinionState, steps: int) -> Trajectory:
    """Iterate x(k+1) = W(k) x(k) for a stochastic or signed spec.

    Signed matrices are applied as-is; each one must have row-stochastic
    moduli and nonnegative diagonal. For a constant matrix the run stops
    early at an exact fixed point (time-varying schedules are run to the
    horizon, since a momentary fixed point need not persist).
    """
    if _instance("spec", spec, WeightSpec).kind == KIND_NONNEGATIVE:
        raise ValueError("discrete iteration takes a stochastic or signed spec")
    steps = _count("steps", steps, 0)
    _agents("spec", spec.n, _instance("x0", x0, OpinionState).n)
    signed = spec.kind == KIND_SIGNED
    check = check_signed_row_stochastic if signed else check_stochastic
    for _, mat in spec._segments:
        check(mat)

    x = x0.values
    states = [x]
    terminated_at = None
    for k in range(steps):
        w = spec.matrix_at(k, x)
        if signed and spec.rule is not None:
            # matrix_at already checked a stochastic rule's matrix
            check(w)
        x_next = w @ x
        states.append(x_next)
        if spec.is_constant and np.array_equal(x_next, x):
            terminated_at = k
            break
        x = x_next
    return Trajectory(
        np.stack(states),
        np.arange(len(states), dtype=float),
        terminated_at=terminated_at,
    )


def verify_convergence_premises(matrices: Iterable[np.ndarray], delta: float) -> PremiseReport:
    """Check the classical sufficient conditions for convergence of the
    time-varying averaging recursion on a finite matrix sequence:

      (a) every entry is 0 or lies in [delta, 1]  (non-vanishing couplings);
      (b) every diagonal entry is >= delta        (self-confidence);
      (c) w_ij > 0 iff w_ji > 0                   (reciprocal interaction).

    Returns the first violation found, scanning steps in order and entries
    in ascending row-major order.
    """
    delta = _real("delta", delta, "(0, 1]")
    for k, mat in enumerate(_iterable("matrices", matrices)):
        w = check_stochastic(mat)
        hit = _first_hit(np.diag(w) < delta)
        if hit:
            (i,) = hit
            return PremiseReport(
                False,
                {"condition": "self_confidence", "step": k, "agent": i, "value": w[i, i]},
            )
        hit = _first_hit((w != 0.0) & ~((delta <= w) & (w <= 1.0)))
        if hit:
            i, j = hit
            return PremiseReport(
                False,
                {"condition": "non_vanishing", "step": k, "i": i, "j": j, "value": w[i, j]},
            )
        hit = _first_hit(np.triu((w > 0) != (w > 0).T, 1))
        if hit:
            i, j = hit
            return PremiseReport(False, {"condition": "reciprocity", "step": k, "i": i, "j": j})
    return PremiseReport(True)


def fj_fixed_point(spec: FJSpec) -> OpinionState:
    """Steady opinions of the prejudice-anchored model: the solution of
    (I - diag(lam) W) xbar = (I - diag(lam)) u.

    diag(lam) W is Schur stable iff every agent is stubborn (lam_i < 1) or
    reaches a stubborn agent along arcs i -> j with w_ij > 0 (Parsegov,
    Proskurnikov, Tempo & Friedkin, IEEE TAC 2017); UnstableError is raised
    otherwise.
    """
    reach = _instance("spec", spec, FJSpec).lam < 1
    frontier = reach
    while frontier.any():
        frontier = (spec.w[:, frontier] > 0).any(axis=1) & ~reach
        reach = reach | frontier
    if not reach.all():
        raise UnstableError("spectral radius of diag(lam) W is not strictly below 1")
    lw = spec.lam[:, None] * spec.w
    rhs = (1.0 - spec.lam)[:, None] * spec.u
    xbar = np.linalg.solve(np.eye(spec.n) - lw, rhs)
    return OpinionState(xbar)


def default_flow_step(matrix) -> float:
    """Default integrator step: 0.01 / (1 + max modulus row sum)."""
    return 0.01 / (1.0 + float(np.abs(matrix).sum(axis=1).max()))


def flow_simulate(
    spec: WeightSpec,
    x0: OpinionState,
    t_end: float = 30.0,
    dt: float | None = None,
) -> Trajectory:
    """Integrate dx/dt = -L[A(t, x)] x with classical fixed-step RK4 up to
    time t_end.

    A(t, x) comes from the spec (nonnegative for cooperative flows, signed
    for antagonistic ones, or a state-dependent rule); L is the signed
    Laplacian, which reduces to the conventional one on nonnegative
    matrices. The step defaults to 0.01 / (1 + max modulus row sum of the
    initial matrix) and is then shrunk minimally so the horizon is an exact
    multiple; every step is recorded. ``t_end`` and ``dt`` are real
    numbers (``state._real``); ``dt=None`` is the default step.

    Each stage computes -(L y) as L y and then its negation (not as
    (-L) y, which turns an exact -0.0 into +0.0), into one of four
    preallocated stage buffers; stage inputs go to a fifth, and each
    new state is written straight into the trajectory. The operations and
    their order are those of x + (h/6) (((k1 + 2 k2) + 2 k3) + k4) with
    fresh arrays, so every bit is the same. A constant or scheduled
    matrix's Laplacian is built once; a rule's at every stage. Aborts with
    IntegrationError on a non-finite state, tested after every step
    (numpy's overflow warnings on the way there are silenced); ValueError
    when the steps do not fit in memory.
    """
    t_end = _real("t_end", t_end, "(0, inf)")
    _agents("spec", _instance("spec", spec, WeightSpec).n, _instance("x0", x0, OpinionState).n)
    x = x0.values
    dt = default_flow_step(spec.matrix_at(0.0, x)) if dt is None else _real("dt", dt, "(0, inf]")
    n_steps = t_end / dt - 1e-12  # inf when the ratio overflows
    try:
        n_steps = max(1, math.ceil(n_steps))
        states = np.empty((n_steps + 1,) + x.shape)
    except (OverflowError, MemoryError, ValueError) as exc:  # numpy: "array is too big"
        raise ValueError(f"t_end={t_end} with dt={dt} takes {n_steps} steps, "
                         "too many states to hold in memory") from exc
    h = t_end / n_steps

    laplacians = {}  # a constant or scheduled matrix's Laplacian, by id

    def rhs(t, state, out):
        """out = -(L state) for the Laplacian L active at (t, state)."""
        a = spec.matrix_at(t, state)
        if spec.rule is not None:
            lap = signed_laplacian_matrix(a)
        else:
            lap = laplacians.get(id(a))
            if lap is None:
                lap = laplacians[id(a)] = signed_laplacian_matrix(a)
        np.negative(np.matmul(lap, state, out), out)

    states[0] = x
    x = states[0]
    k1, k2, k3, k4, y = (np.empty_like(x) for _ in range(5))
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            rhs(t, x, k1)
            np.add(x, np.multiply(k1, h / 2, y), y)
            rhs(t + h / 2, y, k2)
            np.add(x, np.multiply(k2, h / 2, y), y)
            rhs(t + h / 2, y, k3)
            np.add(x, np.multiply(k3, h, y), y)
            rhs(t + h, y, k4)
            # x + (h / 6) * (((k1 + 2 k2) + 2 k3) + k4)
            np.add(k1, np.multiply(k2, 2.0, k2), k1)
            np.add(k1, np.multiply(k3, 2.0, k3), k1)
            np.add(k1, k4, k1)
            x = np.add(x, np.multiply(k1, h / 6, k1), states[k + 1])
            t = (k + 1) * h
            if not np.isfinite(x).all():
                raise IntegrationError(
                    f"non-finite state at step {k + 1} (t={t:.6g}); reduce dt", step=k + 1, time=t
                )
    stamps = np.arange(n_steps + 1) * h
    return Trajectory(states, stamps)


def left_null_vector(lap: np.ndarray) -> np.ndarray:
    """Normalized nonnegative left null vector of a (nonnegative-graph)
    Laplacian, by at most _NULL_ITERS steps of power iteration on the
    transpose of I - L / (1 + max diagonal). Stops early once the residual
    |p^T L|_inf drops below _NULL_RESIDUAL."""
    n = lap.shape[0]
    scale = 1.0 + float(np.max(np.diag(lap)))
    b = (np.eye(n) - lap / scale).T
    p = np.full(n, 1.0 / n)
    for _ in range(_NULL_ITERS):
        p = b @ p
        p = np.abs(p)
        s = p.sum()
        if s == 0:
            raise NonConvergentError("left null vector iteration collapsed to zero")
        p /= s
        if np.max(np.abs(p @ lap)) < _NULL_RESIDUAL:
            break
    return p


@dataclass(frozen=True)
class BipartitePrediction:
    """Predicted limit of the antagonistic flow on a static signed graph.

    kind is "polarized" (balanced graph with a spanning tree: two camps at
    opposite values), "zero" (strongly connected imbalanced graph: all
    opinions decay), or "unsupported" (reducible imbalanced cases, whose
    cluster structure this library only simulates).
    """

    kind: str
    values: np.ndarray | None = None  # (n, m) predicted limits
    camps: tuple | None = None


def predict_bipartite_consensus(g: SignedGraph, x0: OpinionState) -> BipartitePrediction:
    """Predict the limit of dx/dt = -L[A] x on a static signed graph.

    Balanced with a spanning tree: gauge to the absolute-value graph, take
    its normalized left null vector p, and return the polarized profile
    +/- (delta p)^T x0 on the two camps. Strongly connected and imbalanced:
    the zero state. Anything else: unsupported.
    """
    _agents("g", _instance("g", g, SignedGraph).n, _instance("x0", x0, OpinionState).n)
    balance = structural_balance(g)
    conn = connectivity(g)
    if balance.balanced and conn.has_spanning_tree:
        delta = gauge_from_balance(balance, g.n).diagonal
        lap_abs = signed_laplacian_matrix(np.abs(g.weights))
        p = left_null_vector(lap_abs)
        w = delta * p
        value = w @ x0.values  # (m,)
        values = delta[:, None] * value[None, :]
        return BipartitePrediction(kind="polarized", values=values, camps=balance.camps)
    if conn.strongly_connected and not balance.balanced:
        return BipartitePrediction(kind="zero", values=np.zeros_like(x0.values))
    return BipartitePrediction(kind="unsupported")
