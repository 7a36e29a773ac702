"""Linear averaging dynamics over static, scheduled, or state-dependent graphs.

Discrete-time recursions x(k+1) = W(k) x(k) with row-stochastic W (opinion
pooling) or with signed W whose moduli are row-stochastic (antagonistic
pooling), the continuous-time Laplacian flow dx/dt = -L[A(t, x)] x integrated
with classical fixed-step RK4, the prejudice-anchored averaging model with
its fixed point, and executable checks for the premises under which the
time-varying recursion is known to converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .net_graph import SignedGraph, connectivity, gauge_from_balance
from .net_graph import signed_laplacian_matrix, structural_balance
from .state import (
    IntegrationError,
    NonConvergentError,
    OpinionState,
    Trajectory,
    UnstableError,
    as_state_array,
)

__all__ = [
    "WeightSpec",
    "FJSpec",
    "PremiseReport",
    "BipartitePrediction",
    "degroot_step",
    "simulate_discrete",
    "matrix_product_limit",
    "verify_convergence_premises",
    "verify_uqsc",
    "fj_fixed_point",
    "flow_simulate",
    "predict_bipartite_consensus",
    "check_type_symmetry",
    "left_null_vector",
]

STOCHASTIC_TOL = 1e-9

KIND_STOCHASTIC = "stochastic"
KIND_NONNEGATIVE = "nonnegative"
KIND_SIGNED = "signed"
_KINDS = (KIND_STOCHASTIC, KIND_NONNEGATIVE, KIND_SIGNED)


def _as_square(matrix) -> np.ndarray:
    w = np.asarray(matrix, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix entries must be finite")
    return w


def check_stochastic(matrix, tol: float = STOCHASTIC_TOL) -> np.ndarray:
    """The matrix as a float array, or ValueError unless it is square,
    finite, entrywise nonnegative and has row sums within tol of 1."""
    w = np.asarray(matrix, dtype=float)
    # Valid input is accepted here in one pass. A NaN or -inf entry fails the
    # min test, and a +inf entry makes its row sum fail the tolerance test as
    # long as tol is finite. Input that fails here meets the checks below,
    # which word the error.
    if (w.ndim == 2 and w.shape[0] == w.shape[1] and w.size and w.min() >= 0
            and np.abs(w.sum(axis=1) - 1.0).max() <= tol < math.inf):
        return w
    w = _as_square(w)
    if np.any(w < 0):
        raise ValueError("stochastic matrix must be entrywise nonnegative")
    rows = w.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > tol):
        raise ValueError(f"row sums deviate from 1 by more than {tol}: {rows}")
    return w


def check_signed_row_stochastic(matrix, tol: float = STOCHASTIC_TOL) -> np.ndarray:
    """Signed one-step matrix: |entries| sum to 1 per row, nonnegative diagonal."""
    w = _as_square(matrix)
    rows = np.abs(w).sum(axis=1)
    if np.any(np.abs(rows - 1.0) > tol):
        raise ValueError(f"modulus row sums deviate from 1 by more than {tol}: {rows}")
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
    rule (t, x) -> matrix for state-dependent couplings.
    """

    kind: str
    matrix: np.ndarray | None = None
    schedule: tuple | None = None  # ((until, matrix), ...) with increasing until
    rule: Callable | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        set_count = sum(p is not None for p in (self.matrix, self.schedule, self.rule))
        if set_count != 1:
            raise ValueError("exactly one of matrix, schedule, rule must be given")
        if self.matrix is not None:
            w = self._frozen(self.matrix)
            object.__setattr__(self, "matrix", w)
            object.__setattr__(self, "n", w.shape[0])
        elif self.schedule is not None:
            entries = []
            prev = -math.inf
            size = None
            for until, mat in self.schedule:
                until = float(until)
                if until <= prev:
                    raise ValueError("schedule breakpoints must be strictly increasing")
                prev = until
                w = self._frozen(mat)
                if size is None:
                    size = w.shape[0]
                elif w.shape[0] != size:
                    raise ValueError("all scheduled matrices must share one size")
                entries.append((until, w))
            if not entries:
                raise ValueError("schedule must be nonempty")
            object.__setattr__(self, "schedule", tuple(entries))
            object.__setattr__(self, "n", size)
        else:
            if self.n is None:
                raise ValueError("rule provider requires the agent count n")

    def _frozen(self, mat) -> np.ndarray:
        """A validated read-only copy, so a caller's later writes to its own
        array cannot reach the spec."""
        w = self._validated(mat).copy()
        w.setflags(write=False)
        return w

    def _validated(self, mat) -> np.ndarray:
        if self.kind == KIND_STOCHASTIC:
            return check_stochastic(mat)
        w = _as_square(mat)
        if self.kind == KIND_NONNEGATIVE and np.any(w < 0):
            raise ValueError("nonnegative spec has negative entries")
        return w

    @classmethod
    def constant(cls, kind: str, matrix) -> "WeightSpec":
        return cls(kind=kind, matrix=_as_square(matrix))

    @classmethod
    def scheduled(cls, kind: str, schedule) -> "WeightSpec":
        return cls(kind=kind, schedule=tuple((u, m) for u, m in schedule))

    @classmethod
    def from_rule(cls, kind: str, rule: Callable, n: int) -> "WeightSpec":
        return cls(kind=kind, rule=rule, n=n)

    @property
    def is_constant(self) -> bool:
        return self.matrix is not None

    @property
    def end_time(self) -> float | None:
        """Last breakpoint of a scheduled provider; None otherwise."""
        if self.schedule is None:
            return None
        return self.schedule[-1][0]

    def matrix_at(self, t: float, x: np.ndarray | None = None) -> np.ndarray:
        """Active coupling matrix at time/step t (state x for rule providers)."""
        if self.matrix is not None:
            return self.matrix
        if self.schedule is not None:
            for until, mat in self.schedule:
                if t < until:
                    return mat
            return self.schedule[-1][1]
        return self._validated(self.rule(t, x))

    def segment_index(self, t: float) -> int:
        """Index of the schedule segment active at t (constant specs give 0)."""
        if self.schedule is None:
            return 0
        for idx, (until, _) in enumerate(self.schedule):
            if t < until:
                return idx
        return len(self.schedule) - 1


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
        lam = np.asarray(self.lam, dtype=float)
        w = check_stochastic(self.w)
        u = as_state_array(self.u)
        if lam.ndim != 1 or lam.shape[0] != w.shape[0]:
            raise ValueError("lam must be a length-n vector")
        if np.any(lam < 0) or np.any(lam > 1):
            raise ValueError("susceptibilities must lie in [0, 1]")
        if u.shape[0] != w.shape[0]:
            raise ValueError("prejudice vector length must match matrix size")
        for name, arr in (("lam", lam), ("w", w), ("u", u)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class PremiseReport:
    """Outcome of a premise check; violation is None on pass, otherwise a
    short machine-readable description of the first failure found."""

    passed: bool
    violation: dict | None = None


def degroot_step(w, x: OpinionState) -> OpinionState:
    """One synchronous averaging step x' = W x, applied per opinion dimension."""
    w = check_stochastic(w)
    if w.shape[0] != x.n:
        raise ValueError(f"matrix size {w.shape[0]} != agent count {x.n}")
    return OpinionState(w @ x.values)


def simulate_discrete(spec: WeightSpec, x0: OpinionState, steps: int) -> Trajectory:
    """Iterate x(k+1) = W(k) x(k) for a stochastic or signed spec.

    Signed matrices are applied as-is; each one must have row-stochastic
    moduli and nonnegative diagonal. For a constant matrix the run stops
    early at an exact fixed point (time-varying schedules are run to the
    horizon, since a momentary fixed point need not persist). Events record
    the active schedule segment per step.
    """
    if spec.kind == KIND_NONNEGATIVE:
        raise ValueError("discrete iteration takes a stochastic or signed spec")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    check = check_signed_row_stochastic if spec.kind == KIND_SIGNED else check_stochastic
    if spec.matrix is not None:
        check(spec.matrix)
    elif spec.schedule is not None:
        for _, mat in spec.schedule:
            check(mat)

    x = x0.values
    states = [x]
    events = []
    terminated_at = None
    for k in range(steps):
        w = spec.matrix_at(k, x)
        if spec.rule is not None and spec.kind == KIND_SIGNED:
            # matrix_at already checked a stochastic rule's matrix
            check(w)
        x_next = w @ x
        events.append({"segment": spec.segment_index(k)})
        states.append(x_next)
        if spec.is_constant and np.array_equal(x_next, x):
            terminated_at = k
            break
        x = x_next
    return Trajectory(
        np.stack(states),
        np.arange(len(states), dtype=float),
        terminated_at=terminated_at,
        events=events,
    )


def matrix_product_limit(spec: WeightSpec, tol: float = 1e-12, max_iter: int = 100000) -> np.ndarray:
    """Limit of the backward products W(k) ... W(1) W(0) for a stochastic spec.

    Multiplies until the max-norm difference of successive products drops
    below tol; raises NonConvergentError when the budget is exhausted (for
    example on a periodic matrix).
    """
    if spec.kind != KIND_STOCHASTIC:
        raise ValueError("matrix products are defined for stochastic specs")
    prod = spec.matrix_at(0).copy()
    for k in range(1, max_iter + 1):
        nxt = spec.matrix_at(k) @ prod
        if np.max(np.abs(nxt - prod)) < tol:
            return nxt
        prod = nxt
    raise NonConvergentError(
        f"matrix products did not settle within {max_iter} iterations", iterations=max_iter
    )


def verify_convergence_premises(matrices, delta: float) -> PremiseReport:
    """Check the classical sufficient conditions for convergence of the
    time-varying averaging recursion on a finite matrix sequence:

      (a) every entry is 0 or lies in [delta, 1]  (non-vanishing couplings);
      (b) every diagonal entry is >= delta        (self-confidence);
      (c) w_ij > 0 iff w_ji > 0                   (reciprocal interaction).

    Returns the first violation found, scanning steps in order and entries
    in ascending row-major order.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    for k, mat in enumerate(matrices):
        w = check_stochastic(mat)
        n = w.shape[0]
        for i in range(n):
            if w[i, i] < delta:
                return PremiseReport(
                    False,
                    {"condition": "self_confidence", "step": k, "agent": i, "value": w[i, i]},
                )
        for i in range(n):
            for j in range(n):
                v = w[i, j]
                if v != 0.0 and not (delta <= v <= 1.0):
                    return PremiseReport(
                        False,
                        {"condition": "non_vanishing", "step": k, "i": i, "j": j, "value": v},
                    )
        for i in range(n):
            for j in range(i + 1, n):
                if (w[i, j] > 0) != (w[j, i] > 0):
                    return PremiseReport(
                        False,
                        {"condition": "reciprocity", "step": k, "i": i, "j": j},
                    )
    return PremiseReport(True)


def verify_uqsc(spec: WeightSpec, window_t: float, eps: float, bound_m: float) -> PremiseReport:
    """Uniform quasi-strong connectivity of a nonnegative schedule.

    Integrates the schedule exactly over sliding windows [t, t + T] (start
    points: every breakpoint plus a T/4 grid, clipped to the horizon),
    keeps entries whose integral exceeds eps, and requires the resulting
    graph to contain a directed spanning tree for every window. Also checks
    the amplitude bound 0 <= a_ij(t) <= M on every segment.
    """
    if spec.kind != KIND_NONNEGATIVE or spec.schedule is None:
        raise ValueError("uniform connectivity check takes a nonnegative schedule")
    if window_t <= 0:
        raise ValueError("window length must be positive")
    for idx, (_, mat) in enumerate(spec.schedule):
        if np.any(mat > bound_m):
            return PremiseReport(
                False, {"condition": "amplitude_bound", "segment": idx, "max": float(mat.max())}
            )
    end = spec.end_time
    if end < window_t:
        raise ValueError("schedule shorter than one window")
    starts = {0.0, end - window_t}
    for until, _ in spec.schedule[:-1]:
        if until <= end - window_t:
            starts.add(until)
    t = 0.0
    while t < end - window_t:
        starts.add(t)
        t += window_t / 4
    for start in sorted(starts):
        window = _integrate_schedule(spec.schedule, start, start + window_t)
        graph = SignedGraph(window, zero_tol=eps)
        if not connectivity(graph).has_spanning_tree:
            return PremiseReport(False, {"condition": "no_spanning_tree", "window_start": start})
    return PremiseReport(True)


def _integrate_schedule(schedule, t0: float, t1: float) -> np.ndarray:
    """Exact integral of a piecewise-constant schedule over [t0, t1]."""
    total = np.zeros_like(schedule[0][1])
    prev = 0.0
    for until, mat in schedule:
        lo = max(prev, t0)
        hi = min(until, t1)
        if hi > lo:
            total = total + (hi - lo) * mat
        prev = until
    return total


def fj_fixed_point(spec: FJSpec) -> OpinionState:
    """Steady opinions of the prejudice-anchored model: the solution of
    (I - diag(lam) W) xbar = (I - diag(lam)) u.

    diag(lam) W is Schur stable iff every agent is stubborn (lam_i < 1) or
    reaches a stubborn agent along arcs i -> j with w_ij > 0 (Parsegov,
    Proskurnikov, Tempo & Friedkin, IEEE TAC 2017); UnstableError is raised
    otherwise.
    """
    reach = spec.lam < 1
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
    t_end: float,
    dt: float | None = None,
) -> Trajectory:
    """Integrate dx/dt = -L[A(t, x)] x with classical fixed-step RK4.

    A(t, x) comes from the spec (nonnegative for cooperative flows, signed
    for antagonistic ones, or a state-dependent rule); L is the signed
    Laplacian, which reduces to the conventional one on nonnegative
    matrices. The step defaults to 0.01 / (1 + max modulus row sum of the
    initial matrix) and is then shrunk minimally so the horizon is an exact
    multiple; every step is recorded. Aborts with IntegrationError on a
    non-finite state.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    x = x0.values
    if dt is None:
        dt = default_flow_step(spec.matrix_at(0.0, x))
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    h = t_end / n_steps

    laplacians = {}  # a constant or scheduled matrix's Laplacian, by id

    def rhs(t, state):
        a = spec.matrix_at(t, state)
        if spec.rule is not None:
            return -(signed_laplacian_matrix(a) @ state)
        lap = laplacians.get(id(a))
        if lap is None:
            lap = laplacians[id(a)] = signed_laplacian_matrix(a)
        return -(lap @ state)

    states = np.empty((n_steps + 1,) + x.shape)
    states[0] = x
    t = 0.0
    for k in range(n_steps):
        k1 = rhs(t, x)
        k2 = rhs(t + h / 2, x + (h / 2) * k1)
        k3 = rhs(t + h / 2, x + (h / 2) * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (k + 1) * h
        if not np.all(np.isfinite(x)):
            raise IntegrationError(
                f"non-finite state at step {k + 1} (t={t:.6g}); reduce dt", step=k + 1, time=t
            )
        states[k + 1] = x
    stamps = np.arange(n_steps + 1) * h
    return Trajectory(states, stamps)


def left_null_vector(lap: np.ndarray, iters: int = 10000, residual: float = 1e-12) -> np.ndarray:
    """Normalized nonnegative left null vector of a (nonnegative-graph)
    Laplacian, by power iteration on the transpose of I - L / (1 + max
    diagonal). Stops early once the residual |p^T L|_inf drops below the
    target."""
    n = lap.shape[0]
    scale = 1.0 + float(np.max(np.diag(lap)))
    b = (np.eye(n) - lap / scale).T
    p = np.full(n, 1.0 / n)
    for _ in range(iters):
        p = b @ p
        p = np.abs(p)
        s = p.sum()
        if s == 0:
            raise NonConvergentError("left null vector iteration collapsed to zero")
        p /= s
        if np.max(np.abs(p @ lap)) < residual:
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
    if g.n != x0.n:
        raise ValueError("graph and state disagree on agent count")
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


def check_type_symmetry(spec: WeightSpec, k_bound: float) -> PremiseReport:
    """Verify K^-1 |a_ji| <= |a_ij| <= K |a_ji| on every schedule segment
    (or the constant matrix). Pairs with both entries absent pass; a
    one-sided arc fails for every K."""
    if k_bound < 1:
        raise ValueError("the symmetry constant must be >= 1")
    if spec.schedule is not None:
        mats = [(idx, mat) for idx, (_, mat) in enumerate(spec.schedule)]
    elif spec.matrix is not None:
        mats = [(0, spec.matrix)]
    else:
        raise ValueError("type symmetry is checked on explicit matrices, not rules")
    for idx, mat in mats:
        a = np.abs(mat)
        n = a.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                hi, lo = max(a[i, j], a[j, i]), min(a[i, j], a[j, i])
                if hi > k_bound * lo:
                    return PremiseReport(
                        False, {"condition": "type_symmetry", "segment": idx, "i": i, "j": j}
                    )
    return PremiseReport(True)
