"""Signed weighted directed graphs and their structure.

Arc convention used throughout: a nonzero weight ``a[i, j]`` encodes the arc
j -> i ("j influences i"), the standard orientation in influence modeling.
Weights may be negative (antagonistic coupling). Signed Laplacians, structural
balance with a two-camp certificate or a negative-semicycle witness, gauge
transformations, directed connectivity, and the graph of persistent
interactions are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignedGraph",
    "BalanceResult",
    "BalanceWitness",
    "GaugeVector",
    "ConnectivityReport",
    "UndirectedGraph",
    "signed_laplacian",
    "signed_laplacian_matrix",
    "is_sign_symmetric",
    "structural_balance",
    "gauge_apply",
    "gauge_from_balance",
    "connectivity",
    "persistent_graph",
]


@dataclass(frozen=True)
class SignedGraph:
    """Weighted directed graph on n agents given by its coupling matrix.

    ``zero_tol`` is the magnitude below which an entry counts as absent;
    the default 0.0 means an exact zero test (inputs are user-specified
    matrices, not noisy data).
    """

    weights: np.ndarray
    zero_tol: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("need at least one agent")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if self.zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def arc_mask(self) -> np.ndarray:
        """Boolean matrix: entry (i, j) True iff the arc j -> i is present."""
        return np.abs(self.weights) > self.zero_tol


@dataclass(frozen=True)
class BalanceWitness:
    """Evidence of structural imbalance.

    kind is "sign_asymmetry" (nodes is the offending pair (i, j) with
    a_ij * a_ji < 0) or "negative_semicycle" (nodes is a closed node
    sequence whose mirrored-edge sign product is negative).
    """

    kind: str
    nodes: tuple


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of a structural-balance test.

    When balanced, ``camps`` is the pair of disjoint agent sets (one may be
    empty) with nonnegative weights inside camps and nonpositive across.
    When imbalanced, ``witness`` explains why.
    """

    balanced: bool
    camps: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    witness: BalanceWitness | None = None


@dataclass(frozen=True)
class GaugeVector:
    """Per-agent sign flips; +1 entries mark the first camp."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("gauge entries must be +1 or -1")

    @property
    def diagonal(self) -> np.ndarray:
        return np.array(self.signs, dtype=float)


@dataclass(frozen=True)
class ConnectivityReport:
    strongly_connected: bool
    has_spanning_tree: bool
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class UndirectedGraph:
    """Plain undirected graph on n nodes given by an edge set."""

    n: int
    edges: frozenset  # frozenset of 2-tuples (i, j) with i < j

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        adj = {i: set() for i in range(self.n)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = [False] * self.n
        comps = []
        for root in range(self.n):
            if seen[root]:
                continue
            stack, comp = [root], []
            seen[root] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in sorted(adj[v]):
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)


def signed_laplacian_matrix(weights: np.ndarray) -> np.ndarray:
    """Laplacian of a signed coupling matrix: off-diagonal -a_jk, diagonal
    sum_m |a_jm|. Reduces to the conventional Laplacian for nonnegative
    matrices with zero diagonal."""
    w = np.asarray(weights, dtype=float)
    lap = -w.copy()
    np.fill_diagonal(lap, np.abs(w).sum(axis=1))
    return lap


def signed_laplacian(g: SignedGraph) -> np.ndarray:
    return signed_laplacian_matrix(g.weights)


def is_sign_symmetric(g: SignedGraph) -> bool:
    """True iff a_ij * a_ji >= 0 for every off-diagonal pair (entries below
    zero_tol treated as zero, so one-sided arcs are allowed)."""
    w = np.where(g.arc_mask, g.weights, 0.0)
    prod = w * w.T
    off = ~np.eye(g.n, dtype=bool)
    return bool(np.all(prod[off] >= 0))


def _mirror_signs(g: SignedGraph):
    """Undirected mirror of the arc structure with per-edge signs.

    Returns (adjacency bool matrix, sign matrix in {-1, 0, +1}). Requires a
    sign-symmetric graph; callers must check first.
    """
    mask = g.arc_mask
    w = np.where(mask, g.weights, 0.0)
    sym_mask = mask | mask.T
    # for each undirected pair, take the sign of whichever direction is present
    combined = np.where(mask, w, w.T)
    signs = np.sign(combined) * sym_mask
    return sym_mask, signs.astype(int)


def structural_balance(g: SignedGraph) -> BalanceResult:
    """Two-color the undirected mirror graph: same color across positive
    edges, opposite across negative. Balanced iff the coloring is consistent
    on every component; sign-asymmetric inputs are imbalanced outright.

    Traversal is breadth-first in ascending agent order, so the camps and
    any witness are deterministic. On imbalance the witness is the tree path
    joining the endpoints of the first inconsistent edge, a concrete
    negative semicycle.
    """
    n = g.n
    w = np.where(g.arc_mask, g.weights, 0.0)
    prod = w * w.T
    for i in range(n):
        for j in range(i + 1, n):
            if prod[i, j] < 0:
                return BalanceResult(
                    balanced=False,
                    witness=BalanceWitness("sign_asymmetry", (i, j)),
                )

    sym_mask, signs = _mirror_signs(g)
    color = [0] * n  # 0 = unvisited
    parent = [-1] * n
    for root in range(n):
        if color[root] != 0:
            continue
        color[root] = 1
        queue = [root]
        while queue:
            v = queue.pop(0)
            for u in range(n):
                if not sym_mask[v, u] or u == v:
                    continue
                want = color[v] * signs[v, u]
                if color[u] == 0:
                    color[u] = want
                    parent[u] = v
                    queue.append(u)
                elif color[u] != want:
                    return BalanceResult(
                        balanced=False,
                        witness=BalanceWitness(
                            "negative_semicycle", _tree_semicycle(parent, v, u)
                        ),
                    )
    camp1 = tuple(i for i in range(n) if color[i] == 1)
    camp2 = tuple(i for i in range(n) if color[i] == -1)
    return BalanceResult(balanced=True, camps=(camp1, camp2))


def _tree_semicycle(parent, v, u) -> tuple:
    """Closed walk v .. ancestor .. u, v through the BFS tree plus edge (u, v)."""
    anc_v = [v]
    while parent[anc_v[-1]] != -1:
        anc_v.append(parent[anc_v[-1]])
    anc_u = [u]
    while parent[anc_u[-1]] != -1:
        anc_u.append(parent[anc_u[-1]])
    in_v = set(anc_v)
    k = next(i for i, node in enumerate(anc_u) if node in in_v)
    common = anc_u[k]
    path_v = anc_v[: anc_v.index(common) + 1]  # v .. common
    path_u = anc_u[:k]  # u .. just below common
    return tuple(path_v + list(reversed(path_u)) + [v])


def gauge_from_balance(result: BalanceResult, n: int) -> GaugeVector:
    """Gauge vector of a balanced result: +1 on the first camp, -1 on the second."""
    if not result.balanced or result.camps is None:
        raise ValueError("gauge vector requires a balanced result")
    signs = [1] * n
    for i in result.camps[1]:
        signs[i] = -1
    return GaugeVector(tuple(signs))


def gauge_apply(g: SignedGraph, delta: GaugeVector) -> SignedGraph:
    """Flip coordinate signs: entry (i, j) becomes delta_i * delta_j * a_ij.

    With the gauge of a balanced partition this yields the entrywise
    absolute-value graph; the arc set never changes.
    """
    if len(delta.signs) != g.n:
        raise ValueError(f"gauge length {len(delta.signs)} != agent count {g.n}")
    d = delta.diagonal
    return SignedGraph(d[:, None] * g.weights * d[None, :], zero_tol=g.zero_tol)


def _tarjan_scc(adj) -> list:
    """Iterative Tarjan strongly-connected components; adj[v] is ascending."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for start in range(n):
        if index[start] != -1:
            continue
        work = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                u = adj[v][pi]
                pi += 1
                if index[u] == -1:
                    work[-1] = (v, pi)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                p, _ = work[-1]
                low[p] = min(low[p], low[v])
    return comps


def connectivity(g: SignedGraph) -> ConnectivityReport:
    """Directed connectivity of the arc structure |a_ij| > zero_tol.

    ``has_spanning_tree`` is True when some root reaches every node along
    arcs (equivalently, the condensation has a single source component).
    """
    mask = g.arc_mask
    n = g.n
    # out-neighbors of j are the rows i with a_ij nonzero (arc j -> i)
    adj = [[int(i) for i in np.nonzero(mask[:, j])[0]] for j in range(n)]
    comps = _tarjan_scc(adj)
    comps = sorted(comps, key=lambda c: c[0])
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    has_incoming = [False] * len(comps)
    for j in range(n):
        for i in adj[j]:
            if comp_of[j] != comp_of[i]:
                has_incoming[comp_of[i]] = True
    sources = sum(1 for inc in has_incoming if not inc)
    return ConnectivityReport(
        strongly_connected=len(comps) == 1,
        has_spanning_tree=sources == 1,
        components=tuple(comps),
    )


def persistent_graph(w_seq, threshold: float) -> UndirectedGraph:
    """Undirected graph of pairs whose cumulative coupling over the given
    finite horizon reaches ``threshold`` in at least one direction.

    This is the finite-horizon surrogate of "the coupling series diverges":
    edge {i, j} present iff sum_k w_ij(k) >= threshold or sum_k w_ji(k) >=
    threshold. Accepts any iterable of nonnegative square matrices.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    total = None
    for w in w_seq:
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square matrices, got shape {w.shape}")
        if np.any(w < 0):
            raise ValueError("persistent interactions are defined for nonnegative weights")
        if total is None:
            total = w.copy()
        else:
            total += w
    if total is None:
        raise ValueError("empty weight sequence")
    reached = total >= threshold
    i, j = np.nonzero(np.triu(reached | reached.T, k=1))
    return UndirectedGraph(total.shape[0], frozenset(zip(i.tolist(), j.tolist())))
