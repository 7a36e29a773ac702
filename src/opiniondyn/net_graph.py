"""Signed weighted directed graphs and their structure.

Arc convention used throughout: a nonzero weight ``a[i, j]`` encodes the arc
j -> i ("j influences i"), the standard orientation in influence modeling.
Weights may be negative (antagonistic coupling). Signed Laplacians, structural
balance with a two-camp certificate or a negative-semicycle witness, gauge
transformations, directed connectivity, and the graph of persistent
interactions are provided.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .state import _agents, _array, _count, _frozen, _instance, _iterable, _real

__all__ = [
    "SignedGraph",
    "BalanceResult",
    "BalanceWitness",
    "GaugeVector",
    "ConnectivityReport",
    "UndirectedGraph",
    "signed_laplacian",
    "signed_laplacian_matrix",
    "structural_balance",
    "gauge_apply",
    "gauge_from_balance",
    "connectivity",
    "persistent_graph",
]


@dataclass(frozen=True)
class SignedGraph:
    """Weighted directed graph on n agents given by its coupling matrix;
    every nonzero entry is an arc."""

    weights: np.ndarray

    def __post_init__(self):
        w = _array("weights", self.weights, square=True, finite=True)
        if w.shape[0] < 1:
            raise ValueError("need at least one agent")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def arc_mask(self) -> np.ndarray:
        """Boolean matrix: entry (i, j) True iff the arc j -> i is present."""
        return self.weights != 0


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
        if any(s not in (-1, 1) for s in _instance("signs", self.signs, tuple)):
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
    """Plain undirected graph on n nodes given by an edge set. Its connected
    components are the strong components of the symmetric adjacency mask,
    found by the same kernel as directed connectivity."""

    n: int
    edges: frozenset  # frozenset of 2-tuples (i, j) with i < j

    def __post_init__(self):
        object.__setattr__(self, "n", _count("n", self.n, 0))
        _instance("edges", self.edges, frozenset)

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        adj = np.zeros((self.n, self.n), dtype=bool)
        ends = np.array(list(self.edges), dtype=int).reshape(-1, 2)
        if ends.size and not (ends.min() >= 0 and ends.max() < self.n):
            raise ValueError(f"edge ends must be agents 0 .. {self.n - 1}")
        adj[ends[:, 0], ends[:, 1]] = True
        return tuple(_tarjan_scc(adj | adj.T))


def signed_laplacian_matrix(weights: np.ndarray) -> np.ndarray:
    """Laplacian of a signed coupling matrix: off-diagonal -a_jk, diagonal
    sum_m |a_jm|. Reduces to the conventional Laplacian for nonnegative
    matrices with zero diagonal."""
    w = _array("weights", weights, square=True)
    lap = -w.copy()
    np.fill_diagonal(lap, np.abs(w).sum(axis=1))
    return lap


def signed_laplacian(g: SignedGraph) -> np.ndarray:
    return signed_laplacian_matrix(_instance("g", g, SignedGraph).weights)


def _sign_asymmetry(g: SignedGraph) -> np.ndarray:
    """Upper-triangle mask of the pairs i < j with a_ij * a_ji < 0."""
    return np.triu(g.weights * g.weights.T < 0, 1)


def _first_hit(mask: np.ndarray) -> tuple | None:
    """Index of the first True entry of mask in row-major order, as a tuple
    of Python ints, or None when there is none."""
    hits = np.argwhere(mask)
    return tuple(hits[0].tolist()) if len(hits) else None


def _mirror_signs(g: SignedGraph):
    """Undirected mirror of the arc structure with per-edge signs.

    Returns (adjacency bool matrix, sign matrix in {-1, 0, +1}). Requires a
    sign-symmetric graph; callers must check first.
    """
    mask, w = g.arc_mask, g.weights
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
    n = _instance("g", g, SignedGraph).n
    pair = _first_hit(_sign_asymmetry(g))
    if pair:
        return BalanceResult(balanced=False, witness=BalanceWitness("sign_asymmetry", pair))

    sym_mask, signs = _mirror_signs(g)
    np.fill_diagonal(sym_mask, False)
    color = [0] * n  # 0 = unvisited
    parent = [-1] * n
    for root in range(n):
        if color[root] != 0:
            continue
        color[root] = 1
        queue = [root]
        for v in queue:  # grows while it is read: breadth-first order
            for u in np.flatnonzero(sym_mask[v]).tolist():
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
    n = _count("n", n, 0)
    if not _instance("result", result, BalanceResult).balanced or result.camps is None:
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
    _agents("delta", len(_instance("delta", delta, GaugeVector).signs),
            _instance("g", g, SignedGraph).n)
    d = delta.diagonal
    return SignedGraph(d[:, None] * g.weights * d[None, :])


def _tarjan_scc(adj: np.ndarray) -> list:
    """Strongly connected components of the boolean adjacency mask adj
    (adj[v, u] marks the arc v -> u) by iterative Tarjan, each an ascending
    tuple of Python ints, listed by smallest member. The one component
    kernel of the package: on a symmetric mask the strong components are
    the connected components."""
    adj = [np.flatnonzero(row).tolist() for row in adj]
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
        work = [(start, None)]  # (node, iterator over its unread out-neighbours)
        while work:
            v, nbrs = work[-1]
            if nbrs is None:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
                nbrs = iter(adj[v])
                work[-1] = (v, nbrs)
            for u in nbrs:
                if index[u] == -1:
                    work.append((u, None))
                    break
                if on_stack[u] and index[u] < low[v]:
                    low[v] = index[u]
            else:
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
                    p = work[-1][0]
                    low[p] = min(low[p], low[v])
    return sorted(comps)  # disjoint, so ordered by smallest member


def _component_labels(comps, n: int) -> np.ndarray:
    """Per-node index of its component in comps."""
    label = np.empty(n, dtype=int)
    for ci, comp in enumerate(comps):
        label[list(comp)] = ci
    return label


def connectivity(g: SignedGraph) -> ConnectivityReport:
    """Directed connectivity of the arc structure a_ij != 0.

    ``has_spanning_tree`` is True when some root reaches every node along
    arcs (equivalently, the condensation has a single source component).
    """
    mask = _instance("g", g, SignedGraph).arc_mask
    comps = _tarjan_scc(mask.T)  # mask[i, j] is the arc j -> i
    label = _component_labels(comps, g.n)
    heads, _ = np.nonzero(mask & (label[:, None] != label[None, :]))
    has_incoming = np.zeros(len(comps), dtype=bool)
    has_incoming[label[heads]] = True
    return ConnectivityReport(
        strongly_connected=len(comps) == 1,
        has_spanning_tree=int(np.count_nonzero(~has_incoming)) == 1,
        components=tuple(comps),
    )


def persistent_graph(w_seq: Iterable[np.ndarray], threshold: float) -> UndirectedGraph:
    """Undirected graph of pairs whose cumulative coupling over the given
    finite horizon reaches ``threshold`` in at least one direction.

    This is the finite-horizon surrogate of "the coupling series diverges":
    edge {i, j} present iff sum_k w_ij(k) >= threshold or sum_k w_ji(k) >=
    threshold. Accepts any iterable of nonnegative square matrices of one
    size, summed one at a time in order. ValueError as soon as a matrix of
    another size, or one with a negative or NaN entry, is read.
    """
    threshold = _real("threshold", threshold, "positive")
    total = None
    for w in _iterable("w_seq", w_seq):
        w = _array("weights", w, square=True)
        if total is not None and w.shape != total.shape:
            raise ValueError(f"weights must all be {total.shape}, got shape {w.shape}")
        if w.size and not w.min() >= 0:  # NaN fails too
            raise ValueError("persistent interactions are defined for nonnegative weights, "
                             "got a negative or NaN entry")
        if total is None:
            total = w.copy()
        else:
            total += w
    if total is None:
        raise ValueError("empty weight sequence")
    reached = total >= threshold
    i, j = np.nonzero(np.triu(reached | reached.T, k=1))
    return UndirectedGraph(total.shape[0], frozenset(zip(i.tolist(), j.tolist())))
