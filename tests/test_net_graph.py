import numpy as np
import pytest

from opiniondyn import (
    BalanceResult,
    ConnectivityReport,
    GaugeVector,
    SignedGraph,
    UndirectedGraph,
    connectivity,
    gauge_apply,
    gauge_from_balance,
    persistent_graph,
    signed_laplacian,
    structural_balance,
)
from opiniondyn.net_graph import BalanceWitness, _mirror_signs, _tree_semicycle


def random_balanced_graph(rng, n, extra_arcs=None, strongly_connected=True):
    """Gauge a random positive strongly connected graph by random signs."""
    if extra_arcs is None:
        extra_arcs = n
    a = np.zeros((n, n))
    for k in range(n):  # bidirectional ring keeps it strongly connected
        a[k, (k + 1) % n] = rng.uniform(1.0, 2.0)
        a[(k + 1) % n, k] = rng.uniform(1.0, 2.0)
    for _ in range(extra_arcs):
        i, j = rng.integers(n, size=2)
        if i != j:
            a[i, j] = rng.uniform(1.0, 2.0)
    signs = rng.choice([-1.0, 1.0], size=n)
    return SignedGraph(signs[:, None] * a * signs[None, :]), signs


class TestSignedLaplacian:
    @pytest.mark.parametrize("weights, message", [
        (np.zeros((2, 3)), r"weights must be square, got shape \(2, 3\)"),
        (np.zeros(3), r"weights must be square, got shape \(3,\)"),
        (np.zeros((0, 0)), "need at least one agent"),
        (np.array([[0.0, np.nan], [1.0, 0.0]]), "weights must be finite"),
        (np.array([[0.0, -np.inf], [1.0, 0.0]]), "weights must be finite"),
    ], ids=["rectangular", "1-d", "no-agent", "nan", "-inf"])
    def test_invalid_weights_are_rejected(self, weights, message):
        with pytest.raises(ValueError, match=message):
            SignedGraph(weights)

    @pytest.mark.parametrize("entry", [5e-324, -5e-324, 1e-300])
    def test_every_nonzero_entry_is_an_arc(self, entry):
        g = SignedGraph(np.array([[0.0, entry], [-0.0, 0.0]]))
        assert np.array_equal(g.arc_mask, np.array([[False, True], [False, False]]))

    def test_unsigned_symmetric_dyad(self):
        g = SignedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(signed_laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_negative_dyad(self):
        g = SignedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        lap = signed_laplacian(g)
        assert np.array_equal(lap, np.array([[1.0, 1.0], [1.0, 1.0]]))
        # all-negative rows: L*1 = (2, 2) != 0
        assert np.array_equal(lap @ np.ones(2), np.array([2.0, 2.0]))

    def test_three_agent_antagonistic_example(self):
        a = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
        lap = signed_laplacian(SignedGraph(a))
        expected = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [-2.0, -1.0, 3.0]])
        assert np.array_equal(lap, expected)

    def test_row_sums_vanish_iff_rows_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = rng.uniform(-1, 1, size=(n, n)) * rng.integers(0, 2, size=(n, n))
            np.fill_diagonal(a, 0.0)
            lap = signed_laplacian(SignedGraph(a))
            row_sums = lap @ np.ones(n)
            for i in range(n):
                if np.all(a[i] >= 0):
                    assert row_sums[i] == pytest.approx(0.0, abs=1e-12)
                else:
                    assert row_sums[i] > 0


def sign_asymmetric(g):
    """Whether structural_balance rejects g for a pair with a_ij * a_ji < 0."""
    witness = structural_balance(g).witness
    return witness is not None and witness.kind == "sign_asymmetry"


class TestSignSymmetry:
    def test_positive_dyad(self):
        assert not sign_asymmetric(SignedGraph(np.array([[0.0, 1.0], [1.0, 0.0]])))

    def test_opposite_signs(self):
        g = SignedGraph(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert structural_balance(g).witness == BalanceWitness("sign_asymmetry", (0, 1))

    def test_one_sided_arc(self):
        assert not sign_asymmetric(SignedGraph(np.array([[0.0, -1.0], [0.0, 0.0]])))


def triad(a12, a13, a23):
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = a12
    a[0, 2] = a[2, 0] = a13
    a[1, 2] = a[2, 1] = a23
    return SignedGraph(a)


class TestStructuralBalance:
    def test_all_positive_triad_one_camp(self):
        res = structural_balance(triad(1, 1, 1))
        assert res.balanced
        assert res.camps == ((0, 1, 2), ())

    def test_two_friends_one_enemy(self):
        res = structural_balance(triad(1, -1, -1))
        assert res.balanced
        assert res.camps == ((0, 1), (2,))

    def test_one_negative_edge_imbalanced(self):
        res = structural_balance(triad(1, 1, -1))
        assert not res.balanced
        assert res.witness.kind == "negative_semicycle"
        cyc = res.witness.nodes
        assert cyc[0] == cyc[-1]
        # the witness semicycle has a negative sign product
        g = triad(1, 1, -1)
        prod = 1.0
        for u, v in zip(cyc, cyc[1:]):
            w = g.weights[u, v] if g.weights[u, v] != 0 else g.weights[v, u]
            prod *= w
        assert prod < 0

    def test_sign_asymmetric_pair_reported(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = structural_balance(SignedGraph(a))
        assert not res.balanced
        assert res.witness.kind == "sign_asymmetry"
        assert res.witness.nodes == (0, 1)

    def test_acyclic_graph_can_be_imbalanced(self):
        # one-directional arcs only (no cycles): 1 -> 3 positive, 2 -> 3
        # negative, 1 -> 2 positive; coloring is inconsistent on the triangle
        a = np.zeros((3, 3))
        a[2, 0] = 1.0
        a[2, 1] = -1.0
        a[1, 0] = 1.0
        res = structural_balance(SignedGraph(a))
        assert not res.balanced
        assert res.witness.kind == "negative_semicycle"

    def test_random_balanced_graphs_recover_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            g, signs = random_balanced_graph(rng, n)
            res = structural_balance(g)
            assert res.balanced
            camp_sign = np.ones(n)
            camp_sign[list(res.camps[1])] = -1.0
            # the recovered camps must agree with the construction up to a
            # global flip on each connected component (here: globally)
            assert np.all(camp_sign == signs) or np.all(camp_sign == -signs)

    def test_balanced_cycles_have_positive_weight_product(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g, _ = random_balanced_graph(rng, int(rng.integers(3, 8)))
            n = g.n
            # sample random cycles in the mirror graph via random walks
            for _ in range(10):
                length = int(rng.integers(2, 5))
                nodes = [int(rng.integers(n))]
                for _ in range(length):
                    nbrs = np.nonzero(g.arc_mask[nodes[-1]] | g.arc_mask[:, nodes[-1]])[0]
                    nodes.append(int(rng.choice(nbrs)))
                start, last = nodes[0], nodes[-1]
                closing = g.arc_mask[last, start] or g.arc_mask[start, last]
                if last == start or not closing:
                    continue
                nodes.append(start)
                prod = 1.0
                for u, v in zip(nodes, nodes[1:]):
                    w = g.weights[u, v] if g.weights[u, v] != 0 else g.weights[v, u]
                    prod *= w
                assert prod > 0


class TestGauge:
    def test_identity_gauge_is_noop(self):
        g = triad(1, -1, -1)
        out = gauge_apply(g, GaugeVector((1, 1, 1)))
        assert np.array_equal(out.weights, g.weights)

    def test_balanced_triad_gauges_to_absolute_values(self):
        g = triad(1, -1, -1)
        delta = gauge_from_balance(structural_balance(g), g.n)
        out = gauge_apply(g, delta)
        assert np.array_equal(out.weights, np.abs(g.weights))

    def test_laplacian_similarity_identity_on_random_balanced_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g, _ = random_balanced_graph(rng, int(rng.integers(3, 9)))
            res = structural_balance(g)
            delta = gauge_from_balance(res, g.n)
            d = np.diag(delta.diagonal)
            lhs = signed_laplacian(g)
            rhs = d @ signed_laplacian(gauge_apply(g, delta)) @ d
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_gauged_weights_nonnegative_for_balanced_input(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g, _ = random_balanced_graph(rng, int(rng.integers(3, 8)))
            delta = gauge_from_balance(structural_balance(g), g.n)
            assert np.all(gauge_apply(g, delta).weights >= 0)

    def test_gauge_length_mismatch(self):
        with pytest.raises(ValueError, match="^delta is for 2 agents, not 3$"):
            gauge_apply(triad(1, 1, 1), GaugeVector((1, -1)))

    @pytest.mark.parametrize("signs", [(1, 0, -1), (1, 2), (1.0, -0.5)])
    def test_gauge_entries_must_be_signs(self, signs):
        with pytest.raises(ValueError, match=r"gauge entries must be \+1 or -1"):
            GaugeVector(signs)

    def test_an_imbalanced_graph_has_no_gauge(self):
        res = structural_balance(triad(1, 1, -1))
        assert not res.balanced
        with pytest.raises(ValueError, match="gauge vector requires a balanced result"):
            gauge_from_balance(res, 3)


class TestConnectivity:
    def test_complete_positive_graph(self):
        a = np.ones((4, 4)) - np.eye(4)
        rep = connectivity(SignedGraph(a))
        assert rep.strongly_connected
        assert rep.has_spanning_tree
        assert rep.components == ((0, 1, 2, 3),)

    def test_three_agent_example_quasi_strong_only(self):
        # arcs 1<->2, 1->3, 2->3: a spanning tree but no strong connectivity
        a = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
        rep = connectivity(SignedGraph(a))
        assert not rep.strongly_connected
        assert rep.has_spanning_tree
        assert rep.components == ((0, 1), (2,))

    def test_disjoint_dyads(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        rep = connectivity(SignedGraph(a))
        assert not rep.strongly_connected
        assert not rep.has_spanning_tree
        assert len(rep.components) == 2

    def test_connectivity_invariant_under_gauge(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = rng.uniform(-1, 1, size=(n, n)) * rng.integers(0, 2, size=(n, n))
            np.fill_diagonal(a, 0.0)
            g = SignedGraph(a)
            delta = GaugeVector(tuple(int(s) for s in rng.choice([-1, 1], size=n)))
            assert connectivity(g) == connectivity(gauge_apply(g, delta))


def reference_persistent_graph(w_seq, threshold):
    """The pairwise loop over the summed couplings that persistent_graph replaced."""
    total = None
    for w in w_seq:
        w = np.asarray(w, dtype=float)
        total = w.copy() if total is None else total + w
    n = total.shape[0]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if total[i, j] >= threshold or total[j, i] >= threshold:
                edges.add((i, j))
    return UndirectedGraph(n, frozenset(edges))


class TestPersistentGraph:
    def test_matches_the_pairwise_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            seq = [np.where(rng.random((n, n)) < 0.3, rng.choice([0.0, 0.25, 0.5, 1.0, np.inf],
                                                                 size=(n, n)), 0.0)
                   for _ in range(int(rng.integers(1, 6)))]
            threshold = float(rng.choice([0.25, 0.5, 1.0, 1.75]))
            copies = [w.copy() for w in seq]
            g = persistent_graph(iter(seq), threshold)
            assert g == reference_persistent_graph(seq, threshold)
            assert all(type(a) is int and type(b) is int for a, b in g.edges)
            assert all(np.array_equal(w, c) for w, c in zip(seq, copies))

    def test_negative_matrix_rejected_before_the_rest_is_read(self):
        def seq():
            yield np.eye(2)
            yield -np.eye(2)
            raise AssertionError("read past the offending matrix")

        with pytest.raises(ValueError, match="nonnegative"):
            persistent_graph(seq(), threshold=1.0)

    @pytest.mark.parametrize("w", [np.zeros(3), np.zeros((2, 3))])
    def test_non_square_weights_rejected(self, w):
        with pytest.raises(ValueError, match="square"):
            persistent_graph([np.zeros((2, 2)), w], threshold=1.0)

    @pytest.mark.parametrize("threshold", [np.nan, 0.0])
    def test_threshold_must_be_positive(self, threshold):
        with pytest.raises(ValueError, match="threshold must be positive"):
            persistent_graph([np.ones((2, 2))], threshold=threshold)

    def test_constant_coupling_reaches_threshold(self):
        w = np.zeros((2, 2))
        w[0, 1] = 0.5
        g = persistent_graph([w] * 100, threshold=10.0)
        assert (0, 1) in g.edges

    def test_absent_coupling(self):
        w = np.zeros((2, 2))
        g = persistent_graph([w] * 50, threshold=1.0)
        assert g.edges == frozenset()

    def test_finite_burst_below_threshold(self):
        delta = 0.3
        w = np.zeros((2, 2))
        w[0, 1] = delta
        seq = [w] * 5 + [np.zeros((2, 2))] * 95
        g = persistent_graph(seq, threshold=10 * delta)
        assert (0, 1) not in g.edges

    def test_one_direction_suffices(self):
        w = np.zeros((3, 3))
        w[1, 0] = 1.0
        g = persistent_graph([w] * 3, threshold=2.0)
        assert g.edges == frozenset({(0, 1)})
        assert g.connected_components() == ((0, 1), (2,))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            persistent_graph([], threshold=1.0)

    @pytest.mark.parametrize("second", [[[2.0]], np.eye(2), np.eye(4)])
    def test_matrices_of_another_size_rejected(self, second):
        # a 1x1 would broadcast onto the 3x3 total and link every pair
        with pytest.raises(ValueError, match=r"must all be \(3, 3\)"):
            persistent_graph([0.5 * np.eye(3), second], threshold=1.0)

    def test_nan_entry_rejected_before_the_rest_is_read(self):
        def seq():
            yield np.full((2, 2), 0.75)
            yield np.array([[0.0, np.nan], [1.0, 0.0]])
            raise AssertionError("read past the offending matrix")

        with pytest.raises(ValueError, match="nonnegative"):
            persistent_graph(seq(), threshold=1.0)

    def test_empty_matrices_give_the_empty_graph(self):
        g = persistent_graph([np.zeros((0, 0))] * 3, threshold=1.0)
        assert g == UndirectedGraph(0, frozenset())

    def test_totals_are_the_sequential_sums_bit_for_bit(self):
        # a threshold equal to a total is reached, the next float above it
        # is not: every total must carry the sequential sum's exact bits
        rng = np.random.default_rng(6)
        entries = [0.0, -0.0, 5e-324, 2.5e-308, 1e-300, 0.1, 1.0 / 3.0, 0.7, 1e16, 3.0]
        for _ in range(300):
            n = int(rng.integers(1, 6))
            scale = rng.uniform(0.5, 2.0, size=(n, n)) if rng.random() < 0.5 else 1.0
            seq = [rng.choice(entries, size=(n, n)) * scale
                   for _ in range(int(rng.integers(1, 8)))]
            total = seq[0].copy()
            for w in seq[1:]:
                total = total + w
            for value in np.unique(total[total > 0])[:4]:
                for threshold in (value, np.nextafter(value, np.inf)):
                    assert persistent_graph(iter(seq), threshold) == \
                        reference_persistent_graph(seq, threshold)
                reached = total >= value
                assert persistent_graph(seq, value).edges == {
                    (i, j) for i in range(n) for j in range(i + 1, n)
                    if reached[i, j] or reached[j, i]}

    def test_a_reused_buffer_gives_the_graph_of_copies(self):
        rng = np.random.default_rng(7)
        seq = [rng.choice([0.0, 0.25, 0.5], size=(5, 5)) for _ in range(40)]

        def reused():
            buf = np.empty((5, 5))
            for w in seq:
                buf[...] = w
                yield buf

        for threshold in (1.0, 2.5, 4.0):
            assert persistent_graph(reused(), threshold) == \
                persistent_graph([w.copy() for w in seq], threshold)


# The pair loops and traversals that the mask forms replaced, kept verbatim
# (apart from names) as oracles.


def reference_connected_components(g):
    adj = {i: set() for i in range(g.n)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
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


def reference_is_sign_symmetric(g):
    w = np.where(g.arc_mask, g.weights, 0.0)
    prod = w * w.T
    off = ~np.eye(g.n, dtype=bool)
    return bool(np.all(prod[off] >= 0))


def reference_structural_balance(g):
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


def reference_tarjan_scc(adj):
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


def reference_connectivity(g):
    mask = g.arc_mask
    n = g.n
    adj = [[int(i) for i in np.nonzero(mask[:, j])[0]] for j in range(n)]
    comps = reference_tarjan_scc(adj)
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


def all_python_ints(nested):
    return all(all_python_ints(x) if isinstance(x, tuple) else type(x) is int for x in nested)


def random_signed_graph(rng):
    """A small signed graph: sparse, with self-loops of either sign, one-sided
    arcs, zero entries of either sign, and, half the time, a sign pattern
    that is symmetric (so the traversal is reached) or balanced."""
    n = int(rng.integers(1, 9))
    mag = rng.choice([0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 0.25], size=(n, n))
    mag *= rng.random((n, n)) < rng.uniform(0.1, 0.9)
    pattern = rng.integers(3)
    if pattern == 0:  # any signs
        signs = rng.choice([-1.0, 1.0], size=(n, n))
    elif pattern == 1:  # symmetric signs
        signs = np.triu(rng.choice([-1.0, 1.0], size=(n, n)))
        signs = signs + np.triu(signs, 1).T
    else:  # a gauge: balanced
        s = rng.choice([-1.0, 1.0], size=n)
        signs = np.outer(s, s)
    if rng.random() < 0.2:  # flip one entry, possibly to an asymmetric pair
        i, j = rng.integers(n, size=2)
        signs[i, j] = -signs[i, j]
    return SignedGraph(mag * signs)


class TestMaskKernelsMatchTheLoops:
    def test_balance_sign_symmetry_and_connectivity(self):
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(3000):
            g = random_signed_graph(rng)
            result = structural_balance(g)
            assert result == reference_structural_balance(g)
            assert all_python_ints(result.camps or ()) and all_python_ints(
                result.witness.nodes if result.witness else ())
            kinds.add(result.witness.kind if result.witness else "balanced")
            assert sign_asymmetric(g) == (not reference_is_sign_symmetric(g))
            report = connectivity(g)
            assert report == reference_connectivity(g)
            assert type(report.strongly_connected) is bool
            assert type(report.has_spanning_tree) is bool
            assert all_python_ints(report.components)
        assert kinds == {"balanced", "sign_asymmetry", "negative_semicycle"}

    @pytest.mark.parametrize(
        "weights, balanced",
        [
            ([[-1.0]], True),  # a negative self-loop is no semicycle
            ([[0.0, 1.0, 0.0], [0.0, -2.0, -1.0], [0.0, -1.0, 0.0]], True),
            ([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, 1.0, 0.0]], False),
        ],
    )
    def test_self_loops_do_not_change_balance(self, weights, balanced):
        g = SignedGraph(np.array(weights))
        result = structural_balance(g)
        assert result.balanced is balanced
        assert result == reference_structural_balance(g)

    def test_connected_components(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n = int(rng.integers(0, 10))
            pairs = rng.integers(max(n, 1), size=(int(rng.integers(0, 2 * n + 1)), 2))
            # mostly i < j as persistent_graph writes them, plus some self-loops
            edges = frozenset((min(a, b), max(a, b)) for a, b in pairs.tolist() if n)
            g = UndirectedGraph(n, edges)
            comps = g.connected_components()
            assert comps == reference_connected_components(g)
            assert all_python_ints(comps)

    def test_isolated_agents_are_singletons(self):
        g = UndirectedGraph(4, frozenset({(1, 3)}))
        assert g.connected_components() == ((0,), (1, 3), (2,))
        assert UndirectedGraph(0, frozenset()).connected_components() == ()

    @pytest.mark.parametrize("edge", [(-1, 2), (0, 4)])
    def test_edge_ends_outside_the_agents_rejected(self, edge):
        with pytest.raises(ValueError, match="edge ends"):
            UndirectedGraph(4, frozenset({(0, 1), edge})).connected_components()
