import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import (
    ConfidenceSpec,
    DeffuantWeisbuch,
    OpinionState,
    classify,
    clusters,
    hk_energy,
    hk_step,
    modulus_consensus,
    s_energy,
    simulate_bc,
    simulate_gossip,
    trajectory_from_states,
    two_r_experiment,
)
from opiniondyn.analysis import event_pairs_per_step, support_pairs_per_step, trust_pairs_per_step
from opiniondyn.linear_dynamics import WeightSpec
from opiniondyn.state import Trajectory


class TestSEnergy:
    def test_constant_trajectory_has_zero_kinetic_energy(self):
        traj = trajectory_from_states([[0.0, 1.0]] * 4)
        pairs = [[(0, 1), (1, 0)]] * 3
        res = s_energy(traj, pairs, s=2.0)
        assert res.kinetic == 0.0
        assert res.total == pytest.approx(3 * 2.0)

    def test_one_step_consensus_kinetic_two_energy(self):
        traj = trajectory_from_states([[0.0, 1.0], [0.5, 0.5]])
        res = s_energy(traj, [[(0, 1), (1, 0)]], s=2.0)
        assert res.kinetic == pytest.approx(0.5)

    def test_hk_kinetic_two_energy_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            d = float(rng.uniform(0.05, 0.5))
            spec = ConfidenceSpec.symmetric(d)
            x0 = OpinionState(rng.uniform(0, 1, size=n))
            traj = simulate_bc(lambda s: hk_step(s, spec), x0, max_steps=2 * n**3)
            res = s_energy(traj, trust_pairs_per_step(traj, spec), s=2.0)
            assert res.kinetic <= hk_energy(traj.initial, d) + 1e-12
            assert res.kinetic <= d * d * n * (n - 1) + 1e-12

    def test_gossip_pairs_come_from_events(self):
        model = DeffuantWeisbuch(d=0.4, mu=0.5)
        traj = simulate_gossip(model, OpinionState(np.linspace(0, 1, 6)), steps=50, seed=1)
        pairs = list(event_pairs_per_step(traj))
        assert len(pairs) == 50
        for (i, j, interacted), plist in zip(traj.events, pairs):
            assert plist == ([(i, j)] if interacted else [])
        s_energy(traj, pairs, s=1.0)  # consumes without error

    def test_support_pairs_for_discrete_runs(self):
        from opiniondyn import simulate_discrete

        w = np.array([[0.5, 0.5], [0.0, 1.0]])
        spec = WeightSpec.constant("stochastic", w)
        traj = simulate_discrete(spec, OpinionState([0.0, 1.0]), steps=3)
        pairs = list(support_pairs_per_step(spec, traj))
        assert all(p == [(0, 1)] for p in pairs)

    def test_missing_pair_records_rejected(self):
        traj = trajectory_from_states([[0.0, 1.0]] * 4)
        with pytest.raises(ValueError):
            s_energy(traj, [[(0, 1)]], s=2.0)


def reference_scalar_clusters(x, gap_tol):
    """The pairwise scalar clustering the O(n) split replaced: the oracle
    of the groups and of min_separation."""
    v = x.flat
    order = np.argsort(v, kind="stable")
    groups = []
    current = [int(order[0])]
    for pos in range(1, x.n):
        if v[order[pos]] - v[order[pos - 1]] > gap_tol:
            groups.append(current)
            current = []
        current.append(int(order[pos]))
    groups.append(current)
    min_sep = math.inf
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            for i in groups[a]:
                for j in groups[b]:
                    min_sep = min(min_sep, float(np.linalg.norm(x.values[i] - x.values[j])))
    reps = [(x.values[g].mean(axis=0), tuple(sorted(g))) for g in groups]
    return reps, min_sep


def assert_matches_reference(x, gap_tol):
    profile = clusters(x, gap_tol)
    reps, min_sep = reference_scalar_clusters(x, gap_tol)
    assert profile.members == tuple(m for _, m in reps)
    for (value, _), (ref_value, _) in zip(profile.clusters, reps):
        assert value.tobytes() == ref_value.tobytes()
    assert type(profile.min_separation) is float
    assert profile.min_separation == min_sep


# a small value pool makes ties and exact-gap splits likely
SCALAR_OPINIONS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.3, 1.0, -1.0, 1e-300, 1e308, -1e308]),
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=30,
)


class TestClusters:
    @settings(max_examples=300, deadline=None)
    @given(values=SCALAR_OPINIONS, gap_tol=st.sampled_from([1e-12, 0.05, 0.1, 0.15, 1.0, 1e300]))
    def test_scalar_split_matches_pairwise_reference(self, values, gap_tol):
        with np.errstate(over="ignore", invalid="ignore"):
            assert_matches_reference(OpinionState(values), gap_tol)

    @pytest.mark.parametrize(
        "values, gap_tol",
        [
            ([0.5] * 4, 0.1),  # one cluster: min_separation stays inf
            ([0.0, 0.1, 0.2, 0.30000000000000004], 0.1),  # gaps at the scale join
            ([0.3, 0.0, 0.3, 0.0, 0.6], 0.1),  # ties across clusters
            ([-1e308, 1e308, 0.0], 1.0),  # a split gap whose square overflows
            ([1e-170, 0.0, 3e-170], 1e-200),  # a split gap whose square underflows
        ],
    )
    def test_scalar_edge_cases_match_reference(self, values, gap_tol):
        with np.errstate(over="ignore", under="ignore"):
            assert_matches_reference(OpinionState(values), gap_tol)

    def test_all_equal_single_cluster(self):
        profile = clusters(OpinionState([0.5] * 4), gap_tol=0.1)
        assert profile.count == 1
        assert profile.members == ((0, 1, 2, 3),)

    def test_two_groups_with_small_jitter(self):
        profile = clusters(OpinionState([0.0, 0.001, 0.9]), gap_tol=0.01)
        assert profile.count == 2
        assert profile.members == ((0, 1), (2,))
        assert profile.min_separation == pytest.approx(0.899)

    def test_terminated_hk_clusters_match_consensus_groups(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            d = float(rng.uniform(0.05, 0.4))
            spec = ConfidenceSpec.symmetric(d)
            x0 = OpinionState(rng.uniform(0, 1, size=n))
            traj = simulate_bc(lambda s: hk_step(s, spec), x0, max_steps=2 * n**3)
            final = traj.final.values[:, 0]
            profile = clusters(traj.final, gap_tol=d)
            # the final-state dichotomy: within a cluster identical values,
            # across clusters separation beyond the confidence bound
            for _, members in profile.clusters:
                assert len(set(final[list(members)])) == 1
            assert profile.min_separation > d or profile.count == 1

    def test_multidimensional_union_find(self):
        pts = [[0.0, 0.0], [0.05, 0.0], [1.0, 1.0], [1.0, 1.04]]
        profile = clusters(OpinionState(pts), gap_tol=0.1)
        assert profile.members == ((0, 1), (2, 3))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 1, size=9)
        perm = rng.permutation(9)
        base = clusters(OpinionState(vals), gap_tol=0.07)
        permuted = clusters(OpinionState(vals[perm]), gap_tol=0.07)
        base_sets = {frozenset(m) for m in base.members}
        inverse = np.empty(9, dtype=int)
        inverse[perm] = np.arange(9)
        mapped = {frozenset(int(inverse[a]) for a in m) for m in base_sets}
        # mapping original agent ids through the permutation gives the same partition
        assert {frozenset(m) for m in permuted.members} == {
            frozenset(int(a) for a in m) for m in mapped
        }

    @pytest.mark.parametrize("gap_tol", [float("nan"), 0.0, -0.1])
    def test_scale_must_be_positive_scalar_path(self, gap_tol):
        # at NaN the split used to put [0, 0, 1, 1] into one cluster
        with pytest.raises(ValueError, match="gap_tol must be positive"):
            clusters(OpinionState([0.0, 0.0, 1.0, 1.0]), gap_tol=gap_tol)

    @pytest.mark.parametrize("gap_tol", [float("nan"), 0.0, -0.1])
    def test_scale_must_be_positive_vector_path(self, gap_tol):
        # at NaN union-find used to return four singletons, min_separation 0.0
        pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match="gap_tol must be positive"):
            clusters(OpinionState(pts), gap_tol=gap_tol)


class TestClassify:
    def test_consensus_label(self):
        traj = trajectory_from_states([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        label = classify(traj, tol=1e-6)
        assert label.kind == "consensus"

    def test_polarization_label(self):
        traj = trajectory_from_states(
            [[1.0, -1.0, 0.9], [0.95, -0.95001, 0.95], [0.95, -0.95001, 0.95]]
        )
        label = classify(traj, tol=1e-3)
        assert label.kind == "polarization"
        assert set(label.camps) == {(0, 2), (1,)}

    def test_clusters_label(self):
        traj = trajectory_from_states([[0.0, 0.4, 1.0], [0.0, 0.4, 1.0]])
        label = classify(traj, tol=1e-6)
        assert label.kind == "clusters"
        assert label.count == 3

    def test_not_converged_label(self):
        traj = trajectory_from_states([[0.0, 1.0], [1.0, 0.0]])
        assert classify(traj, tol=1e-6).kind == "not_converged"

    def test_sign_flip_swaps_camps_only(self):
        states = [[0.8, -0.8, 0.8], [0.8, -0.8, 0.8]]
        label = classify(trajectory_from_states(states), tol=1e-6)
        flipped = classify(trajectory_from_states([[-v for v in s] for s in states]), tol=1e-6)
        assert label.kind == flipped.kind == "polarization"
        assert set(label.camps) == set(flipped.camps)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-6, -math.inf])
    def test_tol_must_be_nonnegative(self, tol):
        # at NaN an exact consensus at (0.5, 0.5) used to read as "clusters", count 1
        traj = trajectory_from_states([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            classify(traj, tol=tol)


class TestModulusConsensus:
    def test_polarized_state(self):
        assert modulus_consensus(OpinionState([0.7, -0.7, 0.7]), tol=1e-9)

    def test_disagreeing_magnitudes(self):
        assert not modulus_consensus(OpinionState([1.0, 0.5]), tol=1e-3)

    def test_three_agent_interval_regime_is_not_modulus_consensus(self):
        xi = 0.6
        assert not modulus_consensus(OpinionState([xi, -xi, xi / 3]), tol=1e-3)


class TestTwoRExperiment:
    def test_counts_within_dichotomy_bound(self):
        rows = two_r_experiment(n=25, d_list=[0.1, 0.2, 0.3], trials=10, seed=5)
        for row in rows:
            hi = int(np.floor(1.0 / row.d)) + 1
            assert all(1 <= c <= hi for c in row.counts)

    def test_wide_confidence_always_one_cluster(self):
        rows = two_r_experiment(n=20, d_list=[1.0], trials=10, seed=6)
        assert all(c == 1 for c in rows[0].counts)

    def test_deterministic_given_seed(self):
        a = two_r_experiment(n=15, d_list=[0.15], trials=5, seed=7)
        b = two_r_experiment(n=15, d_list=[0.15], trials=5, seed=7)
        assert a == b

    def test_conjecture_column_rounds_half_up(self):
        rows = two_r_experiment(n=5, d_list=[0.05, 0.06, 0.11, 0.12, 0.2, 0.25], trials=1, seed=0)
        assert [r.conjecture for r in rows] == [10, 8, 5, 4, 3, 2]


class TestClassifyOnFlows:
    def test_balanced_strongly_connected_flow_polarizes(self):
        from opiniondyn import SignedGraph, WeightSpec, flow_simulate

        a = np.array([[0.0, -1.5, 0.0], [-1.5, 0.0, 1.0], [0.0, 1.0, 0.0]])
        a[0, 2] = a[2, 0] = -1.0  # camps {0} vs {1, 2}, strongly connected
        traj = flow_simulate(WeightSpec.constant("signed", a), OpinionState([1.0, 0.2, -0.4]),
                             t_end=60.0, dt=0.02)
        label = classify(traj, tol=1e-6)
        assert label.kind == "polarization"
        assert set(label.camps) == {(0,), (1, 2)}

    def test_imbalanced_strongly_connected_flow_reaches_consensus_at_zero(self):
        from opiniondyn import SignedGraph, WeightSpec, flow_simulate, structural_balance

        a = np.array([[0.0, 1.5, -1.0], [1.5, 0.0, 1.0], [-1.0, 1.0, 0.0]])
        assert not structural_balance(SignedGraph(a)).balanced
        traj = flow_simulate(WeightSpec.constant("signed", a), OpinionState([1.0, -0.7, 0.3]),
                             t_end=80.0, dt=0.02)
        label = classify(traj, tol=1e-6)
        assert label.kind == "consensus"
        assert np.max(np.abs(traj.final.values)) < 1e-6
