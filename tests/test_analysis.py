import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opiniondyn import analysis, cli
from opiniondyn import (
    ConfidenceSpec,
    MaxStepsError,
    OpinionState,
    classify,
    clusters,
    d_chain_partition,
    hk_indicator_phi,
    hk_step,
    phi_step,
    Trajectory,
    simulate_bc,
    two_r_experiment,
)


def reference_mean(x, group):
    """The mean of the group's opinions; one that overflows is taken on the
    opinions over 2**k, with 2**k above the agent count, then times 2**k."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.values[group].mean(axis=0)
    if np.isfinite(mean).all():
        return mean
    scale = 2.0 ** x.n.bit_length()
    return (x.values[group] / scale).mean(axis=0) * scale


def reference_scalar_clusters(x, gap_tol):
    """The pairwise scalar clustering the O(n) split replaced: the oracle
    of the groups and of min_separation, the distance |x_i - x_j| of a
    scalar pair."""
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
                    min_sep = min(min_sep, abs(float(x.values[i, 0]) - float(x.values[j, 0])))
    reps = [(reference_mean(x, g), tuple(sorted(g))) for g in groups]
    return reps, min_sep


def reference_vector_clusters(x, gap_tol):
    """The union-find over pairs and the quadruple min_separation loop that
    the component kernel replaced on vector opinions, each pair's distance
    the root of its squares summed in column order."""
    n = x.n
    min_sep = math.inf
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    diff = x.values[:, None, :] - x.values[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= gap_tol:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[rb] = ra
    byroot = {}
    for i in range(n):
        byroot.setdefault(find(i), []).append(i)
    groups = sorted(byroot.values(), key=lambda g: g[0])
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            for i in groups[a]:
                for j in groups[b]:
                    total = 0.0  # in column order (sum() compensates from Python 3.12)
                    for d in (x.values[i] - x.values[j]).tolist():
                        total += d * d
                    min_sep = min(min_sep, math.sqrt(total))
    reps = [(reference_mean(x, g), tuple(sorted(g))) for g in groups]
    return reps, min_sep


def assert_matches_reference(x, gap_tol):
    profile = clusters(x, gap_tol)
    reference = reference_scalar_clusters if x.m == 1 else reference_vector_clusters
    reps, min_sep = reference(x, gap_tol)
    assert profile.members == tuple(m for _, m in reps)
    for (value, _), (ref_value, _) in zip(profile.clusters, reps):
        assert value.tobytes() == ref_value.tobytes()
    assert type(profile.min_separation) is float
    assert profile.min_separation == min_sep
    return profile


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


# points on a 0.25 grid: distances of exactly 0.25, 0.5 and 1.0 meet the
# scales below, so ties at gap_tol occur
VECTOR_OPINIONS = st.integers(2, 3).flatmap(
    lambda m: st.lists(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0]), st.floats(-3.0, 3.0)),
            min_size=m,
            max_size=m,
        ),
        min_size=1,
        max_size=25,
    )
)


class TestClusters:
    @settings(max_examples=400, deadline=None)
    @given(values=VECTOR_OPINIONS, gap_tol=st.sampled_from([1e-12, 0.25, 0.5, 1.0, 1e300]))
    # grouped apart, yet BLAS dot put the two points exactly gap_tol apart
    @example(values=[[0.36511016824482856, 0.10549527957022953],
                     [0.6291081515397092, 0.9271545530678674]], gap_tol=0.8630289085010016)
    def test_vector_components_match_union_find_reference(self, values, gap_tol):
        profile = assert_matches_reference(OpinionState(values), gap_tol)
        assert profile.count == 1 or profile.min_separation > gap_tol

    @pytest.mark.parametrize(
        "values, gap_tol",
        [
            ([[0.5, 0.5]], 0.1),  # n = 1
            ([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]], 5.0),  # chained at exactly gap_tol
            ([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]], np.nextafter(5.0, 0.0)),  # just below
            ([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [9.0, 9.0]], 0.5),  # ties
            ([[-1e308, 0.0], [1e308, 0.0]], 1.0),  # a cross-cluster norm that overflows
        ],
    )
    def test_vector_edge_cases_match_reference(self, values, gap_tol):
        with np.errstate(over="ignore"):
            assert_matches_reference(OpinionState(values), gap_tol)

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
        with pytest.raises(ValueError, match=r"gap_tol must lie in \(0, inf\]"):
            clusters(OpinionState([0.0, 0.0, 1.0, 1.0]), gap_tol=gap_tol)

    @pytest.mark.parametrize("gap_tol", [float("nan"), 0.0, -0.1])
    def test_scale_must_be_positive_vector_path(self, gap_tol):
        # at NaN union-find used to return four singletons, min_separation 0.0
        pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match=r"gap_tol must lie in \(0, inf\]"):
            clusters(OpinionState(pts), gap_tol=gap_tol)


class TestExtremeScales:
    """diameter, clusters and the norm-ball step read the same distances,
    also where their squares overflow or underflow, without a warning."""

    def test_points_1e200_apart(self):
        x = OpinionState([[0.0, 0.0], [1e200, 0.0]])
        assert x.diameter() == 1e200
        assert clusters(x, 1e300).count == 1
        merged = hk_step(x, ConfidenceSpec.norm_ball(1e300)).values
        assert merged[0].tolist() == merged[1].tolist()

    def test_points_1e_200_apart(self):
        y = OpinionState([[0.0, 0.0], [1e-200, 0.0]])
        assert y.diameter() == 1e-200
        assert clusters(y, 1e-250).count == 2
        apart = hk_step(y, ConfidenceSpec.norm_ball(1e-250)).values
        assert apart.tolist() == y.values.tolist()

    @pytest.mark.parametrize("values, gap_tol", [([0.0, 1e200], 1.0), ([0.0, 1e-200], 1e-250)])
    def test_scalar_separation_is_the_gap(self, values, gap_tol):
        assert clusters(OpinionState(values), gap_tol).min_separation == values[1]

    @pytest.mark.parametrize("call, outcome", [
        (lambda: clusters(OpinionState([-1e308, 1e308]), 1.0),
         lambda profile: (profile.count, profile.min_separation) == (2, math.inf)),
        (lambda: d_chain_partition(OpinionState([-1e308, 1e308]), 1.0),
         lambda chains: chains.diameters == (0.0, 0.0)),
        (lambda: d_chain_partition(OpinionState([-1e308, 0.0, 1e308]), 1.5e308),
         lambda chains: chains.chains == ((0, 1, 2),) and chains.diameters == (math.inf,)),
        (lambda: classify(Trajectory(np.array([[[-1e308]], [[1e308]]]), np.array([0.0, 1.0])),
                          1e-6),
         lambda label: label.kind == "not_converged"),
        (lambda: pytest.raises(MaxStepsError, simulate_bc, lambda s: OpinionState(-s.values),
                               OpinionState([1e308]), 3).value,
         lambda error: len(error.trajectory) == 4),
    ], ids=["clusters", "chains", "chain-diameter", "classify", "simulate_bc"])
    def test_an_overflowing_difference_is_an_infinity_without_a_warning(self, call, outcome):
        # the suite turns warnings into errors: each case warned "overflow
        # encountered in subtract" when only the distance kernel counted an
        # overflow as an infinity
        assert outcome(call())

    @pytest.mark.parametrize("call, outcome", [
        (lambda tmp: hk_step(OpinionState(TOP), ConfidenceSpec.symmetric(1e308)).flat,
         lambda means: means.tolist() == pytest.approx([TOP_MEAN] * 3, rel=1e-15)),
        (lambda tmp: hk_step(OpinionState([1.7e308, -1.7e308] * 8),
                             ConfidenceSpec.symmetric(math.inf)).flat,
         lambda means: means.tolist() == [0.0] * 16),
        (lambda tmp: hk_step(OpinionState([[v, v] for v in TOP]),
                             ConfidenceSpec.norm_ball(1e308)).values.ravel(),
         lambda means: means.tolist() == pytest.approx([TOP_MEAN] * 6, rel=1e-15)),
        (lambda tmp: phi_step(OpinionState([1.7e308, 1.6e308]), hk_indicator_phi(1e308)).flat,
         lambda means: means.tolist() == pytest.approx([1.65e308] * 2, rel=1e-15)),
        (lambda tmp: clusters(OpinionState([1e308, 1e308, 5.0]), 1.0).clusters,
         lambda reps: [(r.tolist(), m) for r, m in reps] == [([5.0], (2,)), ([1e308], (0, 1))]),
        (lambda tmp: classify(scalar_run([[1e308, 1e308, -1e308, -1e308]] * 2), 0.1, 0.1),
         lambda label: (label.kind, label.camps) == ("polarization", ((2, 3), (0, 1)))),
        (lambda tmp: cli.main(["simulate", "--config", str(_config(tmp, TOP_HK)), "--out",
                               str(tmp)]) == 0 and json.loads((tmp / "summary.json").read_text()),
         lambda summary: sum(summary["final"], []) == pytest.approx([TOP_MEAN] * 3, rel=1e-15)),
    ], ids=["hk", "hk-inf-minus-inf", "norm-ball", "phi", "clusters", "classify", "cli"])
    def test_a_mean_of_finite_opinions_is_finite(self, call, outcome, tmp_path):
        # each sum overflowed: the steps warned "overflow encountered in
        # matmul" (or "invalid value", where BLAS's partial sums met as
        # inf - inf) and then refused the mean, the representative was inf,
        # and classify labelled the two camps "clusters"
        assert outcome(call(tmp_path))

    def test_polarization_at_the_float_limits(self):
        # the norms of the representatives, BLAS dots, overflowed with a warning
        traj = scalar_run([[-1e308, 1e308], [-1e308, 1e308]])
        label = classify(traj, tol=1e-6, gap_tol=0.1)
        assert (label.kind, label.camps) == ("polarization", ((0,), (1,)))


TOP = [1.7e308, 1.7e308, 1.6e308]
TOP_MEAN = (TOP[0] / 4 + TOP[1] / 4 + TOP[2] / 4) / 3 * 4
TOP_HK = {"model": "hk", "params": {"d": 1e308}, "x0": TOP}


def _config(directory, config):
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return path


def scalar_run(states):
    """A trajectory of scalar states stamped 0, 1, 2, ..."""
    return Trajectory(np.array(states, dtype=float)[:, :, None], np.arange(len(states)))


class TestClassify:
    def test_consensus_label(self):
        traj = scalar_run([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        label = classify(traj, tol=1e-6)
        assert label.kind == "consensus"

    def test_polarization_label(self):
        traj = scalar_run(
            [[1.0, -1.0, 0.9], [0.95, -0.95001, 0.95], [0.95, -0.95001, 0.95]]
        )
        label = classify(traj, tol=1e-3)
        assert label.kind == "polarization"
        assert set(label.camps) == {(0, 2), (1,)}

    def test_clusters_label(self):
        traj = scalar_run([[0.0, 0.4, 1.0], [0.0, 0.4, 1.0]])
        label = classify(traj, tol=1e-6)
        assert label.kind == "clusters"
        assert label.count == 3

    def test_not_converged_label(self):
        traj = scalar_run([[0.0, 1.0], [1.0, 0.0]])
        assert classify(traj, tol=1e-6).kind == "not_converged"

    def test_sign_flip_swaps_camps_only(self):
        states = [[0.8, -0.8, 0.8], [0.8, -0.8, 0.8]]
        label = classify(scalar_run(states), tol=1e-6)
        flipped = classify(scalar_run([[-v for v in s] for s in states]), tol=1e-6)
        assert label.kind == flipped.kind == "polarization"
        assert set(label.camps) == set(flipped.camps)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-6, -math.inf])
    def test_tol_must_be_nonnegative(self, tol):
        # at NaN an exact consensus at (0.5, 0.5) used to read as "clusters", count 1
        traj = scalar_run([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"tol must lie in \[0, inf\]"):
            classify(traj, tol=tol)


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

    def test_a_run_that_misses_the_termination_bound_raises(self, monkeypatch):
        # the bound is the theorem the counts rest on, so a run that misses it
        # is an error, not a partial trajectory to count clusters on
        monkeypatch.setattr(analysis, "_hk_step_bound", lambda n: 1)
        with pytest.raises(MaxStepsError, match="no fixed point within 1 steps"):
            two_r_experiment(n=20, d_list=[0.3], trials=1, seed=0)

    @pytest.mark.parametrize("d", [float("inf"), float("nan"), 0.0, -0.2])
    def test_bound_that_is_not_finite_and_positive_rejected(self, d):
        with pytest.raises(ValueError, match=r"confidence bound d must lie in \(0, inf\)"):
            two_r_experiment(n=5, d_list=[0.2, d], trials=1, seed=0)


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
