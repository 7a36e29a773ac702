import os
import re
import reprlib
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import (
    ConfidenceSpec,
    clusters,
    MaxStepsError,
    OpinionState,
    d_chain_partition,
    heterophily_phi,
    hk_energy,
    hk_indicator_phi,
    hk_step,
    inertial_step,
    phi_step,
    reputation_phi,
    simulate_bc,
    truth_step,
)
from opiniondyn import bounded_confidence as bc
from opiniondyn import state
from opiniondyn.bounded_confidence import PhiSpec
from opiniondyn.presets import TETRA_X0


# np.linalg.norm's ord of each norm-ball norm
NORM_ORDS = {"euclidean": 2, "max": np.inf, "sum": 1}


def pairwise_sq(values):
    """Squared Euclidean distances between the rows of an (n, m) array, over
    the whole (n, n, m) difference array."""
    diff = values[:, None, :] - values[None, :, :]
    return (diff**2).sum(-1)


def run_hk(x0, d, max_steps=None, closed=True):
    spec = ConfidenceSpec.symmetric(d, closed=closed)
    n = len(np.atleast_1d(np.asarray(x0)[..., 0] if np.asarray(x0).ndim > 1 else x0))
    if max_steps is None:
        max_steps = 2 * n**3 - 2 * (n - 1) ** 2
    return simulate_bc(lambda s: hk_step(s, spec), OpinionState(x0), max_steps=max_steps)


def single_chain(rng, size, d):
    """Random scalar opinions forming one maximal chain (consecutive gaps <= d)."""
    gaps = rng.uniform(0.0, d, size=size - 1)
    return rng.uniform(0, 1) + np.concatenate([[0.0], np.cumsum(gaps)])


class TestTrustSet:
    """Row i of ``trust_matrix`` is agent i's trust set, itself included,
    for either geometry."""

    def test_basic_membership(self):
        x = OpinionState([0.0, 0.05, 1.0])
        mask = bc.trust_matrix(x, ConfidenceSpec.symmetric(0.1))
        assert mask[0].tolist() == [True, True, False]
        assert mask[2].tolist() == [False, False, True]

    def test_boundary_closed_vs_open(self):
        x = OpinionState([0.0, 0.1])
        closed = bc.trust_matrix(x, ConfidenceSpec.symmetric(0.1, closed=True))
        opened = bc.trust_matrix(x, ConfidenceSpec.symmetric(0.1, closed=False))
        assert closed[0].tolist() == [True, True]
        assert opened[0].tolist() == [True, False]

    def test_euclidean_ball_boundary(self):
        x = OpinionState([[0.0, 0.0], [3.0, 4.0]])
        mask = bc.trust_matrix(x, ConfidenceSpec.norm_ball(5.0))
        assert mask.tolist() == [[True, True], [True, True]]

    @pytest.mark.parametrize("gap, d", [(1e200, 1e300), (1e-200, 1e-250)],
                             ids=["squares-overflow", "squares-underflow"])
    def test_a_euclidean_ball_at_an_extreme_scale_agrees_with_the_interval(self, gap, d):
        # the squared gap overflows to inf, or underflows to 0, where the gap does not
        ball = hk_step(OpinionState([[0.0, 0.0], [gap, 0.0]]), ConfidenceSpec.norm_ball(d))
        interval = hk_step(OpinionState([0.0, gap]), ConfidenceSpec.symmetric(d))
        assert ball.values[:, 0].tolist() == interval.flat.tolist()
        assert ball.values[:, 1].tolist() == [0.0, 0.0]

    def test_max_and_sum_norms(self):
        x = OpinionState([[0.0, 0.0], [3.0, 4.0]])
        assert bc.trust_matrix(x, ConfidenceSpec.norm_ball(4.5, norm="max"))[0].tolist() == [True, True]
        assert bc.trust_matrix(x, ConfidenceSpec.norm_ball(4.5, norm="sum"))[0].tolist() == [True, False]

    def test_asymmetric_interval(self):
        x = OpinionState([0.0, 0.3, -0.3])
        mask = bc.trust_matrix(x, ConfidenceSpec.asymmetric(d_left=0.1, d_right=0.5))
        assert mask[0].tolist() == [True, True, False]

    def test_an_interval_trust_matrix_is_its_window(self):
        # read as a Euclidean ball of radius hi, lo ignored, it was
        # [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        mask = bc.trust_matrix(OpinionState([0.0, 0.2, 0.5]), ConfidenceSpec.asymmetric(0.1, 0.3))
        assert mask.astype(int).tolist() == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]

    def test_per_agent_bounds(self):
        x = OpinionState([0.0, 0.3, 0.6])
        mask = bc.trust_matrix(x, ConfidenceSpec.per_agent([0.1, 0.3, 0.6]))
        assert mask.tolist() == [[True, False, False], [True, True, True], [True, True, True]]

    def test_shifted_requires_eta_below_d(self):
        with pytest.raises(ValueError):
            ConfidenceSpec.shifted(0.2, [0.0, 0.3])

    @pytest.mark.parametrize("make, message", [
        (lambda: ConfidenceSpec.norm_ball(1.0, norm="taxicab"), "norm must be one of"),
        (lambda: ConfidenceSpec.symmetric(0.0), r"d must lie in \(0, inf\], got 0.0"),
        (lambda: ConfidenceSpec.symmetric(float("nan")), r"d must lie in \(0, inf\], got nan"),
        (lambda: ConfidenceSpec.asymmetric(0.0, 0.5), r"d_left must lie in \(0, inf\], got 0.0"),
        (lambda: ConfidenceSpec.per_agent([0.1, -0.2]),
         r"d_per_agent must lie in \(0, inf\], got -0.2"),
        (lambda: ConfidenceSpec(lo=(-0.1, -0.2), hi=(0.1,)),
         "left and right bound lists must have equal length"),
        (lambda: ConfidenceSpec.shifted(0.2, [-0.1, 0.0]),
         "shifts must satisfy 0 <= eta_i and max eta_i < d"),
    ], ids=["unknown-norm", "zero", "nan", "zero-left", "negative-per-agent", "lengths",
            "negative-shift"])
    def test_invalid_windows_are_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("step", [
        hk_step,
        lambda x, spec: truth_step(x, [1.0, 1.0], [0.0], spec),
        lambda x, spec: inertial_step(x, [1.0, 1.0], spec),
    ], ids=["hk", "truth", "inertial"])
    @pytest.mark.parametrize("x, spec, message", [
        (OpinionState([0.0, 1.0]), None, "spec must be a ConfidenceSpec, got None"),
        (OpinionState([0.0, 1.0]), bc.PhiSpec(lambda s: 1.0),
         "spec must be a ConfidenceSpec, got PhiSpec("),
        ([0.0, 1.0], ConfidenceSpec.symmetric(0.5), "x must be an OpinionState, got [0.0, 1.0]"),
    ], ids=["spec-none", "spec-phi", "x-list"])
    def test_a_state_or_spec_of_another_type_is_refused_by_name(self, step, x, spec, message):
        # a ValueError, not the AttributeError of a missing field, under the
        # suite's warnings-as-errors filter
        with pytest.raises(ValueError) as info:
            step(x, spec)
        assert str(info.value).startswith(message)

    def test_interval_variant_rejects_vector_opinions(self):
        with pytest.raises(ValueError, match="scalar opinions"):
            hk_step(OpinionState([[0.0, 1.0], [1.0, 0.0]]), ConfidenceSpec.symmetric(1.0))


class TestHkStep:
    def test_all_within_bound_collapses_to_mean(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 0.4, size=6)
        out = hk_step(OpinionState(vals), ConfidenceSpec.symmetric(0.5))
        assert np.all(out.values[:, 0] == out.values[0, 0])
        assert out.values[0, 0] == pytest.approx(vals.mean())

    def test_three_point_example(self):
        out = hk_step(OpinionState([0.0, 1.0, 2.0]), ConfidenceSpec.symmetric(1.0))
        assert np.array_equal(out.values[:, 0], [0.5, 1.0, 1.5])

    def test_order_preserved_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            n = int(rng.integers(2, 9))
            d = float(rng.uniform(0.05, 0.6))
            x = np.sort(rng.uniform(0, 1, size=n))
            out = hk_step(OpinionState(x), ConfidenceSpec.symmetric(d)).values[:, 0]
            assert np.all(np.diff(out) >= 0)


class TestPhiStep:
    def test_indicator_weights_reproduce_plain_step(self):
        rng = np.random.default_rng(2)
        phi = hk_indicator_phi(0.3)
        spec = ConfidenceSpec.symmetric(0.3)
        for _ in range(25):
            x = OpinionState(rng.uniform(0, 1, size=7))
            assert np.allclose(
                phi_step(x, phi).values, hk_step(x, spec).values, rtol=0, atol=1e-14
            )

    def test_heterophily_weights_sum_against_direct_formula(self):
        phi = heterophily_phi(a=0.5, b=1.5, d1=0.2, d2=0.6)
        x = OpinionState([0.0, 0.1, 0.5, 2.0])
        out = phi_step(x, phi).values[:, 0]
        v = x.values[:, 0]
        for i in range(4):
            w = np.array([0.5 if s <= 0.2**2 else 1.5 if s < 0.6**2 else 0.0
                          for s in (v - v[i]) ** 2])
            assert out[i] == pytest.approx((w @ v) / w.sum())

    @pytest.mark.parametrize("name", ["hk", "heterophily"])
    def test_array_weights_give_the_bits_of_the_per_pair_loop(self, name):
        # the per-pair scalar weight functions the array presets replaced
        phi, scalar = {
            "hk": (hk_indicator_phi(0.3), lambda s: 1.0 if s <= 0.3 * 0.3 else 0.0),
            "heterophily": (heterophily_phi(0.5, 1.5, 0.2, 0.6),
                            lambda s: 0.5 if s <= 0.2 * 0.2 else 1.5 if s < 0.6 * 0.6 else 0.0),
        }[name]
        rng = np.random.default_rng(4)
        for m in (1, 2):
            x = OpinionState(rng.uniform(0, 1, size=(9, m)))
            sq = pairwise_sq(x.values)
            w = np.array([[scalar(s) for s in row] for row in sq])
            want = (w @ x.values) / w.sum(axis=1)[:, None]
            assert phi_step(x, phi).values.tobytes() == want.tobytes()

    def test_reputation_weights_match_weighted_trust_average(self):
        weights = [1.0, 2.0, 3.0]
        phi = reputation_phi(weights, d=0.5)
        x = OpinionState([0.0, 0.2, 1.0])
        out = phi_step(x, phi).values[:, 0]
        # agents 0 and 1 trust each other (gap 0.2 < 0.5), agent 2 is alone
        assert out[2] == pytest.approx(1.0)
        assert out[0] == pytest.approx((1.0 * 0.0 + 2.0 * 0.2) / 3.0)
        assert out[1] == pytest.approx((1.0 * 0.0 + 2.0 * 0.2) / 3.0)

    @pytest.mark.parametrize("d", [-0.5, 0.0, float("nan")])
    def test_presets_reject_a_bound_that_is_not_positive(self, d):
        message = rf"^confidence bound must lie in \(0, inf\], got {d}$"
        with pytest.raises(ValueError, match=message):
            hk_indicator_phi(d)
        with pytest.raises(ValueError, match=message):
            reputation_phi([1.0, 2.0], d)

    @pytest.mark.parametrize("a, b, d1, d2", [(2.0, 1.0, 0.1, 0.3), (0.0, 1.0, 0.1, 0.3),
                                              (1.0, 2.0, 0.3, 0.3), (1.0, 2.0, 0.0, 0.3)],
                             ids=["a-above-b", "zero-a", "equal-radii", "zero-inner-radius"])
    def test_heterophily_levels_and_radii_must_increase(self, a, b, d1, d2):
        with pytest.raises(ValueError, match="need 0 < a < b and 0 < d1 < d2"):
            heterophily_phi(a, b, d1, d2)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_reputation_weights_must_be_positive(self, bad):
        with pytest.raises(ValueError, match=rf"^reputations must lie in \(0, inf\], got {bad}$"):
            reputation_phi([1.0, bad], 0.5)

    def test_diagonal_weight_must_be_positive_constant(self):
        with pytest.raises(ValueError):
            PhiSpec(phi=lambda s: 0.0)

    def test_weight_function_must_be_callable(self):
        with pytest.raises(ValueError, match="^phi must be a Callable, got None$"):
            PhiSpec(phi=None)

    @pytest.mark.parametrize("make, message", [
        (lambda: ConfidenceSpec.per_agent(None),
         "d_per_agent must be an array of real numbers, got None"),
        (lambda: ConfidenceSpec.per_agent(0.3),
         "d_per_agent must be a nonempty list of real numbers, got 0.3"),
        (lambda: ConfidenceSpec.shifted(0.3, None),
         "eta must be an array of real numbers, got None"),
    ], ids=["per-agent-none", "per-agent-scalar", "shifts-none"])
    def test_bound_lists_that_are_not_lists_are_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("w", [[[1.0, 2.0]], 3.0])
    def test_reputations_must_be_a_vector(self, w):
        with pytest.raises(ValueError, match="^reputations must be (a nonempty list of real "
                                             "numbers|a real number), got "):
            reputation_phi(w, 0.5)

    def test_reputation_count_must_match_the_agent_count(self):
        phi = reputation_phi([1.0, 2.0], 0.5)
        x = OpinionState([0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="^reputations is for 2 agents, not 3$"):
            phi_step(x, phi)

    def test_infinite_reputation_fails_at_its_first_weight(self):
        # the pair (0, 1) lies beyond d, so its weight stays 0, as the per-pair
        # table gave it; agent 1's own weight is the first to be inf
        with pytest.raises(ValueError, match="weight function returned inf at sigma=0.0"):
            phi_step(OpinionState([0.0, 1.0]), reputation_phi([1.0, float("inf")], 0.5))


def oracle_reputation_phi(w, d):
    """The per-pair closure tables that reputation_phi built before it scaled
    one indicator by the reputations, with the table lookups of the weight
    and the weighted step that read them."""
    w = [float(v) for v in w]
    dsq = d * d
    n = len(w)

    def make(i, j):
        wj = w[j]
        if i == j:
            return lambda sigma: wj
        return lambda sigma: wj if sigma < dsq else 0.0

    return tuple(tuple(make(i, j) for j in range(n)) for i in range(n))


def oracle_phi_step(x, table):
    sq = pairwise_sq(x.values)
    n = x.n
    w = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            w[i, j] = float(table[i][j](sq[i, j]))
    return OpinionState((w @ x.values) / w.sum(axis=1)[:, None])


class TestReputationOracle:
    """reputation_phi as one indicator scaled by the reputations gives the
    bits of the per-pair closure tables it replaced."""

    @pytest.mark.parametrize("seed", range(20))
    def test_steps_and_runs_match_the_closure_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        w = rng.uniform(0.1, 5.0, size=n)
        d = float(rng.uniform(0.1, 0.6))
        x0 = OpinionState(rng.uniform(0.0, 1.0, size=(n, m)))
        phi = reputation_phi(w, d)
        table = oracle_reputation_phi(w, d)
        x = x0
        for _ in range(5):
            step = phi_step(x, phi)
            assert step.values.tobytes() == oracle_phi_step(x, table).values.tobytes()
            x = step
        runs = [simulate_bc(stepper, x0, max_steps=500, stop_tol=1e-12)
                for stepper in (lambda s: phi_step(s, phi), lambda s: oracle_phi_step(s, table))]
        assert runs[0].array.tobytes() == runs[1].array.tobytes()
        assert runs[0].terminated_at == runs[1].terminated_at

    def test_pairs_exactly_at_the_bound_are_excluded_by_both(self):
        x = OpinionState([0.0, 0.5, 1.0])
        phi = reputation_phi([1.0, 2.0, 3.0], 0.5)
        table = oracle_reputation_phi([1.0, 2.0, 3.0], 0.5)
        assert phi_step(x, phi).values.tobytes() == oracle_phi_step(x, table).values.tobytes()


class TestTruthStep:
    def test_full_weight_reduces_to_plain_step(self):
        rng = np.random.default_rng(3)
        spec = ConfidenceSpec.symmetric(0.2)
        for _ in range(20):
            x = OpinionState(rng.uniform(0, 1, size=6))
            out = truth_step(x, np.ones(6), [0.5], spec)
            assert np.array_equal(out.values, hk_step(x, spec).values)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
    def test_target_must_be_finite(self, target):
        # an infinite target made 0 * inf a NaN opinion, with a numpy warning
        with pytest.raises(ValueError, match="target must be finite"):
            truth_step(OpinionState([0.1, 0.9]), [1.0, 0.5], [target], ConfidenceSpec.symmetric(0.2))

    def test_zero_weight_jumps_to_target(self):
        x = OpinionState([0.1, 0.9])
        out = truth_step(x, np.zeros(2), [0.4], ConfidenceSpec.symmetric(0.2))
        assert np.array_equal(out.values[:, 0], [0.4, 0.4])

    def test_target_must_be_a_point_of_the_opinion_space(self):
        with pytest.raises(ValueError, match="target must be a point in opinion space"):
            truth_step(OpinionState([0.1, 0.9]), [1.0, 0.5], [0.2, 0.3],
                       ConfidenceSpec.symmetric(0.2))

    def test_all_seekers_approach_target(self):
        rng = np.random.default_rng(4)
        spec = ConfidenceSpec.symmetric(0.3)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            lam = rng.uniform(0.2, 0.9, size=n)
            target = rng.uniform(0, 1, size=1)
            x0 = OpinionState(rng.uniform(0, 1, size=n))
            try:
                traj = simulate_bc(
                    lambda s: truth_step(s, lam, target, spec), x0, max_steps=10_000
                )
            except MaxStepsError as exc:
                traj = exc.trajectory
            assert np.max(np.abs(traj.final.values - target)) < 1e-6


    @pytest.mark.parametrize("step, args", [(truth_step, ([0.5],)), (inertial_step, ())],
                             ids=["truth", "inertial"])
    def test_nan_weight_is_rejected(self, step, args):
        x = OpinionState([0.0, 0.1])
        with pytest.raises(ValueError, match=r"^lam must lie in \[0, 1\], got nan$"):
            step(x, [0.5, np.nan], *args, ConfidenceSpec.symmetric(0.3))


class TestInertialStep:
    def test_unit_inertia_weight_is_plain_step(self):
        rng = np.random.default_rng(5)
        spec = ConfidenceSpec.symmetric(0.25)
        x = OpinionState(rng.uniform(0, 1, size=5))
        out = inertial_step(x, np.ones(5), spec)
        assert np.array_equal(out.values, hk_step(x, spec).values)

    def test_zero_weight_freezes_agent(self):
        spec = ConfidenceSpec.symmetric(1.0)
        x = OpinionState([0.0, 0.5, 1.0])
        lam = np.array([0.0, 1.0, 1.0])
        out = inertial_step(x, lam, spec)
        assert out.values[0, 0] == 0.0
        assert out.values[1, 0] == 0.5

    def test_zero_one_mixture_converges(self):
        rng = np.random.default_rng(6)
        spec = ConfidenceSpec.symmetric(0.3)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            lam = rng.choice([0.0, 1.0], size=n)
            x0 = OpinionState(rng.uniform(0, 1, size=n))
            try:
                traj = simulate_bc(
                    lambda s: inertial_step(s, lam, spec), x0, max_steps=20_000, stop_tol=0.0
                )
            except MaxStepsError as exc:
                traj = exc.trajectory
            assert np.max(np.abs(traj.array[-1] - traj.array[-2])) < 1e-10


class TestSimulateBc:
    def test_two_opinion_chain_collapses_in_one_step(self):
        traj = run_hk([0.0, 0.5], d=1.0)
        assert traj.terminated_at == 1
        assert np.array_equal(traj.final.values[:, 0], [0.25, 0.25])

    def test_small_chain_collapse_counts(self):
        rng = np.random.default_rng(7)
        for size, bound in ((3, 2), (4, 5)):
            for _ in range(100):
                d = float(rng.uniform(0.05, 0.5))
                traj = run_hk(single_chain(rng, size, d), d=d, max_steps=50)
                assert traj.terminated_at <= bound

    def test_up_to_four_agents_single_chain_reaches_consensus(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            size = int(rng.integers(2, 5))
            d = float(rng.uniform(0.05, 0.5))
            traj = run_hk(single_chain(rng, size, d), d=d, max_steps=50)
            assert traj.final.diameter() == 0.0

    def test_tetrahedron_merge_consensus_at_step_three(self):
        spec = ConfidenceSpec.norm_ball(1.0)
        traj = simulate_bc(lambda s: hk_step(s, spec), OpinionState(TETRA_X0), max_steps=50)
        assert traj.terminated_at == 3
        assert traj.final.diameter() == 0.0
        # the influence graph starts with three components and becomes connected
        from opiniondyn.bounded_confidence import trust_matrix

        m0 = trust_matrix(traj.state(0), spec)
        assert np.array_equal(np.unique(m0.sum(axis=1)), [1, 2])
        m1 = trust_matrix(traj.state(1), spec)
        assert m1[0, 2] and m1[2, 0] and m1[3, 0]

    def test_budget_exhaustion_carries_partial_trajectory(self):
        with pytest.raises(MaxStepsError) as info:
            run_hk([0.0, 0.4, 0.8, 1.2, 1.6, 2.0], d=0.5, max_steps=1)
        assert len(info.value.trajectory) == 2
        assert str(info.value) == "no fixed point within 1 steps"

    def test_budget_must_allow_one_step(self):
        spec = ConfidenceSpec.symmetric(0.3)
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            simulate_bc(lambda s: hk_step(s, spec), OpinionState([0.0, 0.1, 0.9]), max_steps=0)

    @pytest.mark.parametrize("stepper", [None, ConfidenceSpec.symmetric(0.3)], ids=repr)
    def test_stepper_must_be_callable(self, stepper):
        with pytest.raises(ValueError, match="^stepper must be a Callable, got ") as info:
            simulate_bc(stepper, OpinionState([0.0, 0.1, 0.9]), max_steps=5)
        assert str(info.value).endswith(reprlib.repr(stepper))

    @pytest.mark.parametrize("x0", [None, [0.0, 0.1]], ids=repr)
    def test_start_must_be_an_opinion_state(self, x0):
        with pytest.raises(ValueError, match="^x0 must be an OpinionState, got ") as info:
            simulate_bc(lambda s: s, x0, max_steps=5)
        assert str(info.value).endswith(repr(x0))

    @pytest.mark.parametrize("result, message", [
        (OpinionState([0.3]), "^stepper result is for 1 agents, not 3$"),
        (OpinionState(np.zeros((3, 2))), "^stepper result has 2 dimensions, not 1$"),
    ], ids=["agents", "dimensions"])
    def test_stepper_result_must_match_the_state(self, result, message):
        # np.stack failed on "all input arrays must have the same shape"
        with pytest.raises(ValueError, match=message):
            simulate_bc(lambda s: result, OpinionState([0.0, 0.5, 1.0]), 3)

    @pytest.mark.parametrize("stop_tol", [float("nan"), -1.0, -1e-300])
    def test_nan_or_negative_stop_tol_rejected(self, stop_tol):
        # at NaN or below zero no state could ever count as a fixed point
        spec = ConfidenceSpec.symmetric(0.3)
        with pytest.raises(ValueError, match=r"stop_tol must lie in \[0, inf\]"):
            simulate_bc(lambda s: hk_step(s, spec), OpinionState([0.0, 0.1, 0.9]), max_steps=50,
                        stop_tol=stop_tol)


@pytest.mark.parametrize("call, message", [
    (lambda: phi_step(None, hk_indicator_phi(0.3)), "x must be an OpinionState, got None"),
    (lambda: phi_step(OpinionState([0.0, 1.0]), None), "spec must be a PhiSpec, got None"),
    (lambda: phi_step(OpinionState([0.0, 1.0]), ConfidenceSpec.symmetric(0.3)),
     "spec must be a PhiSpec, got Confidence"),
    (lambda: hk_energy(None, 0.3), "x must be an OpinionState, got None"),
    (lambda: clusters(None, 0.1), "x must be an OpinionState, got None"),
    (lambda: simulate_bc(lambda s: s.values, OpinionState([0.0, 1.0]), 5),
     "stepper result must be an OpinionState, got array("),
], ids=["phi-x", "phi-spec-none", "phi-spec-ball", "energy-x", "clusters-x", "stepper-result"])
def test_an_object_argument_of_another_type_is_refused_by_name(call, message):
    # a ValueError, not the AttributeError of a missing field
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(message)


class TestEnergies:
    def test_consensus_energy_zero(self):
        assert hk_energy(OpinionState([0.3, 0.3, 0.3]), d=0.2) == 0.0

    def test_two_agent_energy(self):
        assert hk_energy(OpinionState([0.0, 1.0]), d=2.0) == pytest.approx(2.0)

    def test_upper_bound_on_random_states(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            d = float(rng.uniform(0.05, 1.0))
            x = OpinionState(rng.uniform(0, 1, size=n))
            assert hk_energy(x, d) <= d * d * n * (n - 1) + 1e-12

    def test_energy_decrease_inequality_along_runs(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            d = float(rng.uniform(0.05, 0.5))
            traj = run_hk(rng.uniform(0, 1, size=n), d=d)
            for k in range(len(traj) - 1):
                drop = hk_energy(traj.state(k), d) - hk_energy(traj.state(k + 1), d)
                moved = ((traj.array[k + 1] - traj.array[k]) ** 2).sum()
                assert drop >= 4.0 * moved - 1e-9

    def test_smooth_weights_decrease_their_potential_energy(self):
        # phi(s) = exp(-s) is non-increasing, with potential Phi(r) = 1 - exp(-r)
        # of the squared distance; each step lowers sum_ij Phi(|x_i - x_j|^2)
        # by at least 4 phi(0) times the squared movement
        phi = PhiSpec(phi=lambda s: np.exp(-s))

        def energy(x):
            return float((1.0 - np.exp(-pairwise_sq(x.values))).sum())

        rng = np.random.default_rng(12)
        x = OpinionState(rng.uniform(0, 1, size=6))
        for _ in range(40):
            x_next = phi_step(x, phi)
            moved = ((x_next.values - x.values) ** 2).sum()
            assert energy(x) - energy(x_next) >= 4.0 * moved - 1e-9
            x = x_next


class TestDChains:
    def test_three_chain_figure(self):
        part = d_chain_partition(OpinionState([0, 0.5, 2, 2.4, 5, 5.5, 6]), d=0.6)
        assert part.chains == ((0, 1), (2, 3), (4, 5, 6))
        assert part.diameters == pytest.approx((0.5, 0.4, 1.0))

    @pytest.mark.parametrize("d", [np.nan, 0.0])
    def test_bound_must_be_positive(self, d):
        with pytest.raises(ValueError, match=r"confidence bound must lie in \(0, inf\]"):
            d_chain_partition(OpinionState([0.0, 0.1, 5.0]), d=d)

    def test_single_chain_when_all_close(self):
        part = d_chain_partition(OpinionState([0.0, 0.1, 0.2]), d=0.5)
        assert part.chains == ((0, 1, 2),)

    def test_chains_need_scalar_opinions(self):
        with pytest.raises(ValueError, match="chains are defined for scalar opinions"):
            d_chain_partition(OpinionState([[0.0, 1.0], [0.1, 0.9]]), d=0.5)

    def test_chains_never_merge_along_runs(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            d = float(rng.uniform(0.05, 0.4))
            traj = run_hk(rng.uniform(0, 1, size=n), d=d)
            prev = d_chain_partition(traj.state(0), d)
            for k in range(1, len(traj)):
                cur = d_chain_partition(traj.state(k), d)
                chain_of = {}
                for idx, chain in enumerate(cur.chains):
                    for agent in chain:
                        chain_of[agent] = idx
                # agents separated before stay separated: each previous chain's
                # agents may split but never join agents of another chain
                for c1 in range(len(prev.chains)):
                    for c2 in range(c1 + 1, len(prev.chains)):
                        ids1 = {chain_of[a] for a in prev.chains[c1]}
                        ids2 = {chain_of[a] for a in prev.chains[c2]}
                        assert ids1.isdisjoint(ids2)
                prev = cur

    @staticmethod
    def reference_partition(x, d):
        """The per-position loop the vectorised split replaced."""
        v = x.flat
        order = np.argsort(v, kind="stable")
        chains, diameters, start = [], [], 0
        sorted_v = v[order]
        for pos in range(1, x.n + 1):
            if pos == x.n or sorted_v[pos] - sorted_v[pos - 1] > d:
                chains.append(tuple(int(a) for a in order[start:pos]))
                diameters.append(float(sorted_v[pos - 1] - sorted_v[start]))
                start = pos
        return tuple(chains), tuple(diameters)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-8, 8).map(lambda k: k / 8), st.floats(-1e6, 1e6)),
            min_size=1, max_size=40,
        ),
        st.sampled_from([0.125, 0.25, 1.0, 1e-9, 3.0]),
    )
    def test_matches_reference_loop(self, values, d):
        x = OpinionState(values)
        part = d_chain_partition(x, d)
        chains, diameters = self.reference_partition(x, d)
        assert part.chains == chains
        assert all(type(a) is int for chain in part.chains for a in chain)
        assert np.array(part.diameters).tobytes() == np.array(diameters).tobytes()
        assert all(type(v) is float for v in part.diameters)


# ---------------------------------------------------------------------------
# Row-blocked trust masks, interval windows and the exact settled-row test,
# against the dense kernels they replaced
# ---------------------------------------------------------------------------


def dense_trust_matrix(x, spec):
    """``trust_matrix`` before the row blocks: one (n, n) gap, or one (n, n, m)
    difference array and its norms, a Euclidean norm taken as
    s * ||diff / s|| where the largest |difference| s is finite and nonzero
    but outside [1e-150, 1e150]."""

    def column(bound):
        if isinstance(bound, float):
            return bound
        if len(bound) != x.n:
            raise ValueError("per-agent bounds must match the agent count")
        return np.asarray(bound)[:, None]

    if spec.lo is None:
        hi = column(spec.hi)
        diff = x.values[:, None, :] - x.values[None, :, :]
        dist = np.linalg.norm(diff, ord=NORM_ORDS[spec.norm], axis=2)
        scale = np.abs(diff).max(axis=2)
        redo = (scale > 0) & (scale < np.inf) & ((scale < 1e-150) | (scale > 1e150))
        if spec.norm == "euclidean" and redo.any():
            s = scale[redo][:, None]
            dist[redo] = s[:, 0] * np.linalg.norm(diff[redo] / s, axis=1)
        mask = dist <= hi if spec.closed else dist < hi
    else:
        if x.m != 1:
            raise ValueError("interval confidence variants require scalar opinions")
        lo, hi = column(spec.lo), column(spec.hi)
        v = x.flat
        gap = v[None, :] - v[:, None]
        if spec.closed:
            mask = (gap >= lo) & (gap <= hi)
        else:
            mask = (gap > lo) & (gap < hi)
    np.fill_diagonal(mask, True)
    return mask


def dense_masked_mean(values, mask):
    """The trust-set mean before the row blocks, the windows and the exact
    settled test: a row is settled when the (n, n, m) maximum and minimum of
    its trusted opinions agree. A row whose mean overflows is taken again,
    in the kernel's row parts, on the opinions over 2**k (2**k > n), then
    times 2**k."""
    counts = mask.sum(axis=1)
    means = (mask @ values) / counts[:, None]
    hi = np.where(mask[:, :, None], values[None, :, :], -np.inf).max(axis=1)
    lo = np.where(mask[:, :, None], values[None, :, :], np.inf).min(axis=1)
    settled = np.all(hi == lo, axis=1)
    if settled.any():
        means = np.where(settled[:, None], hi, means)
    scale = 2.0 ** len(values).bit_length()
    for part in bc._row_parts(np.flatnonzero(~np.isfinite(means).all(axis=1)), values.size):
        means[part] = (mask[part] @ (values / scale)) / counts[part, None] * scale
    return means


def _outcome(step):
    """The bytes of a step's result, or the type of the error it raised (a
    truth or inertial step whose sum overflows makes the next state
    non-finite)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return step().values.tobytes()
    except ValueError as exc:
        return type(exc)


def dense_steps(mask, x, lam, target):
    """The outcomes of ``hk_step``, ``truth_step`` and ``inertial_step``
    from a dense trust mask: ``dense_masked_mean`` composed as the truth and
    inertial steps compose the trust-set mean."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = dense_masked_mean(x.values, mask)
    target = np.asarray(target, dtype=float)
    return [
        _outcome(lambda: OpinionState(means)),
        _outcome(lambda: OpinionState(lam[:, None] * means + (1.0 - lam)[:, None] * target[None, :])),
        _outcome(lambda: OpinionState((1.0 - lam)[:, None] * x.values + lam[:, None] * means)),
    ]


def assert_matches_dense(x, spec, lam, target):
    with np.errstate(over="ignore", invalid="ignore"):
        dense = dense_trust_matrix(x, spec)
        mask = bc.trust_matrix(x, spec)
        assert mask.dtype == bool and mask.shape == (x.n, x.n)
        assert np.array_equal(mask, dense)
        assert np.array_equal(bc._trust(x, spec)[1], dense.sum(axis=1))
    steps = (lambda: hk_step(x, spec), lambda: truth_step(x, lam, target, spec),
             lambda: inertial_step(x, lam, spec))
    assert [_outcome(step) for step in steps] == dense_steps(dense, x, lam, target)


SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.7e308, -1.7e308,
           1.7976931348623157e308, 0.5, 1.0)
# Sizes at the edges of the 32-row trust blocks and of _masked_mean's scalar
# product blocks: 353 rows are one block of 352 and its lone last row, 354
# leave a 2-row last block and 355 a 3-row one, n not a multiple of 4.
BLOCK_EDGES = (1, 255, 256, 257, 353, 354, 355, 600)
opinion = st.one_of(st.integers(-16, 16).map(lambda k: k / 16), st.sampled_from(SPECIAL),
                    st.floats(-1e3, 1e3))
radius = st.one_of(st.integers(1, 16).map(lambda k: k / 16),
                   st.sampled_from([5e-324, 1e-300, 1.7e308, float("inf")]))


@st.composite
def opinions(draw, m):
    """n x m opinions drawn from a small pool, so that ties, signed zeros and
    settled rows are common, or spread on a signed 1/16 grid."""
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from(BLOCK_EDGES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(opinion, min_size=1, max_size=6)))
        values = rng.choice(pool, size=(n, m))
    else:
        values = rng.integers(-32, 33, size=(n, m)) / 16 * rng.choice([1.0, -1.0], size=(n, m))
    return OpinionState(values)


@st.composite
def bc_cases(draw):
    """(opinions, spec, lam, target) over every confidence geometry."""
    family = draw(st.sampled_from(["symmetric", "asymmetric", "per_agent", "shifted", "window",
                                   "ball", "ball_per_agent"]))
    closed = draw(st.booleans())
    m = draw(st.integers(1, 3)) if family.startswith("ball") else 1
    x = draw(opinions(m))
    n = x.n
    per_agent = st.lists(radius, min_size=n, max_size=n)
    if family == "symmetric":
        spec = ConfidenceSpec.symmetric(draw(radius), closed)
    elif family == "asymmetric":
        spec = ConfidenceSpec.asymmetric(draw(radius), draw(radius), closed)
    elif family == "per_agent":
        spec = ConfidenceSpec.per_agent(draw(per_agent), closed)
    elif family == "shifted":
        d = draw(st.integers(1, 16)) / 16
        eta = draw(st.lists(st.integers(0, int(d * 16) - 1).map(lambda k: k / 16),
                            min_size=n, max_size=n))
        spec = ConfidenceSpec.shifted(d, eta, closed)
    elif family == "window":
        spec = ConfidenceSpec(lo=[-r for r in draw(per_agent)], hi=draw(per_agent),
                              closed=closed)
    else:
        norm = draw(st.sampled_from(["euclidean", "max", "sum"]))
        d = draw(per_agent) if family == "ball_per_agent" else draw(radius)
        spec = ConfidenceSpec.norm_ball(d, norm, closed)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.integers(0, 5, size=n) / 4
    target = rng.integers(-8, 9, size=m) / 8
    return x, spec, lam, target


class TestBlockedKernels:
    @settings(max_examples=200, deadline=None)
    @given(bc_cases())
    def test_steps_and_masks_bit_equal_to_dense(self, case):
        assert_matches_dense(*case)

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([0.0, -0.0, 0.0, -0.0, 0.25], id="signed-zero-ties"),
            pytest.param([-0.0, -0.0, 0.0, 1.0, 1.0, 1.0, 3.0], id="zero-and-ties"),
            pytest.param([5e-324, -5e-324, 0.0, -0.0, 1e-320], id="subnormals"),
            pytest.param([1.7e308, -1.7e308, 1.7e308, 0.0, -1.7e308], id="overflowing-gaps"),
            pytest.param([1.7976931348623157e308] * 3 + [-1.7976931348623157e308] * 2,
                         id="extremes-tied"),
            # 500 rows of mixed signed zeros, settled under the 1e-323
            # bound: the +-0.0 maximum runs over three chunks of rows
            pytest.param([0.0, -0.0] * 200 + [-0.0] * 100 + [1.0] * 101 + [0.25], id="zero-blocks"),
        ],
    )
    @pytest.mark.parametrize(
        "spec",
        [
            ConfidenceSpec.symmetric(0.5),
            ConfidenceSpec.symmetric(0.5, closed=False),
            ConfidenceSpec.symmetric(1e-323),
            ConfidenceSpec.symmetric(float("inf")),
            ConfidenceSpec.asymmetric(0.25, 1.7e308),
            ConfidenceSpec.asymmetric(float("inf"), 0.25, closed=False),
        ],
    )
    def test_fixed_scalar_cases(self, values, spec):
        x = OpinionState(values)
        assert_matches_dense(x, spec, np.full(x.n, 0.75), np.array([0.125]))

    def test_signed_zeros_of_a_settled_row_follow_the_maximum(self):
        x = OpinionState([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [2.0, 2.0]])
        means = bc._trust_means(x, ConfidenceSpec.norm_ball(0.5))
        assert means.tobytes() == dense_masked_mean(
            x.values, dense_trust_matrix(x, ConfidenceSpec.norm_ball(0.5))).tobytes()
        assert means[3].tolist() == [2.0, 2.0]

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    @pytest.mark.parametrize(
        "build,m",
        [
            (lambda n, rng: ConfidenceSpec.symmetric(0.1), 1),
            (lambda n, rng: ConfidenceSpec.asymmetric(0.05, 0.2, closed=False), 1),
            (lambda n, rng: ConfidenceSpec.per_agent(rng.integers(1, 8, n) / 32), 1),
            (lambda n, rng: ConfidenceSpec.shifted(0.125, rng.integers(0, 4, n) / 32), 1),
            (lambda n, rng: ConfidenceSpec.norm_ball(0.125), 2),
            (lambda n, rng: ConfidenceSpec.norm_ball(rng.integers(1, 8, n) / 32, "max"), 2),
            (lambda n, rng: ConfidenceSpec.norm_ball(0.25, "sum", closed=False), 3),
            (lambda n, rng: ConfidenceSpec.norm_ball(0.2, "euclidean"), 3),
        ],
    )
    def test_runs_across_block_edges(self, n, build, m):
        # a few steps from a grid start, so ties, settled rows and clusters occur
        rng = np.random.default_rng(n * 10 + m)
        x = OpinionState(rng.integers(0, 64, size=(n, m)) / 64)
        spec = build(n, rng)
        for _ in range(3):
            assert_matches_dense(x, spec, rng.integers(0, 5, n) / 4, np.full(m, 0.5))
            x = hk_step(x, spec)

    @pytest.mark.parametrize(
        "spec,m,limit",
        [
            (ConfidenceSpec.norm_ball(0.1), 2, 12),
            (ConfidenceSpec.norm_ball(0.1, "max"), 2, 12),
        ],
    )
    def test_trust_matrix_peak_memory(self, spec, m, limit):
        # the dense test peaked at about 48 n^2 bytes (a 2-D ball); the mask
        # itself is n^2
        n = 2000
        x = OpinionState(np.random.default_rng(3).uniform(0.0, 1.0, size=(n, m)))
        tracemalloc.start()
        try:
            mask = bc.trust_matrix(x, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.shape == (n, n)
        assert peak < limit * n * n

    @pytest.mark.parametrize("zeros", [False, True], ids=["uniform", "half-at-zero"])
    @pytest.mark.parametrize(
        "spec",
        [
            ConfidenceSpec.symmetric(0.1),
            ConfidenceSpec.per_agent(np.full(2000, 0.1), closed=False),
            ConfidenceSpec.shifted(0.1, np.full(2000, 0.05)),
        ],
        ids=["symmetric", "per-agent-open", "shifted"],
    )
    def test_scalar_step_peak_memory(self, spec, zeros):
        # the dense gap test peaked at about 10 n^2 bytes, the single
        # product's float copy of the mask at 9 n^2, and the signed-zero
        # maximum over all of half the rows at 5.5 n^2; the mask itself is n^2
        n = 2000
        values = np.random.default_rng(5).uniform(0.5 if zeros else 0.0, 1.0, size=n)
        if zeros:
            values[: n // 2] = 0.0  # settled rows with a zero component
        x = OpinionState(values)
        tracemalloc.start()
        try:
            hk_step(x, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n


class TestDistanceKernel:
    """``state._distance_blocks``, the one kernel of every pairwise distance,
    against the dense (n, n, m) difference array and its norms."""

    @pytest.mark.parametrize("norm", ["euclidean", "max", "sum", "squared"])
    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("kind", ["random", "tied", "signed-zero"])
    def test_bits_of_the_dense_norms(self, kind, m, norm):
        rng = np.random.default_rng(m)
        n = 70  # two full blocks of 32 rows and a partial one
        if kind == "random":
            values = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4, size=(n, m))
        elif kind == "tied":
            values = rng.choice([0.1, 0.25, 1.0, 3.0], size=(n, m))
        else:
            values = rng.choice([0.0, -0.0, 0.5, -0.5], size=(n, m))
        if norm == "squared":
            want = pairwise_sq(values)
        else:
            diff = values[:, None, :] - values[None, :, :]
            want = np.linalg.norm(diff, ord=NORM_ORDS[norm], axis=-1)
        assert [rows for rows, _ in state._distance_blocks(values, norm)] == [
            slice(0, 32), slice(32, 64), slice(64, 96)]
        assert state._distances(values, norm).tobytes() == want.tobytes()

    def test_diameter_peak_memory(self):
        # the whole (n, n, m) difference array peaked at 53.4 MiB
        x = OpinionState(np.random.default_rng(5).uniform(0.0, 1.0, size=(1000, 3)))
        tracemalloc.start()
        try:
            diameter = x.diameter()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diameter == np.sqrt(pairwise_sq(x.values)).max()
        assert peak < 2_000_000


class TestWindowEnds:
    @pytest.mark.parametrize(
        "pair,spec,expected",
        [
            # the gap 0.25 sits exactly on the bound: one group, or two
            ((0.0, 0.25), ConfidenceSpec.symmetric(0.25), [0.125]),
            ((0.0, 0.25), ConfidenceSpec.symmetric(0.25, closed=False), [0.0, 0.25]),
            # 0.1 + 0.2 rounds up onto the upper group, but the gap from 0.1
            # rounds above 0.2: the first guess lands past all 5000 ties
            ((0.1, 0.1 + 0.2), ConfidenceSpec.symmetric(0.2), [0.1, 0.1 + 0.2]),
        ],
        ids=["closed", "open", "guess-past-the-ties"],
    )
    def test_ten_thousand_ties_on_a_window_end(self, pair, spec, expected):
        x = OpinionState(np.repeat(pair, 5000))
        start = time.perf_counter()
        bc._windows(x, spec)
        # a search that stepped one tie per round would take 5000 rounds
        assert time.perf_counter() - start < 0.1
        assert np.unique(hk_step(x, spec).values).tolist() == expected
        # the dense oracle's gaps at 10^4 agents are 800 MB; a few hundred
        # ties take the same guesses
        x = OpinionState(np.repeat(pair, 300))
        assert_matches_dense(x, spec, np.full(x.n, 0.75), np.array([0.125]))

    @pytest.mark.parametrize(
        "values,spec",
        [
            # x_i + hi overflows for the upper agent, but no gap does
            ((1.0, 1.5e308), ConfidenceSpec.symmetric(1e308)),
            # the gaps between the outer agents overflow to -inf and +inf
            ((-1.7e308, 1.7e308, 0.0), ConfidenceSpec.symmetric(0.5)),
            # and the gaps of -1.7e308 to the middle agent lie on the bound
            ((-1.7e308, 1.7e308, 0.0), ConfidenceSpec.asymmetric(1.7e308, 0.5)),
            ((-1.7e308, 1.7e308, 0.0), ConfidenceSpec.asymmetric(1.7e308, 0.5, closed=False)),
        ],
        ids=["guess", "gap", "gap-on-the-bound", "gap-open"],
    )
    def test_an_overflow_does_not_warn(self, values, spec):
        x = OpinionState(values)
        lam = np.linspace(0.5, 1.0, x.n)
        steps = [hk_step(x, spec), truth_step(x, lam, [1.0], spec), inertial_step(x, lam, spec)]
        with np.errstate(over="ignore"):
            dense = dense_steps(dense_trust_matrix(x, spec), x, lam, [1.0])
        assert [step.values.tobytes() for step in steps] == dense


class TestScalarProductBlocks:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 352, 353, 354, 355, 801, 4096, 4097, 5000])
    def test_blocks_start_on_four_and_never_hold_one_row(self, n):
        blocks = bc._product_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(block.start % 4 == 0 for block in blocks)
        assert all(block.stop - block.start >= 2 for block in blocks) or n == 1
        assert all(block.stop - block.start <= max(32, bc._PRODUCT_ENTRIES // n) + 1
                   for block in blocks)

    def test_sums_equal_the_single_product_on_one_thread(self):
        # uniform opinions, so the order of each row's sum shows in its bits;
        # 160-row blocks with a last row of their own (801, 1057 in 96-row
        # blocks), a 2-row and a 3-row last block
        out = run_with_openblas_threads(1, EDGE_SUMS)
        assert out.split() == ["True"] * 4

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_scalar_runs_equal_at_one_and_two_threads(self):
        # the single product split its rows between two threads at an
        # unaligned row: this run stopped at step 5 on one thread, 9 on two
        one, two = (run_with_openblas_threads(threads, SCALAR_RUNS) for threads in (1, 2))
        assert one == two


SRC = Path(bc.__file__).resolve().parents[1]
EDGE_SUMS = """
import numpy as np
from opiniondyn import ConfidenceSpec, OpinionState
from opiniondyn import bounded_confidence as bc
for n in (801, 802, 803, 1057):
    x = OpinionState(np.random.default_rng(n).uniform(size=n))
    spec = ConfidenceSpec.symmetric(0.5)
    low, high, _ = bc._windows(x, spec)
    mask = (x.flat >= low[:, None]) & (x.flat <= high[:, None])
    dense = (mask @ x.values) / mask.sum(axis=1)[:, None]
    print(bc._trust_means(x, spec).tobytes() == dense.tobytes())
"""
SCALAR_RUNS = """
import hashlib
import numpy as np
from opiniondyn import ConfidenceSpec, OpinionState, hk_step, simulate_bc
spec = ConfidenceSpec.symmetric(0.3)
x0 = OpinionState(np.random.default_rng(1500).uniform(size=1500))
traj = simulate_bc(lambda s: hk_step(s, spec), x0, max_steps=100)
print(traj.terminated_at, hashlib.sha256(traj.array.tobytes()).hexdigest())
for n in (1003, 2501):
    x = OpinionState(np.random.default_rng(n).uniform(size=n))
    print(hashlib.sha256(hk_step(x, spec).values.tobytes()).hexdigest())
"""


def run_with_openblas_threads(threads, script):
    """Standard output of ``script`` in a new interpreter whose OpenBLAS
    runs ``threads`` threads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout
