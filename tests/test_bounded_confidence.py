import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import (
    ConfidenceSpec,
    MaxStepsError,
    NonConvergentError,
    OpinionState,
    d_chain_partition,
    heterophily_phi,
    hk_energy,
    hk_indicator_phi,
    hk_step,
    inertial_step,
    phi_energy,
    phi_step,
    reputation_phi,
    simulate_bc,
    smooth_hk_simulate,
    trust_set,
    truth_step,
)
from opiniondyn import bounded_confidence as bc
from opiniondyn.bounded_confidence import PhiSpec
from opiniondyn.presets import TETRA_X0


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
    def test_basic_membership(self):
        x = OpinionState([0.0, 0.05, 1.0])
        spec = ConfidenceSpec.symmetric(0.1)
        assert trust_set(x, 0, spec) == {0, 1}
        assert trust_set(x, 2, spec) == {2}

    def test_boundary_closed_vs_open(self):
        x = OpinionState([0.0, 0.1])
        assert trust_set(x, 0, ConfidenceSpec.symmetric(0.1, closed=True)) == {0, 1}
        assert trust_set(x, 0, ConfidenceSpec.symmetric(0.1, closed=False)) == {0}

    def test_euclidean_ball_boundary(self):
        x = OpinionState([[0.0, 0.0], [3.0, 4.0]])
        spec = ConfidenceSpec.norm_ball(5.0)
        assert trust_set(x, 0, spec) == {0, 1}
        assert trust_set(x, 1, spec) == {0, 1}

    def test_max_and_sum_norms(self):
        x = OpinionState([[0.0, 0.0], [3.0, 4.0]])
        assert trust_set(x, 0, ConfidenceSpec.norm_ball(4.5, norm="max")) == {0, 1}
        assert trust_set(x, 0, ConfidenceSpec.norm_ball(4.5, norm="sum")) == {0}

    def test_asymmetric_interval(self):
        x = OpinionState([0.0, 0.3, -0.3])
        spec = ConfidenceSpec.asymmetric(d_left=0.1, d_right=0.5)
        assert trust_set(x, 0, spec) == {0, 1}

    def test_shifted_requires_eta_below_d(self):
        with pytest.raises(ValueError):
            ConfidenceSpec.shifted(0.2, [0.0, 0.3])

    def test_interval_variant_rejects_vector_opinions(self):
        with pytest.raises(ValueError):
            trust_set(OpinionState([[0.0, 1.0], [1.0, 0.0]]), 0, ConfidenceSpec.symmetric(1.0))


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
            w = np.array([phi.weight(i, j, (v[j] - v[i]) ** 2) for j in range(4)])
            assert out[i] == pytest.approx((w @ v) / w.sum())

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
        with pytest.raises(ValueError, match="confidence bound must be positive"):
            hk_indicator_phi(d)
        with pytest.raises(ValueError, match="confidence bound must be positive"):
            reputation_phi([1.0, 2.0], d)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_reputation_weights_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="reputations must be positive"):
            reputation_phi([1.0, bad], 0.5)

    def test_diagonal_weight_must_be_positive_constant(self):
        with pytest.raises(ValueError):
            PhiSpec(phi=lambda s: 0.0)
        with pytest.raises(ValueError):
            PhiSpec(phi_table=((lambda s: s,),))


class TestTruthStep:
    def test_full_weight_reduces_to_plain_step(self):
        rng = np.random.default_rng(3)
        spec = ConfidenceSpec.symmetric(0.2)
        for _ in range(20):
            x = OpinionState(rng.uniform(0, 1, size=6))
            out = truth_step(x, np.ones(6), [0.5], spec)
            assert np.array_equal(out.values, hk_step(x, spec).values)

    def test_zero_weight_jumps_to_target(self):
        x = OpinionState([0.1, 0.9])
        out = truth_step(x, np.zeros(2), [0.4], ConfidenceSpec.symmetric(0.2))
        assert np.array_equal(out.values[:, 0], [0.4, 0.4])

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

    def test_indicator_potential_equals_plain_energy(self):
        rng = np.random.default_rng(11)
        phi = hk_indicator_phi(0.4)
        for _ in range(20):
            x = OpinionState(rng.uniform(0, 1, size=6))
            assert phi_energy(x, phi) == pytest.approx(hk_energy(x, 0.4), rel=1e-12)

    def test_phi_energy_zero_at_consensus(self):
        phi = hk_indicator_phi(0.4)
        assert phi_energy(OpinionState([0.7] * 5), phi) == 0.0

    def test_weighted_energy_decrease_for_nonincreasing_weights(self):
        # smooth non-increasing weight function with closed-form potential
        phi = PhiSpec(phi=lambda s: np.exp(-s), antiderivative=lambda r: 1.0 - np.exp(-r))
        rng = np.random.default_rng(12)
        x = OpinionState(rng.uniform(0, 1, size=6))
        for _ in range(40):
            x_next = phi_step(x, phi)
            drop = phi_energy(x, phi) - phi_energy(x_next, phi)
            moved = ((x_next.values - x.values) ** 2).sum()
            assert drop >= 4.0 * phi.weight(0, 0, 0.0) * moved - 1e-9
            x = x_next

    def test_quadrature_potential_matches_closed_form(self):
        spec_quad = PhiSpec(phi=lambda s: np.exp(-s))
        for r in (0.0, 0.3, 1.7, 9.0):
            assert spec_quad.potential(0, 0, r) == pytest.approx(1.0 - np.exp(-r), abs=1e-7)

    def test_quadrature_of_a_jump_raises_after_a_bounded_number_of_calls(self):
        calls = []

        def step(sigma):
            calls.append(sigma)
            return 1.0 if sigma <= 1.0 / 3.0 else 0.25

        spec = PhiSpec(phi=step)  # no antiderivative: potential() integrates
        calls.clear()
        with pytest.raises(NonConvergentError) as info:
            spec.potential(0, 0, 1.0)
        assert info.value.iterations == 12
        assert len(calls) == 64 * 2**12 + 1

    def test_quadrature_reuses_values_bit_for_bit(self):
        # reference: every pass evaluates phi on its whole grid
        def reference(f, r, target=1e-8, max_doublings=12):
            n = 64
            grid = np.linspace(0.0, r, n + 1)
            est = np.trapezoid(np.array([f(g) for g in grid]), grid)
            for _ in range(max_doublings):
                n *= 2
                grid = np.linspace(0.0, r, n + 1)
                nxt = np.trapezoid(np.array([f(g) for g in grid]), grid)
                if abs(nxt - est) < target:
                    return float(nxt)
                est = nxt
            raise AssertionError("reference did not converge")

        for f in (lambda s: np.exp(-s), lambda s: 1.0 / (1.0 + s * s), lambda s: np.cos(s) + 2):
            for r in (1e-300, 0.3, 0.71, 1.7, 9.0):
                assert PhiSpec(phi=f).potential(0, 0, r) == reference(f, r)


class TestDChains:
    def test_three_chain_figure(self):
        part = d_chain_partition(OpinionState([0, 0.5, 2, 2.4, 5, 5.5, 6]), d=0.6)
        assert part.chains == ((0, 1), (2, 3), (4, 5, 6))
        assert part.diameters == pytest.approx((0.5, 0.4, 1.0))

    def test_single_chain_when_all_close(self):
        part = d_chain_partition(OpinionState([0.0, 0.1, 0.2]), d=0.5)
        assert part.chains == ((0, 1, 2),)

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


class TestSmoothFlow:
    def test_constant_profile_linear_flow_to_mean(self):
        x0 = OpinionState([0.0, 1.0])
        traj = smooth_hk_simulate(x0, lambda y: 1.0, t_end=15.0, dt=0.01)
        assert np.max(np.abs(traj.final.values - 0.5)) < 1e-8

    def test_default_step_is_the_flow_default(self):
        # without dt the step is 0.01 / (1 + largest row sum) of the
        # influence matrix at the start, bit for bit
        rng = np.random.default_rng(16)
        x0 = OpinionState(rng.uniform(0, 1, size=6))

        def profile(y):
            return max(0.0, 0.4 - abs(y)) * 3.7

        gap = x0.flat[None, :] - x0.flat[:, None]
        a = np.vectorize(profile, otypes=[float])(gap)
        np.fill_diagonal(a, 0.0)
        dt = 0.01 / (1.0 + float(np.abs(a).sum(axis=1).max()))
        default = smooth_hk_simulate(x0, profile, t_end=0.7)
        explicit = smooth_hk_simulate(x0, profile, t_end=0.7, dt=dt)
        assert default.array.tobytes() == explicit.array.tobytes()
        assert default.stamps.tobytes() == explicit.stamps.tobytes()

    def test_mean_conserved_along_trajectory(self):
        rng = np.random.default_rng(14)
        x0 = OpinionState(rng.uniform(0, 1, size=8))
        d = 0.3

        def bump(y):
            z = abs(y) / d
            return float(np.exp(-1.0 / (1.0 - z * z))) if z < 1.0 else 0.0

        traj = smooth_hk_simulate(x0, bump, t_end=10.0, dt=0.02)
        means = traj.array[:, :, 0].mean(axis=1)
        assert np.max(np.abs(means - means[0])) < 1e-7

    def test_compact_support_yields_separated_clusters(self):
        rng = np.random.default_rng(15)
        d = 0.25

        def bump(y):
            z = abs(y) / d
            return float(np.exp(-1.0 / (1.0 - z * z))) if z < 1.0 else 0.0

        for _ in range(3):
            x0 = OpinionState(rng.uniform(0, 1, size=10))
            traj = smooth_hk_simulate(x0, bump, t_end=200.0, dt=0.05)
            v = np.sort(traj.final.values[:, 0])
            gaps = np.diff(v)
            assert np.all((gaps < 1e-3) | (gaps >= d - 1e-3))


# ---------------------------------------------------------------------------
# Row-blocked trust masks and the exact settled-row test, against the dense
# kernels they replaced
# ---------------------------------------------------------------------------


def dense_trust_matrix(x, spec):
    """``trust_matrix`` before the row blocks: one (n, n) gap, or one (n, n, m)
    difference array and its norms."""

    def column(bound):
        if isinstance(bound, float):
            return bound
        if len(bound) != x.n:
            raise ValueError("per-agent bounds must match the agent count")
        return np.asarray(bound)[:, None]

    if spec.lo is None:
        hi = column(spec.hi)
        diff = x.values[:, None, :] - x.values[None, :, :]
        dist = np.linalg.norm(diff, ord=bc._NORM_ORDS[spec.norm], axis=2)
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
    """``_masked_mean`` before the exact settled test: a row is settled when
    the (n, n, m) maximum and minimum of its trusted opinions agree."""
    counts = mask.sum(axis=1)
    means = (mask @ values) / counts[:, None]
    hi = np.where(mask[:, :, None], values[None, :, :], -np.inf).max(axis=1)
    lo = np.where(mask[:, :, None], values[None, :, :], np.inf).min(axis=1)
    settled = np.all(hi == lo, axis=1)
    if settled.any():
        means = np.where(settled[:, None], hi, means)
    return means


def _outcome(step):
    """The bytes of a step's result, or the type of the error it raised (a
    mean that overflows makes the next state non-finite)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return step().values.tobytes()
    except ValueError as exc:
        return type(exc)


def assert_matches_dense(x, spec, lam, target):
    steps = (lambda: hk_step(x, spec), lambda: truth_step(x, lam, target, spec),
             lambda: inertial_step(x, lam, spec))
    with np.errstate(over="ignore", invalid="ignore"):
        mask = bc.trust_matrix(x, spec)
    assert mask.dtype == bool and mask.shape == (x.n, x.n)
    new = [_outcome(step) for step in steps]
    with mock.patch.multiple(bc, trust_matrix=dense_trust_matrix,
                             _masked_mean=dense_masked_mean):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(mask, bc.trust_matrix(x, spec))
        old = [_outcome(step) for step in steps]
    assert new == old


SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.7e308, -1.7e308,
           1.7976931348623157e308, 0.5, 1.0)
BLOCK_EDGES = (1, 255, 256, 257, 600)
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
        means = bc._masked_mean(x.values, bc.trust_matrix(x, ConfidenceSpec.norm_ball(0.5)))
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
            (ConfidenceSpec.symmetric(0.1), 1, 4),
            (ConfidenceSpec.per_agent(np.full(2000, 0.1), closed=False), 1, 4),
            (ConfidenceSpec.shifted(0.1, np.full(2000, 0.05)), 1, 4),
            (ConfidenceSpec.norm_ball(0.1), 2, 12),
            (ConfidenceSpec.norm_ball(0.1, "max"), 2, 12),
        ],
    )
    def test_trust_matrix_peak_memory(self, spec, m, limit):
        # the dense test peaked at about 10 n^2 bytes (intervals) and 48 n^2
        # (a 2-D ball); the mask itself is n^2
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
