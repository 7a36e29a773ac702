import numpy as np
import pytest

from opiniondyn import (
    FJSpec,
    NonConvergentError,
    OpinionState,
    SignedGraph,
    UnstableError,
    WeightSpec,
    check_type_symmetry,
    degroot_step,
    fj_fixed_point,
    flow_simulate,
    gauge_apply,
    gauge_from_balance,
    matrix_product_limit,
    predict_bipartite_consensus,
    simulate_discrete,
    structural_balance,
    verify_convergence_premises,
    verify_uqsc,
)
from opiniondyn import linear_dynamics
from opiniondyn.net_graph import signed_laplacian_matrix
from opiniondyn.presets import ALTAFINI3_A, FJ4_LAMBDA, FJ4_U, FJ4_W

from test_net_graph import random_balanced_graph


def random_stochastic(rng, n, self_loops=True):
    w = rng.uniform(0, 1, size=(n, n)) * rng.integers(0, 2, size=(n, n))
    if self_loops:
        w += np.eye(n) * rng.uniform(0.2, 1.0)
    w[w.sum(axis=1) == 0, 0] = 1.0
    return w / w.sum(axis=1, keepdims=True)


class TestWeightSpec:
    @pytest.mark.parametrize("kind", ["stochastic", "nonnegative", "signed"])
    @pytest.mark.parametrize("provider", ["constant", "scheduled"])
    def test_matrices_are_frozen_copies(self, kind, provider):
        # a caller's later writes to its own array never reach the spec, so
        # the matrices the spec hands out stay the validated ones
        w = np.full((2, 2), 0.5)
        if provider == "constant":
            spec = WeightSpec.constant(kind, w)
        else:
            spec = WeightSpec.scheduled(kind, [(1.0, w), (2.0, w)])
        held = [spec.matrix_at(0.5), spec.matrix_at(1.5)]
        w[0, 0] = -3.0
        for m in held + [spec.matrix_at(0.5), spec.matrix_at(1.5)]:
            assert m is not w
            assert not m.flags.writeable
            assert np.array_equal(m, np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            held[0][0, 0] = -3.0


class TestCheckStochastic:
    @pytest.mark.parametrize("matrix,message", [
        ([[np.nan, 1.0], [0.5, 0.5]], "matrix entries must be finite"),
        ([[np.inf, 0.0], [0.5, 0.5]], "matrix entries must be finite"),
        ([[-np.inf, 1.0], [0.5, 0.5]], "matrix entries must be finite"),
        ([[-0.5, 1.5], [0.5, 0.5]], "stochastic matrix must be entrywise nonnegative"),
        ([[0.5, 0.5 + 2e-9], [0.5, 0.5]], "row sums deviate from 1 by more than 1e-09: [1. 1.]"),
        ([[0.5, 0.5]], "matrix must be square, got shape (1, 2)"),
        ([0.5, 0.5], "matrix must be square, got shape (2,)"),
    ], ids=["nan", "+inf", "-inf", "negative", "row-sum", "non-square", "1-d"])
    def test_error_messages(self, matrix, message):
        with pytest.raises(ValueError) as info:
            linear_dynamics.check_stochastic(matrix)
        assert str(info.value) == message

    def test_infinite_tolerance_still_rejects_infinite_entries(self):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            linear_dynamics.check_stochastic([[np.inf, 0.0], [0.5, 0.5]], tol=np.inf)

    def test_empty_matrix_is_accepted(self):
        w = linear_dynamics.check_stochastic(np.zeros((0, 0)))
        assert w.shape == (0, 0)

    def test_int_matrix_comes_back_as_float(self):
        w = linear_dynamics.check_stochastic([[1, 0], [0, 1]])
        assert w.dtype == np.float64
        assert np.array_equal(w, np.eye(2))

    def test_valid_matrix_is_returned_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 8, 100):
            m = random_stochastic(rng, n)
            for given in (m, m.tolist()):
                w = linear_dynamics.check_stochastic(given)
                assert w.tobytes() == np.asarray(given, dtype=float).tobytes()


class TestDegrootStep:
    def test_identity_is_noop(self):
        x = OpinionState([0.3, -1.2, 4.0])
        out = degroot_step(np.eye(3), x)
        assert np.array_equal(out.values, x.values)

    def test_uniform_average(self):
        out = degroot_step(np.full((2, 2), 0.5), OpinionState([0.0, 1.0]))
        assert np.array_equal(out.values[:, 0], [0.5, 0.5])

    def test_hull_never_expands(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            w = random_stochastic(rng, n)
            x = OpinionState(rng.normal(size=n))
            out = degroot_step(w, x)
            assert out.values.min() >= x.values.min() - 1e-12
            assert out.values.max() <= x.values.max() + 1e-12

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            degroot_step(np.array([[0.5, 0.6], [0.5, 0.5]]), OpinionState([0.0, 1.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            degroot_step(np.eye(3), OpinionState([0.0, 1.0]))


class TestSimulateDiscrete:
    def test_permutation_oscillates_forever(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        traj = simulate_discrete(WeightSpec.constant("stochastic", w), OpinionState([0.0, 1.0]), 9)
        assert traj.terminated_at is None
        assert np.array_equal(traj.array[2], traj.array[0])
        assert np.array_equal(traj.array[1][:, 0], [1.0, 0.0])

    def test_static_regular_matrix_reaches_predicted_consensus(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            w = random_stochastic(rng, n)
            spec = WeightSpec.constant("stochastic", w)
            x0 = OpinionState(rng.uniform(-1, 1, size=n))
            limit = matrix_product_limit(spec, tol=1e-14, max_iter=100000)
            traj = simulate_discrete(spec, x0, steps=2000)
            assert np.max(np.abs(traj.final.values - limit @ x0.values)) < 1e-8

    def test_signed_negative_swap_pattern(self):
        # w11 = w22 = 0, w12 = w21 = -1: x(k) alternates sign and swaps
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        x0 = np.array([0.7, -0.2])
        traj = simulate_discrete(WeightSpec.constant("signed", w), OpinionState(x0), 7)
        for k in range(8):
            expected = x0 if k % 2 == 0 else -x0[::-1]
            assert np.array_equal(traj.array[k][:, 0], expected)
        assert np.max(np.abs(traj.array)) <= np.abs(x0).max()

    def test_signed_requires_row_stochastic_moduli(self):
        w = np.array([[0.0, -2.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            simulate_discrete(WeightSpec.constant("signed", w), OpinionState([1.0, 2.0]), 3)

    def test_signed_rule_matrices_are_checked_every_step(self):
        good = np.array([[0.5, -0.5], [-0.5, 0.5]])
        bad = np.array([[0.5, -1.0], [-0.5, 0.5]])
        spec = WeightSpec.from_rule("signed", lambda t, x: good if t < 2 else bad, n=2)
        with pytest.raises(ValueError, match="modulus row sums"):
            simulate_discrete(spec, OpinionState([1.0, 2.0]), 5)

    def test_stochastic_rule_matrix_validated_once_per_step(self, monkeypatch):
        calls = []
        check = linear_dynamics.check_stochastic

        def counting(matrix, *args, **kwargs):
            calls.append(1)
            return check(matrix, *args, **kwargs)

        monkeypatch.setattr(linear_dynamics, "check_stochastic", counting)
        rng = np.random.default_rng(3)
        mats = [random_stochastic(rng, 4) for _ in range(3)]
        spec = WeightSpec.from_rule("stochastic", lambda t, x: mats[int(t) % 3], n=4)
        traj = simulate_discrete(spec, OpinionState(rng.uniform(size=4)), 30)
        assert len(calls) == 30
        x = traj.array[0]
        for k in range(30):
            x = mats[k % 3] @ x
            assert np.array_equal(traj.array[k + 1], x)
        with pytest.raises(ValueError, match="row sums"):
            simulate_discrete(
                WeightSpec.from_rule("stochastic", lambda t, x: 2.0 * mats[0], n=4),
                OpinionState(rng.uniform(size=4)), 3,
            )

    def test_interval_never_expands_per_dimension(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            mats = [random_stochastic(rng, n) for _ in range(4)]
            spec = WeightSpec.scheduled("stochastic", [(k + 1.0, m) for k, m in enumerate(mats)])
            x0 = OpinionState(rng.normal(size=(n, 2)))
            traj = simulate_discrete(spec, x0, steps=4)
            for k in range(1, len(traj)):
                for dim in range(2):
                    assert traj.array[k][:, dim].min() >= traj.array[k - 1][:, dim].min() - 1e-12
                    assert traj.array[k][:, dim].max() <= traj.array[k - 1][:, dim].max() + 1e-12


class TestMatrixProductLimit:
    def test_identity_limit(self):
        limit = matrix_product_limit(WeightSpec.constant("stochastic", np.eye(3)), tol=1e-12)
        assert np.array_equal(limit, np.eye(3))

    def test_regular_constant_rank_one_limit_matches_eigen_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            w = random_stochastic(rng, n)
            limit = matrix_product_limit(WeightSpec.constant("stochastic", w), tol=1e-14)
            assert np.linalg.matrix_rank(limit, tol=1e-8) == 1
            # oracle: dominant left eigenvector from a dense eigendecomposition
            vals, vecs = np.linalg.eig(w.T)
            p = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
            p = p / p.sum()
            assert np.all(p > -1e-12)
            for row in limit:
                assert np.max(np.abs(row - p)) < 1e-8

    def test_block_diagonal_limit(self):
        rng = np.random.default_rng(4)
        w1 = random_stochastic(rng, 2)
        w2 = random_stochastic(rng, 3)
        w = np.block([[w1, np.zeros((2, 3))], [np.zeros((3, 2)), w2]])
        limit = matrix_product_limit(WeightSpec.constant("stochastic", w), tol=1e-14)
        assert np.max(np.abs(limit[:2, 2:])) == 0
        assert np.max(np.abs(limit[2:, :2])) == 0
        l1 = matrix_product_limit(WeightSpec.constant("stochastic", w1), tol=1e-14)
        l2 = matrix_product_limit(WeightSpec.constant("stochastic", w2), tol=1e-14)
        assert np.max(np.abs(limit[:2, :2] - l1)) < 1e-10
        assert np.max(np.abs(limit[2:, 2:] - l2)) < 1e-10

    def test_periodic_matrix_raises(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonConvergentError):
            matrix_product_limit(WeightSpec.constant("stochastic", w), tol=1e-10, max_iter=500)


class TestConvergencePremises:
    def test_identity_sequence_passes(self):
        report = verify_convergence_premises([np.eye(3)] * 4, delta=0.5)
        assert report.passed

    def test_small_coupling_violates_non_vanishing(self):
        w = np.array([[0.99, 0.01], [0.01, 0.99]])
        report = verify_convergence_premises([w], delta=0.1)
        assert not report.passed
        assert report.violation["condition"] == "non_vanishing"

    def test_one_sided_coupling_violates_reciprocity(self):
        w = np.array([[0.5, 0.5], [0.0, 1.0]])
        report = verify_convergence_premises([w], delta=0.5)
        assert not report.passed
        assert report.violation["condition"] == "reciprocity"

    def test_weak_diagonal_violates_self_confidence(self):
        w = np.array([[0.05, 0.95], [0.95, 0.05]])
        report = verify_convergence_premises([w], delta=0.1)
        assert not report.passed
        assert report.violation["condition"] == "self_confidence"


class TestUqsc:
    def test_constant_strongly_connected_passes(self):
        a = np.ones((3, 3)) - np.eye(3)
        spec = WeightSpec.scheduled("nonnegative", [(10.0, a)])
        assert verify_uqsc(spec, window_t=2.0, eps=1e-6, bound_m=2.0).passed

    def test_alternating_schedule_union_has_tree(self):
        # arcs 1->2 in one phase, 2->3 in the other; only the union over a
        # full period contains a spanning tree
        a1 = np.zeros((3, 3))
        a1[1, 0] = 1.0
        a2 = np.zeros((3, 3))
        a2[2, 1] = 1.0
        entries = []
        t = 0.0
        for k in range(10):
            t += 1.0
            entries.append((t, a1 if k % 2 == 0 else a2))
        spec = WeightSpec.scheduled("nonnegative", entries)
        assert verify_uqsc(spec, window_t=2.0, eps=1e-6, bound_m=1.5).passed
        assert not verify_uqsc(spec, window_t=1.0, eps=1e-6, bound_m=1.5).passed

    def test_disconnected_dyads_fail(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        spec = WeightSpec.scheduled("nonnegative", [(10.0, a)])
        report = verify_uqsc(spec, window_t=2.0, eps=1e-6, bound_m=1.5)
        assert not report.passed
        assert report.violation["condition"] == "no_spanning_tree"

    def test_amplitude_bound(self):
        a = np.full((2, 2), 3.0)
        spec = WeightSpec.scheduled("nonnegative", [(5.0, a)])
        report = verify_uqsc(spec, window_t=1.0, eps=1e-6, bound_m=2.0)
        assert not report.passed
        assert report.violation["condition"] == "amplitude_bound"


class TestFJ:
    def test_observed_group_example(self):
        spec = FJSpec(lam=FJ4_LAMBDA, w=FJ4_W, u=FJ4_U)
        xbar = fj_fixed_point(spec).values[:, 0]
        assert np.max(np.abs(xbar - np.array([60.0, 60.0, 75.0, 75.0]))) <= 1.0

    def test_zero_susceptibility_returns_prejudice(self):
        w = np.full((3, 3), 1 / 3)
        u = np.array([1.0, -2.0, 0.5])
        spec = FJSpec(lam=np.zeros(3), w=w, u=u)
        assert np.array_equal(fj_fixed_point(spec).values[:, 0], u)

    def test_residual_on_random_stable_specs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            w = random_stochastic(rng, n)
            lam = rng.uniform(0.0, 0.95, size=n)
            u = rng.normal(size=n)
            spec = FJSpec(lam=lam, w=w, u=u)
            xbar = fj_fixed_point(spec).values
            resid = lam[:, None] * (w @ xbar) + (1 - lam)[:, None] * u[:, None] - xbar
            assert np.max(np.abs(resid)) < 1e-10

    def test_unit_susceptibility_unstable(self):
        w = np.full((2, 2), 0.5)
        spec = FJSpec(lam=np.ones(2), w=w, u=np.array([0.0, 1.0]))
        with pytest.raises(UnstableError):
            fj_fixed_point(spec)

    def test_unreached_closed_class_is_unstable(self):
        # agent 0 is fully susceptible and listens only to itself; every other
        # agent is barely stubborn. rho = 1 exactly, though a power-method
        # estimate of it lands at 0.99993.
        n = 10
        w = np.zeros((n, n))
        w[0, 0] = 1.0
        w[1:, 0] = 0.001
        w[np.arange(1, n), np.arange(1, n)] = 0.999
        lam = np.full(n, 0.9999)
        lam[0] = 1.0
        with pytest.raises(UnstableError):
            fj_fixed_point(FJSpec(lam=lam, w=w, u=np.zeros(n)))

    def test_susceptible_agent_reaching_a_stubborn_one_is_stable(self):
        # 2 -> 1 -> 0 with only agent 0 stubborn: the chain reaches it
        w = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        xbar = fj_fixed_point(FJSpec(lam=np.array([0.5, 1.0, 1.0]), w=w,
                                     u=np.array([2.0, 0.0, 0.0]))).values[:, 0]
        assert np.allclose(xbar, 2.0)
        with pytest.raises(UnstableError):
            fj_fixed_point(FJSpec(lam=np.array([0.5, 1.0, 1.0]), w=w[::-1, ::-1],
                                  u=np.zeros(3)))

    def test_criterion_matches_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(1, 7))
            w = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.35)
            w[np.arange(n), rng.integers(0, n, n)] += 1.0
            w /= w.sum(axis=1, keepdims=True)
            lam = np.where(rng.uniform(size=n) < 0.7, 1.0, rng.choice([0.0, 0.5], n))
            rho = np.max(np.abs(np.linalg.eigvals(lam[:, None] * w)))
            spec = FJSpec(lam=lam, w=w, u=np.zeros(n))
            if rho < 1 - 1e-9:
                fj_fixed_point(spec)
            else:
                with pytest.raises(UnstableError):
                    fj_fixed_point(spec)


class TestFlow:
    def test_symmetric_dyad_converges_to_mean_and_conserves_it(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x0 = OpinionState([0.2, 0.9])
        traj = flow_simulate(WeightSpec.constant("nonnegative", a), x0, t_end=20.0)
        mean0 = x0.values.mean()
        assert abs(traj.final.values.mean() - mean0) < 1e-9
        for k in range(0, len(traj), 200):
            assert abs(traj.array[k].mean() - mean0) < 1e-9
        assert np.max(np.abs(traj.final.values - mean0)) < 1e-8

    def test_three_agent_antagonistic_limit_family(self):
        spec = WeightSpec.constant("signed", ALTAFINI3_A)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x0 = rng.normal(size=3)
            traj = flow_simulate(spec, OpinionState(x0), t_end=40.0, dt=0.01)
            xi = (x0[0] - x0[1]) / 2
            expected = np.array([xi, -xi, xi / 3])
            assert np.max(np.abs(traj.final.values[:, 0] - expected)) < 1e-6

    def test_imbalanced_strongly_connected_decays_to_zero(self):
        rng = np.random.default_rng(7)
        a = np.zeros((4, 4))
        for k in range(4):
            a[k, (k + 1) % 4] = rng.uniform(1, 2)
            a[(k + 1) % 4, k] = rng.uniform(1, 2)
        a[0, 1] *= -1  # one antagonistic pair, kept sign-symmetric
        a[1, 0] *= -1
        g = SignedGraph(a)
        assert not structural_balance(g).balanced
        traj = flow_simulate(
            WeightSpec.constant("signed", a), OpinionState(rng.normal(size=4)), t_end=60.0, dt=0.02
        )
        assert np.max(np.abs(traj.final.values)) < 1e-6

    def test_max_modulus_nonincreasing_for_antagonistic_flow(self):
        rng = np.random.default_rng(8)
        g, _ = random_balanced_graph(rng, 5)
        x0 = OpinionState(rng.normal(size=5))
        traj = flow_simulate(WeightSpec.constant("signed", g.weights), x0, t_end=5.0)
        mods = np.abs(traj.array[:, :, 0]).max(axis=1)
        tol = 1e-7 * (1.0 + mods[0])
        assert np.all(np.diff(mods) <= tol)

    def test_gauge_equivalence_is_exact_step_by_step(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g, _ = random_balanced_graph(rng, int(rng.integers(3, 7)))
            delta = gauge_from_balance(structural_balance(g), g.n).diagonal
            x0 = rng.normal(size=g.n)
            dt = 0.01
            signed = flow_simulate(
                WeightSpec.constant("signed", g.weights), OpinionState(x0), t_end=2.0, dt=dt
            )
            unsigned = flow_simulate(
                WeightSpec.constant("nonnegative", np.abs(g.weights)),
                OpinionState(delta * x0),
                t_end=2.0,
                dt=dt,
            )
            gauged = unsigned.array * delta[None, :, None]
            assert np.array_equal(signed.array, gauged)


def reference_flow(spec, x0, t_end, dt):
    """RK4 with the Laplacian rebuilt at every stage, as flow_simulate did
    before it computed each constant or scheduled Laplacian once."""
    n_steps = max(1, int(np.ceil(t_end / dt - 1e-12)))
    h = t_end / n_steps

    def rhs(t, state):
        return -(signed_laplacian_matrix(spec.matrix_at(t, state)) @ state)

    x = x0.values
    states = [x]
    for k in range(n_steps):
        t = k * h
        k1 = rhs(t, x)
        k2 = rhs(t + h / 2, x + (h / 2) * k1)
        k3 = rhs(t + h / 2, x + (h / 2) * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
    return np.stack(states)


class TestFlowLaplacianReuse:
    def test_scheduled_flow_matches_per_stage_laplacians(self, monkeypatch):
        rng = np.random.default_rng(11)
        # breakpoints off the step grid, so RK4 stages straddle them
        schedule = [(0.23, rng.uniform(-1, 1, (4, 4))), (0.61, rng.uniform(-1, 1, (4, 4))),
                    (5.0, rng.uniform(-1, 1, (4, 4)))]
        spec = WeightSpec.scheduled("signed", schedule)
        x0 = OpinionState(rng.normal(size=(4, 2)))
        calls = []
        monkeypatch.setattr(
            linear_dynamics, "signed_laplacian_matrix",
            lambda a: calls.append(1) or signed_laplacian_matrix(a),
        )
        traj = flow_simulate(spec, x0, t_end=1.0, dt=0.01)
        assert np.array_equal(traj.array, reference_flow(spec, x0, 1.0, 0.01))
        assert len(calls) == 3

    def test_constant_and_rule_flows_match_reference(self, monkeypatch):
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 1, (5, 5))
        x0 = OpinionState(rng.normal(size=5))
        calls = []
        monkeypatch.setattr(
            linear_dynamics, "signed_laplacian_matrix",
            lambda m: calls.append(1) or signed_laplacian_matrix(m),
        )
        constant = WeightSpec.constant("nonnegative", a)
        traj = flow_simulate(constant, x0, t_end=0.5, dt=0.01)
        assert np.array_equal(traj.array, reference_flow(constant, x0, 0.5, 0.01))
        assert len(calls) == 1
        rule = WeightSpec.from_rule("nonnegative", lambda t, x: a * (1.0 + np.abs(x).sum()), n=5)
        calls.clear()
        traj = flow_simulate(rule, x0, t_end=0.5, dt=0.01)
        assert np.array_equal(traj.array, reference_flow(rule, x0, 0.5, 0.01))
        assert len(calls) == 4 * 50


class TestBipartitePrediction:
    def test_positive_dyad_consensus(self):
        g = SignedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pred = predict_bipartite_consensus(g, OpinionState([0.0, 1.0]))
        assert pred.kind == "polarized"
        assert np.allclose(pred.values[:, 0], [0.5, 0.5])

    def test_negative_dyad_polarizes(self):
        g = SignedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        pred = predict_bipartite_consensus(g, OpinionState([1.0, 0.0]))
        assert pred.kind == "polarized"
        assert pred.camps == ((0,), (1,))
        assert np.allclose(pred.values[:, 0], [0.5, -0.5])

    def test_prediction_matches_flow_on_random_balanced_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g, _ = random_balanced_graph(rng, int(rng.integers(3, 7)))
            x0 = OpinionState(rng.normal(size=g.n))
            pred = predict_bipartite_consensus(g, x0)
            assert pred.kind == "polarized"
            traj = flow_simulate(
                WeightSpec.constant("signed", g.weights), x0, t_end=60.0, dt=0.02
            )
            assert np.max(np.abs(traj.final.values - pred.values)) < 1e-6

    def test_unsupported_case(self):
        # imbalanced but not strongly connected (the 3-agent example)
        pred = predict_bipartite_consensus(SignedGraph(ALTAFINI3_A), OpinionState([1.0, 0.0, 0.0]))
        assert pred.kind == "unsupported"


class TestTypeSymmetry:
    def test_symmetric_matrix_passes_with_k_one(self):
        a = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert check_type_symmetry(WeightSpec.constant("nonnegative", a), 1.0).passed

    def test_bounded_ratio_passes(self):
        a = np.array([[0.0, 2.0], [1.0, 0.0]])
        assert check_type_symmetry(WeightSpec.constant("nonnegative", a), 2.0).passed
        assert not check_type_symmetry(WeightSpec.constant("nonnegative", a), 1.5).passed

    def test_one_sided_arc_fails_for_every_k(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        for k in (1.0, 10.0, 1e6):
            assert not check_type_symmetry(WeightSpec.constant("nonnegative", a), k).passed


class TestFlowErrors:
    def test_nan_overflow_aborts_with_diagnostic(self):
        from opiniondyn import IntegrationError

        a = np.array([[0.0, 50.0], [50.0, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(IntegrationError) as info:
            # dt far beyond the stability limit makes the state explode
            flow_simulate(
                WeightSpec.constant("nonnegative", a),
                OpinionState([0.0, 1e12]),
                t_end=4000.0,
                dt=1.0,
            )
        assert info.value.step is not None
