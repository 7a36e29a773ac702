import contextlib
import functools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import (
    FJSpec,
    OpinionState,
    SignedGraph,
    UnstableError,
    WeightSpec,
    fj_fixed_point,
    flow_simulate,
    gauge_apply,
    gauge_from_balance,
    predict_bipartite_consensus,
    simulate_discrete,
    structural_balance,
    verify_convergence_premises,
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
            spec = WeightSpec(kind, schedule=[(1.0, w), (2.0, w)])
        held = [spec.matrix_at(0.5), spec.matrix_at(1.5)]
        w[0, 0] = -3.0
        for m in held + [spec.matrix_at(0.5), spec.matrix_at(1.5)]:
            assert m is not w
            assert not m.flags.writeable
            assert np.array_equal(m, np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            held[0][0, 0] = -3.0


    def test_providers_keep_their_public_values_and_lookups(self):
        w, v = np.eye(2), np.full((2, 2), 0.5)
        const = WeightSpec.constant("stochastic", w)
        sched = WeightSpec("stochastic", schedule=[(1.0, w), (3.0, v)])
        rule = WeightSpec.from_rule("stochastic", lambda t, x: v, n=2)
        assert (const.n, const.is_constant, const.schedule) == (2, True, None)
        assert (sched.n, sched.is_constant, sched.matrix) == (2, False, None)
        assert (rule.n, rule.is_constant) == (2, False)
        assert WeightSpec.from_rule("stochastic", lambda t, x: v, n=2.0).n == 2
        assert WeightSpec("stochastic", matrix=w, n=2).n == 2
        assert [u for u, _ in sched.schedule] == [1.0, 3.0]
        for t, idx, mat in [(0.0, 0, w), (1.0, 1, v), (7.0, 1, v), (math.nan, 1, v)]:
            assert const.matrix_at(t) is const.matrix
            assert sched.matrix_at(t) is sched.schedule[idx][1]
            assert np.array_equal(sched.matrix_at(t), mat)
            assert np.array_equal(rule.matrix_at(t, None), v)
        with pytest.raises(ValueError, match="schedule must be nonempty"):
            WeightSpec("stochastic", schedule=[])

    @pytest.mark.parametrize("untils", [(float("nan"), 2.0), (1.0, float("nan")), (2.0, 2.0),
                                        (2.0, 1.0)])
    def test_schedule_breakpoints_must_increase(self, untils):
        w = np.eye(2)
        with pytest.raises(ValueError, match="strictly increasing"):
            WeightSpec("stochastic", schedule=[(u, w) for u in untils])

    @pytest.mark.parametrize("make, message", [
        (lambda: WeightSpec.constant("doubly", np.eye(2)), "unknown kind 'doubly'"),
        (lambda: WeightSpec("stochastic", rule=lambda t, x: np.eye(2)),
         "rule provider requires the agent count n"),
        (lambda: WeightSpec.constant("nonnegative", [[0.0, -1.0], [1.0, 0.0]]),
         "nonnegative spec has negative entries"),
        (lambda: WeightSpec("stochastic", schedule=[(1.0, np.eye(2)), (2.0, np.eye(3))]),
         "all scheduled matrices must share one size"),
        # a str rule leaked "'str' object is not callable" at the first step
        (lambda: WeightSpec("stochastic", rule="mean", n=2), "^rule must be a Callable, got 'mean'$"),
        # n="2" and n=-1 were stored as given
        (lambda: WeightSpec("stochastic", rule=lambda t, x: np.eye(2), n="2"),
         "^n must be a whole number, got '2'$"),
        (lambda: WeightSpec("stochastic", rule=lambda t, x: np.eye(2), n=-1),
         "^n must be >= 1, got -1$"),
        # an n beside a matrix or a schedule was overwritten with its size
        (lambda: WeightSpec("stochastic", matrix=[[1.0]], n=3), "^n is for 3 agents, not 1$"),
        (lambda: WeightSpec("stochastic", schedule=[(1.0, np.eye(2))], n=3),
         "^n is for 3 agents, not 2$"),
    ], ids=["unknown-kind", "rule-without-n", "negative-contact-rate", "mixed-sizes",
            "rule-not-callable", "str-n", "negative-n", "n-beside-matrix", "n-beside-schedule"])
    def test_invalid_specs_are_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestCheckStochastic:
    @pytest.mark.parametrize("matrix,message", [
        ([[np.nan, 1.0], [0.5, 0.5]], "matrix must be finite"),
        ([[np.inf, 0.0], [0.5, 0.5]], "matrix must be finite"),
        ([[-np.inf, 1.0], [0.5, 0.5]], "matrix must be finite"),
        ([[-0.5, 1.5], [0.5, 0.5]], "stochastic matrix must be entrywise nonnegative"),
        ([[0.5, 0.5 + 2e-9], [0.5, 0.5]], "row sums deviate from 1 by more than 1e-09: [1. 1.]"),
        ([[0.5, 0.5]], "matrix must be square, got shape (1, 2)"),
        ([0.5, 0.5], "matrix must be square, got shape (2,)"),
    ], ids=["nan", "+inf", "-inf", "negative", "row-sum", "non-square", "1-d"])
    def test_error_messages(self, matrix, message):
        with pytest.raises(ValueError) as info:
            linear_dynamics.check_stochastic(matrix)
        assert str(info.value) == message

    @pytest.mark.parametrize("check", [linear_dynamics.check_stochastic,
                                       linear_dynamics.check_signed_row_stochastic])
    def test_nan_entries_are_rejected(self, check):
        for matrix in ([[np.nan]], [[0.5, np.nan], [0.5, 0.5]]):
            with pytest.raises(ValueError, match="matrix must be finite"):
                check(matrix)

    @pytest.mark.parametrize("check, sign", [
        (linear_dynamics.check_stochastic, 1.0),
        (linear_dynamics.check_signed_row_stochastic, -1.0),
    ], ids=["check_stochastic", "check_signed_row_stochastic"])
    def test_row_sums_are_held_to_stochastic_tol(self, check, sign):
        # |row sum - 1| = 5e-10 is within STOCHASTIC_TOL = 1e-9; 2e-9 is not
        near = [[0.5, sign * (0.5 + 5e-10)], [0.5, 0.5]]
        far = [[0.5, sign * (0.5 + 2e-9)], [0.5, 0.5]]
        assert np.array_equal(check(near), np.array(near))
        with pytest.raises(ValueError, match="deviate from 1 by more than 1e-09"):
            check(far)

    def test_signed_check_rejects_a_negative_diagonal(self):
        w = [[0.5, -0.5], [-0.5, 0.5]]
        assert np.array_equal(linear_dynamics.check_signed_row_stochastic(w), np.array(w))
        with pytest.raises(ValueError, match="diagonal entries must be nonnegative"):
            linear_dynamics.check_signed_row_stochastic([[-0.5, 0.5], [0.5, 0.5]])

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


def reference_check_stochastic(matrix, tol=linear_dynamics.STOCHASTIC_TOL):
    """check_stochastic as it was before it remembered passes, kept verbatim
    (apart from the name) as the oracle, with the square and finite checks
    it called inlined and worded as the array rule words them."""
    w = np.asarray(matrix, dtype=float)
    # Valid input is accepted here in one pass. A NaN or -inf entry fails the
    # min test, and a +inf entry makes its row sum fail the tolerance test as
    # long as tol is finite. Input that fails here meets the checks below,
    # which word the error.
    if (w.ndim == 2 and w.shape[0] == w.shape[1] and w.size and w.min() >= 0
            and np.abs(w.sum(axis=1) - 1.0).max() <= tol < math.inf):
        return w
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix must be finite")
    if np.any(w < 0):
        raise ValueError("stochastic matrix must be entrywise nonnegative")
    rows = w.sum(axis=1)
    if not np.all(np.abs(rows - 1.0) <= tol):  # a NaN tol accepts nothing
        raise ValueError(f"row sums deviate from 1 by more than {tol}: {rows}")
    return w


def check_outcome(check, matrix):
    """What a check makes of the matrix: the returned bits, or the error."""
    try:
        w = check(matrix)
    except ValueError as exc:
        return "error", str(exc)
    return "pass", w.shape, w.dtype, w.tobytes(), w is matrix


@contextlib.contextmanager
def stochastic_tol(tol):
    """check_stochastic at tolerance tol: STOCHASTIC_TOL patched, and the
    remembered passes, which are keyed by content alone, cleared on entry
    and on exit."""
    linear_dynamics._remembered_pass.cache_clear()
    try:
        with mock.patch.object(linear_dynamics, "STOCHASTIC_TOL", tol):
            yield functools.partial(reference_check_stochastic, tol=tol)
    finally:
        linear_dynamics._remembered_pass.cache_clear()


SPECIAL_ENTRIES = [np.nan, np.inf, -np.inf, -0.0, -0.25, 2.0, 5e-324]


@st.composite
def small_matrices(draw):
    """Mostly square matrices near row-stochastic: dyadic rows that sum to 1
    exactly or random rows, a row pushed to the tolerance edge, special
    entries, other shapes, transposed (not C-ordered) views and lists."""
    n = draw(st.integers(0, 6))
    shape = draw(st.sampled_from([(n, n)] * 6 + [(n, n + 1), (n,)]))
    size = math.prod(shape)
    if draw(st.booleans()):
        entries = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5])
    else:
        entries = st.floats(0.0, 1.0)
    w = np.array(draw(st.lists(entries, min_size=size, max_size=size))).reshape(shape)
    if w.ndim == 2 and w.size:
        w[w.sum(axis=1) == 0, 0] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        i = draw(st.integers(0, shape[0] - 1))
        w[i, -1] += draw(st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, np.nextafter(1e-9, 1.0),
                                          np.nextafter(1e-9, 0.0), 1e-16, -1e-16]))
    for _ in range(draw(st.integers(0, 2))):
        if w.size:
            w.flat[draw(st.integers(0, w.size - 1))] = draw(st.sampled_from(SPECIAL_ENTRIES))
    form = draw(st.sampled_from(["array", "array", "transposed", "list"]))
    if form == "transposed":
        return w.T
    return w.tolist() if form == "list" else w


class TestRememberedPasses:
    @settings(max_examples=500, deadline=None, database=None)
    @given(matrix=small_matrices(), tol=st.sampled_from([1e-9, 0.0]))
    def test_same_outcome_as_the_reference_twice(self, matrix, tol):
        with stochastic_tol(tol) as reference:
            want = check_outcome(reference, matrix)
            first = check_outcome(linear_dynamics.check_stochastic, matrix)
            hits = linear_dynamics._remembered_pass.cache_info().hits
            second = check_outcome(linear_dynamics.check_stochastic, matrix)
            hits_after = linear_dynamics._remembered_pass.cache_info().hits
        assert first == want
        assert second == want
        w = np.asarray(matrix, dtype=float)
        if w.flags.c_contiguous:  # the second call was answered from memory
            assert hits_after == hits + 1

    def test_another_layout_is_checked_on_its_own_row_sums(self):
        # the row sums of a Fortran-ordered 8x8 can round differently from
        # those of the C-ordered copy of it; with tol at the C deviation, C
        # passes and, for some matrices, Fortran order fails
        rng = np.random.default_rng(0)
        outcomes = set()
        for _ in range(50):
            w = rng.uniform(size=(8, 8))
            w /= w.sum(axis=1, keepdims=True)
            f = np.asfortranarray(w)
            tol = float(np.abs(w.sum(axis=1) - 1.0).max())
            with stochastic_tol(tol) as reference:
                for matrix in (w, f, w, f):
                    outcome = check_outcome(linear_dynamics.check_stochastic, matrix)
                    assert outcome == check_outcome(reference, matrix)
                    outcomes.add((matrix is f, outcome[0]))
        assert {(False, "pass"), (True, "error")} <= outcomes

    def test_a_matrix_changed_in_place_is_checked_again(self):
        w = np.array([[0.5, 0.5], [0.25, 0.75]])
        for entry, message in ((-0.5, "entrywise nonnegative"), (np.nan, "finite"),
                               (0.75, "row sums deviate")):
            w[0] = [0.5, 0.5]
            assert linear_dynamics.check_stochastic(w) is w
            w[0, 0] = entry
            with pytest.raises(ValueError, match=message):
                linear_dynamics.check_stochastic(w)

    def test_a_matrix_above_the_size_bound_is_not_remembered(self):
        n = math.isqrt(linear_dynamics._REMEMBERED_ENTRIES) + 1
        w = np.full((n, n), 1.0 / n)
        before = linear_dynamics._remembered_pass.cache_info()
        for _ in range(3):
            assert linear_dynamics.check_stochastic(w) is w
        assert linear_dynamics._remembered_pass.cache_info() == before

    def test_the_memory_stays_within_its_size(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            linear_dynamics.check_stochastic(random_stochastic(rng, 4))
        info = linear_dynamics._remembered_pass.cache_info()
        assert info.currsize <= info.maxsize == 64


def one_step(w, x):
    return simulate_discrete(WeightSpec.constant("stochastic", w), x, 1).final


class TestDegrootStep:
    """One step of the discrete recursion on a constant stochastic matrix."""

    def test_identity_is_noop(self):
        x = OpinionState([0.3, -1.2, 4.0])
        out = one_step(np.eye(3), x)
        assert np.array_equal(out.values, x.values)

    def test_uniform_average(self):
        out = one_step(np.full((2, 2), 0.5), OpinionState([0.0, 1.0]))
        assert np.array_equal(out.values[:, 0], [0.5, 0.5])

    def test_hull_never_expands(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            w = random_stochastic(rng, n)
            x = OpinionState(rng.normal(size=n))
            out = one_step(w, x)
            assert out.values.min() >= x.values.min() - 1e-12
            assert out.values.max() <= x.values.max() + 1e-12

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="row sums"):
            one_step(np.array([[0.5, 0.6], [0.5, 0.5]]), OpinionState([0.0, 1.0]))

    @pytest.mark.parametrize("run", [
        lambda spec, x: simulate_discrete(spec, x, 0),
        lambda spec, x: simulate_discrete(spec, x, 5),
        lambda spec, x: flow_simulate(spec, x, t_end=1.0),
    ], ids=["discrete-0-steps", "discrete-5-steps", "flow"])
    def test_rejects_dimension_mismatch(self, run):
        spec = WeightSpec.constant("stochastic", np.eye(3))
        with pytest.raises(ValueError, match=r"^spec is for 3 agents, not 2$"):
            run(spec, OpinionState([0.0, 1.0]))

    @pytest.mark.parametrize("run", [
        lambda spec, x: simulate_discrete(spec, x, 5),
        lambda spec, x: flow_simulate(spec, x, t_end=1.0),
    ], ids=["discrete", "flow"])
    def test_rule_matrix_must_match_the_agent_count(self, run):
        # numpy's matmul failed on "a mismatch in its core dimension 0"
        spec = WeightSpec.from_rule("stochastic", lambda t, y: np.full((2, 2), 0.5), n=3)
        with pytest.raises(ValueError, match=r"^rule matrix is for 2 agents, not 3$"):
            run(spec, OpinionState([0.0, 1.0, 2.0]))


class TestSimulateDiscrete:
    def test_permutation_oscillates_forever(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        traj = simulate_discrete(WeightSpec.constant("stochastic", w), OpinionState([0.0, 1.0]), 9)
        assert traj.terminated_at is None
        assert traj.events is None
        assert np.array_equal(traj.array[2], traj.array[0])
        assert np.array_equal(traj.array[1][:, 0], [1.0, 0.0])

    def test_static_regular_matrix_reaches_predicted_consensus(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            w = random_stochastic(rng, n)
            spec = WeightSpec.constant("stochastic", w)
            x0 = OpinionState(rng.uniform(-1, 1, size=n))
            limit = np.linalg.matrix_power(w, 2**20)
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

    def test_signed_requires_a_nonnegative_diagonal(self):
        w = np.array([[-0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal entries must be nonnegative"):
            simulate_discrete(WeightSpec.constant("signed", w), OpinionState([1.0, 2.0]), 3)

    @pytest.mark.parametrize("kind, steps, message", [
        ("nonnegative", 1, "discrete iteration takes a stochastic or signed spec"),
        ("stochastic", -1, "steps must be >= 0"),
    ], ids=["nonnegative-kind", "negative-steps"])
    def test_kind_and_steps_are_checked_before_any_step(self, kind, steps, message):
        spec = WeightSpec.constant(kind, np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match=message):
            simulate_discrete(spec, OpinionState([0.0, 1.0]), steps)

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
            spec = WeightSpec("stochastic", schedule=[(k + 1.0, m) for k, m in enumerate(mats)])
            x0 = OpinionState(rng.normal(size=(n, 2)))
            traj = simulate_discrete(spec, x0, steps=4)
            for k in range(1, len(traj)):
                for dim in range(2):
                    assert traj.array[k][:, dim].min() >= traj.array[k - 1][:, dim].min() - 1e-12
                    assert traj.array[k][:, dim].max() <= traj.array[k - 1][:, dim].max() + 1e-12

    def test_each_segment_is_applied_in_turn(self):
        # step k applies the matrix active at t = k; the last one stays on
        rng = np.random.default_rng(5)
        w, v = random_stochastic(rng, 4), random_stochastic(rng, 4)
        x0 = OpinionState(rng.uniform(-1, 1, size=4))
        traj = simulate_discrete(WeightSpec("stochastic", schedule=[(1.0, w), (3.0, v)]), x0, 5)
        x = x0.values
        expected = [x]
        for mat in (w, v, v, v, v):
            x = mat @ x
            expected.append(x)
        assert traj.array.tobytes() == np.stack(expected).tobytes()

    def test_a_momentary_fixed_point_does_not_stop_a_schedule(self):
        spec = WeightSpec("stochastic", schedule=[(2.0, np.eye(2)), (3.0, np.full((2, 2), 0.5))])
        traj = simulate_discrete(spec, OpinionState([0.0, 1.0]), 4)
        assert traj.terminated_at is None and len(traj) == 5
        assert np.array_equal(traj.array[2], traj.array[0])
        assert np.array_equal(traj.final.values[:, 0], [0.5, 0.5])


def perron_vector(w):
    """Left eigenvector of w for the eigenvalue 1, summing to 1, from a dense
    eigendecomposition."""
    vals, vecs = np.linalg.eig(w.T)
    p = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return p / p.sum()


def positive_stochastic(rng, n):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    return w / w.sum(axis=1, keepdims=True)


class TestConstantMatrixLimit:
    """The limit of W^k x0 for a constant stochastic W, as the run reaches it."""

    def test_identity_run_stops_at_its_first_step(self):
        x0 = OpinionState([0.3, -1.2, 4.0])
        traj = simulate_discrete(WeightSpec.constant("stochastic", np.eye(3)), x0, 100)
        assert traj.terminated_at == 0 and len(traj) == 2
        assert np.array_equal(traj.final.values, x0.values)

    def test_positive_matrix_agrees_on_the_perron_average(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            w = positive_stochastic(rng, n)
            x0 = OpinionState(rng.uniform(-1, 1, size=n))
            p = perron_vector(w)
            assert np.all(p > 0)
            traj = simulate_discrete(WeightSpec.constant("stochastic", w), x0, 2000)
            assert np.max(np.abs(traj.final.values - p @ x0.values)) < 1e-10

    def test_block_diagonal_blocks_reach_their_own_agreements(self):
        rng = np.random.default_rng(4)
        w1, w2 = positive_stochastic(rng, 2), positive_stochastic(rng, 3)
        w = np.block([[w1, np.zeros((2, 3))], [np.zeros((3, 2)), w2]])
        x0 = rng.uniform(-1, 1, size=5)
        final = simulate_discrete(WeightSpec.constant("stochastic", w), OpinionState(x0), 2000)
        final = final.final.values[:, 0]
        for block, rows in ((w1, slice(0, 2)), (w2, slice(2, 5))):
            assert np.max(np.abs(final[rows] - perron_vector(block) @ x0[rows])) < 1e-10
        assert abs(final[0] - final[2]) > 0.1


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

    @pytest.mark.parametrize("lam", [[0.5, np.nan], [0.5, -0.5]])
    def test_nan_or_out_of_range_susceptibility_is_rejected(self, lam):
        with pytest.raises(ValueError, match=rf"^lam must lie in \[0, 1\], got {lam[1]}$"):
            FJSpec(lam=lam, w=np.full((2, 2), 0.5), u=[0.0, 1.0])

    def test_prejudice_length_must_match_the_matrix(self):
        with pytest.raises(ValueError, match="^u is for 3 agents, not 2$"):
            FJSpec(lam=[0.5, 0.5], w=np.full((2, 2), 0.5), u=[0.0, 1.0, 2.0])

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

    def test_default_step_is_the_flow_default(self):
        # without dt the step is 0.01 / (1 + largest row sum) of the
        # influence matrix at the start, bit for bit, for a rule spec too
        rng = np.random.default_rng(16)
        x0 = OpinionState(rng.uniform(0, 1, size=6))

        def rule(t, state):
            gap = state[:, 0][None, :] - state[:, 0][:, None]
            a = np.maximum(0.0, 0.4 - np.abs(gap)) * 3.7
            np.fill_diagonal(a, 0.0)
            return a

        spec = WeightSpec.from_rule("nonnegative", rule, n=6)
        dt = 0.01 / (1.0 + float(np.abs(rule(0.0, x0.values)).sum(axis=1).max()))
        default = flow_simulate(spec, x0, t_end=0.7, dt=None)
        explicit = flow_simulate(spec, x0, t_end=0.7, dt=dt)
        assert default.array.tobytes() == explicit.array.tobytes()
        assert default.stamps.tobytes() == explicit.stamps.tobytes()


def bump_rule(d):
    """Contact rates s(x_j - x_i) of an even bump supported on |gap| < d."""
    def rule(t, state):
        z = np.abs(state[:, 0][None, :] - state[:, 0][:, None]) / d
        a = np.zeros_like(z)
        inside = z < 1.0
        a[inside] = np.exp(-1.0 / (1.0 - z[inside] ** 2))
        np.fill_diagonal(a, 0.0)
        return a
    return rule


class TestFlowOnSchedulesAndRules:
    """Agreement of the cooperative and antagonistic flows when the contact
    graph switches or follows the state."""

    def test_constant_complete_schedule_reaches_the_mean(self):
        spec = WeightSpec("nonnegative", schedule=[(10.0, np.ones((3, 3)) - np.eye(3))])
        traj = flow_simulate(spec, OpinionState([0.0, 0.4, 1.1]), t_end=10.0, dt=0.01)
        assert np.max(np.abs(traj.final.values - 0.5)) < 1e-9

    def test_alternating_arcs_whose_union_holds_a_tree_reach_the_root(self):
        # arc 0 -> 1 in one phase, 1 -> 2 in the other: only their union
        # over a full period holds a spanning tree, rooted at agent 0
        a1, a2 = np.zeros((3, 3)), np.zeros((3, 3))
        a1[1, 0] = a2[2, 1] = 1.0
        spec = WeightSpec("nonnegative", schedule=[(k + 1.0, (a1, a2)[k % 2]) for k in range(40)])
        traj = flow_simulate(spec, OpinionState([0.3, -1.0, 2.0]), t_end=40.0, dt=0.01)
        assert np.all(traj.array[:, 0, 0] == 0.3)
        assert np.max(np.abs(traj.final.values - 0.3)) < 1e-6

    def test_one_phase_alone_leaves_an_agent_unreached(self):
        a1 = np.zeros((3, 3))
        a1[1, 0] = 1.0
        traj = flow_simulate(WeightSpec.constant("nonnegative", a1), OpinionState([0.3, -1.0, 2.0]),
                             t_end=40.0, dt=0.01)
        assert np.all(traj.array[:, 2, 0] == 2.0)
        assert abs(traj.final.values[1, 0] - 0.3) < 1e-12

    def test_disconnected_dyads_reach_two_agreements(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1.0
        traj = flow_simulate(WeightSpec.constant("nonnegative", a),
                             OpinionState([0.0, 1.0, 2.0, 4.0]), t_end=10.0, dt=0.01)
        assert np.max(np.abs(traj.final.values[:, 0] - [0.5, 0.5, 3.0, 3.0])) < 1e-8

    def test_switching_between_graphs_of_one_partition_polarizes(self):
        # camps {0, 1} and {2} in both graphs; the gauged flow is cooperative,
        # symmetric, and connected over a period, so it agrees on its mean
        g1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
        g2 = np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
        for g in (g1, g2):
            assert structural_balance(SignedGraph(g)).camps == ((0, 1), (2,))
        delta = np.array([1.0, 1.0, -1.0])
        x0 = np.array([0.2, -0.7, 0.9])
        spec = WeightSpec("signed", schedule=[(k + 1.0, (g1, g2)[k % 2]) for k in range(40)])
        traj = flow_simulate(spec, OpinionState(x0), t_end=40.0, dt=0.01)
        assert np.max(np.abs(traj.final.values[:, 0] - delta * (delta @ x0) / 3)) < 1e-9

    def test_constant_rule_flows_to_the_mean(self):
        spec = WeightSpec.from_rule("nonnegative", lambda t, x: np.ones((2, 2)) - np.eye(2), n=2)
        traj = flow_simulate(spec, OpinionState([0.0, 1.0]), t_end=15.0, dt=0.01)
        assert np.max(np.abs(traj.final.values - 0.5)) < 1e-8

    def test_even_bump_rule_conserves_the_mean(self):
        rng = np.random.default_rng(14)
        x0 = OpinionState(rng.uniform(0, 1, size=8))
        traj = flow_simulate(WeightSpec.from_rule("nonnegative", bump_rule(0.3), n=8), x0,
                             t_end=10.0, dt=0.02)
        means = traj.array[:, :, 0].mean(axis=1)
        assert np.max(np.abs(means - means[0])) < 1e-12
        assert np.ptp(traj.final.values) < np.ptp(x0.values)

    def test_compact_bump_leaves_clusters_at_least_its_width_apart(self):
        rng = np.random.default_rng(15)
        d = 0.25
        for _ in range(3):
            x0 = OpinionState(rng.uniform(0, 1, size=10))
            traj = flow_simulate(WeightSpec.from_rule("nonnegative", bump_rule(d), n=10), x0,
                                 t_end=200.0, dt=0.05)
            gaps = np.diff(np.sort(traj.final.values[:, 0]))
            assert np.all((gaps < 1e-3) | (gaps >= d - 1e-3))


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
        spec = WeightSpec("signed", schedule=schedule)
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


class TestFlowStageBuffers:
    """The RK4 loop that evaluates its stages into preallocated buffers and
    writes each state into the trajectory, against the reference with fresh
    arrays, at the benchmark's sizes and on signed zeros."""

    def test_constant_nonnegative_flow_at_two_hundred_agents(self):
        # the benchmark's cooperative flow: 5 % of the arcs, row sums up to 18
        rng = np.random.default_rng(25)
        a = np.where(rng.random((200, 200)) < 0.05, rng.uniform(0.5, 1.5, size=(200, 200)), 0.0)
        np.fill_diagonal(a, 0.0)
        a *= 18.0 / a.sum(axis=1).max()
        spec = WeightSpec.constant("nonnegative", a)
        x0 = OpinionState(rng.uniform(0.0, 1.0, size=200))
        dt = linear_dynamics.default_flow_step(a)
        traj = flow_simulate(spec, x0, t_end=0.2)
        assert len(traj) == 381
        assert traj.array.tobytes() == reference_flow(spec, x0, 0.2, dt).tobytes()

    def test_constant_signed_flow_in_three_dimensions(self):
        rng = np.random.default_rng(26)
        g, _ = random_balanced_graph(rng, 6)
        spec = WeightSpec.constant("signed", g.weights)
        x0 = OpinionState(rng.normal(size=(6, 3)))
        traj = flow_simulate(spec, x0, t_end=2.0, dt=0.01)
        assert traj.array.tobytes() == reference_flow(spec, x0, 2.0, 0.01).tobytes()

    def test_an_agent_at_negative_zero_with_no_in_arcs_stays_there(self):
        # its derivative is an exact zero: -(L x) gives it -0.0, so the
        # state keeps -0.0, where (-L) x would give +0.0 and the state +0.0
        a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        spec = WeightSpec.constant("nonnegative", a)
        x0 = OpinionState([-0.0, 1.0, -2.0])
        traj = flow_simulate(spec, x0, t_end=0.5, dt=0.01)
        assert np.all(np.signbit(traj.array[:, 0, 0]))
        assert traj.array.tobytes() == reference_flow(spec, x0, 0.5, 0.01).tobytes()


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

    def test_graph_and_state_must_agree_on_the_agent_count(self):
        g = SignedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="^g is for 2 agents, not 3$"):
            predict_bipartite_consensus(g, OpinionState([0.0, 1.0, 2.0]))

    def test_left_null_vector_matches_the_eigen_oracle(self):
        # complete and one-way ring graphs, both strongly connected
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = rng.uniform(0.5, 2.0, size=(n, n))
            if rng.random() < 0.5:
                a *= np.roll(np.eye(n), 1, axis=1)
            np.fill_diagonal(a, 0.0)
            lap = signed_laplacian_matrix(a)
            p = linear_dynamics.left_null_vector(lap)
            assert np.all(p >= 0) and abs(p.sum() - 1.0) < 1e-12
            assert np.max(np.abs(p @ lap)) < 1e-12
            vals, vecs = np.linalg.eig(lap.T)
            q = np.real(vecs[:, np.argmin(np.abs(vals))])
            assert np.max(np.abs(p - q / q.sum())) < 1e-9


class TestFlowErrors:
    @pytest.mark.parametrize("t_end, dt, message", [
        (float("nan"), None, "t_end must lie in (0, inf), got nan"),
        (float("inf"), None, "t_end must lie in (0, inf), got inf"),
        (0.0, None, "t_end must lie in (0, inf), got 0.0"),
        (1.0, float("nan"), "dt must lie in (0, inf], got nan"),
    ])
    def test_horizon_and_step_are_checked(self, t_end, dt, message):
        a = WeightSpec.constant("nonnegative", np.array([[0.0, 1.0], [1.0, 0.0]]))
        x0 = OpinionState([0.0, 1.0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            flow_simulate(a, x0, t_end=t_end, dt=dt)

    def test_each_rule_matrix_is_checked_against_the_kind(self):
        spec = WeightSpec.from_rule("nonnegative", lambda t, x: np.array([[0.0, -1.0], [1.0, 0.0]]),
                                    n=2)
        with pytest.raises(ValueError, match="nonnegative spec has negative entries"):
            flow_simulate(spec, OpinionState([0.0, 1.0]), t_end=1.0, dt=0.1)

    def test_horizon_beyond_memory_is_a_value_error(self):
        # 10**15 steps of two agents need 14.2 PiB, which numpy refuses
        # before it allocates anything
        a = WeightSpec.constant("nonnegative", np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="t_end=1000000000000.0 with dt=0.001 takes "
                                             "1000000000000000 steps"):
            flow_simulate(a, OpinionState([0.0, 1.0]), t_end=1e12, dt=1e-3)

    def test_nan_overflow_aborts_with_diagnostic(self):
        from opiniondyn import IntegrationError

        a = np.array([[0.0, 50.0], [50.0, 0.0]])
        # dt far beyond the stability limit makes the state explode; with
        # warnings as errors, numpy's overflow warnings would end the run first
        with pytest.raises(IntegrationError) as info:
            flow_simulate(
                WeightSpec.constant("nonnegative", a),
                OpinionState([0.0, 1e12]),
                t_end=4000.0,
                dt=1.0,
            )
        assert info.value.step == 45
        assert info.value.time == 45.0

    @pytest.mark.parametrize("name, value", [
        ("t_end", [1.0]), ("t_end", np.array(1.0)),
        ("dt", "0.1"), ("dt", True), ("dt", 0.1 + 0j), ("dt", [0.1]),
    ])
    def test_horizon_and_step_must_be_real_numbers(self, name, value):
        # t_end's str, None, bool and complex values: test_count_fuzz's REAL_CALLS
        a = WeightSpec.constant("nonnegative", np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            flow_simulate(a, OpinionState([0.0, 1.0]), **{"t_end": 1.0, "dt": 0.1, name: value})

    def test_step_count_beyond_the_float_range_is_a_value_error(self):
        # t_end / dt overflows to inf, whose ceiling Python cannot take
        a = WeightSpec.constant("nonnegative", np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match=r"^t_end=1e\+308 with dt=1e-308 takes inf steps, "
                                             "too many states to hold in memory$"):
            flow_simulate(a, OpinionState([0.0, 1.0]), t_end=1e308, dt=1e-308)

    @pytest.mark.parametrize("dt", [0.01, None])
    def test_numpy_horizon_and_step_run_as_floats(self, dt):
        a = WeightSpec.constant("signed", ALTAFINI3_A)
        x0 = OpinionState([0.3, -1.0, 2.0])
        ref = flow_simulate(a, x0, t_end=1.3, dt=dt)
        run = flow_simulate(a, x0, t_end=np.float64(1.3), dt=None if dt is None else np.float64(dt))
        assert run.array.tobytes() == ref.array.tobytes()
        assert run.stamps.tobytes() == ref.stamps.tobytes()


# The pair loops that the first-hit mask scans replaced, kept verbatim (apart
# from names) as oracles.


def reference_verify_convergence_premises(matrices, delta):
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    for k, mat in enumerate(matrices):
        w = linear_dynamics.check_stochastic(mat)
        n = w.shape[0]
        for i in range(n):
            if w[i, i] < delta:
                return linear_dynamics.PremiseReport(
                    False,
                    {"condition": "self_confidence", "step": k, "agent": i, "value": w[i, i]},
                )
        for i in range(n):
            for j in range(n):
                v = w[i, j]
                if v != 0.0 and not (delta <= v <= 1.0):
                    return linear_dynamics.PremiseReport(
                        False,
                        {"condition": "non_vanishing", "step": k, "i": i, "j": j, "value": v},
                    )
        for i in range(n):
            for j in range(i + 1, n):
                if (w[i, j] > 0) != (w[j, i] > 0):
                    return linear_dynamics.PremiseReport(
                        False,
                        {"condition": "reciprocity", "step": k, "i": i, "j": j},
                    )
    return linear_dynamics.PremiseReport(True)


def assert_same_report(report, ref):
    """Equal reports down to the types of the indices and the bits of value."""
    assert report == ref
    if ref.violation is not None:
        for key, want in ref.violation.items():
            got = report.violation[key]
            assert type(got) is type(want)
            if key == "value":
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def dyadic_stochastic(rng, n):
    """A row-stochastic matrix of dyadic entries, so entries equal to a
    dyadic delta, zero diagonals and one-sided arcs all occur exactly."""
    w = rng.choice([0.0, 0.0, 0.0625, 0.125, 0.25, 0.5], size=(n, n))
    w *= rng.random((n, n)) < rng.uniform(0.0, 1.0)
    if rng.random() < 0.5:  # reciprocal support
        w = np.where((w > 0) & (w.T > 0), w, 0.0) if rng.random() < 0.5 else np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    w = np.where(w.sum(axis=1, keepdims=True) <= 1.0, w, 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    if rng.random() < 0.1:  # a -0.0 on the diagonal
        i = int(rng.integers(n))
        w[i] = 0.0
        w[i, (i + 1) % n] = 1.0 if n > 1 else 0.0
        w[i, i] = -0.0 if n > 1 else 1.0
    return w


class TestPremiseScansMatchTheLoops:
    def test_convergence_premises(self):
        rng = np.random.default_rng(21)
        conditions = set()
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            pool = [dyadic_stochastic(rng, n) for _ in range(int(rng.integers(1, 4)))]
            delta = float(rng.choice([0.0625, 0.125, 0.25, 0.5, 1.0]))
            report = verify_convergence_premises(pool, delta=delta)
            assert_same_report(report, reference_verify_convergence_premises(pool, delta))
            conditions.add(report.violation["condition"] if report.violation else "passed")
        assert conditions == {"passed", "self_confidence", "non_vanishing", "reciprocity"}

    def test_exact_boundaries(self):
        # an entry equal to delta passes, the diagonal at delta passes
        w = np.array([[0.25, 0.75, 0.0], [0.25, 0.5, 0.25], [0.0, 0.75, 0.25]])
        for delta in (0.25, np.nextafter(0.25, 1.0)):
            assert_same_report(verify_convergence_premises([w], delta=delta),
                               reference_verify_convergence_premises([w], delta))
        assert verify_convergence_premises([w], delta=0.25).passed
