import tracemalloc
from bisect import bisect_right
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import gossip, state
from opiniondyn import (
    DeffuantWeisbuch,
    DegrootGossip,
    FJSpec,
    GossipFJ,
    OpinionState,
    SymmetricPairGossip,
    Trajectory,
    bernoulli_convolution,
    cesaro,
    dw_run_exact,
    fj_fixed_point,
    make_rng,
    simulate_gossip,
)
from opiniondyn.presets import FJ4_LAMBDA, FJ4_U, FJ4_W


def ring_matrix(n):
    p = np.zeros((n, n))
    for k in range(n):
        p[k, (k + 1) % n] = 0.5
        p[k, (k - 1) % n] = 0.5
    return p


def reference_simulate(model, x0, steps, seed, thin, record_events, block):
    """The per-step simulator the block kernels replaced: the same draw
    calls per block of ``block`` steps, then one step at a time on
    np.float64 list elements. The oracle of the stream layout and updates."""
    rng = make_rng(seed)
    n = x0.n
    x = list(x0.flat)
    kept = [np.array(x)]
    stamps = [0]
    events = [] if record_events else None
    if isinstance(model, (DegrootGossip, SymmetricPairGossip)):
        cum_rows = [list(np.cumsum(row)) for row in model.p]
    if isinstance(model, GossipFJ):
        lam, w, u = model.spec.lam, model.spec.w, model.spec.u[:, 0]
        arcs = list(zip(*np.nonzero(w)))
    if isinstance(model, DeffuantWeisbuch):
        bounds = np.broadcast_to(model.d, n)
    done = 0
    while done < steps:
        count = min(block, steps - done)
        if isinstance(model, GossipFJ):
            arc_idx = rng.integers(len(arcs), size=count)
        else:
            act = rng.integers(n, size=count)
            if isinstance(model, (DegrootGossip, SymmetricPairGossip)):
                unif = rng.random(count)
            else:
                partner = rng.integers(n - 1, size=count)
        for b in range(count):
            moved = True
            if isinstance(model, GossipFJ):
                i, j = arcs[arc_idx[b]]
                x[i] = (x[i] + lam[i] * w[i, j] * (x[j] - x[i])
                        + (1 - lam[i]) * w[i, j] * (u[i] - x[i]))
            elif isinstance(model, (DegrootGossip, SymmetricPairGossip)):
                i = act[b]
                j = min(bisect_right(cum_rows[i], unif[b]), n - 1)
                if isinstance(model, DegrootGossip):
                    x[i] = x[i] + model.gains[i] * (x[j] - x[i])
                else:
                    mid = 0.5 * (x[i] + x[j])
                    x[i] = mid
                    x[j] = mid
            else:
                i = act[b]
                j = partner[b]
                if j >= i:
                    j += 1
                gap = x[j] - x[i]
                moved_i = abs(gap) <= bounds[i]
                moved_j = model.mode == "symmetric" and abs(gap) <= bounds[j]
                shift = model.mu * gap
                if moved_i:
                    x[i] = x[i] + shift
                if moved_j:
                    x[j] = x[j] - shift
                moved = moved_i or moved_j
            if events is not None:
                events.append((int(i), int(j), bool(moved)))
            k = done + b + 1
            if k % thin == 0 or k == steps:
                kept.append(np.array(x))
                stamps.append(k)
        done += count
    return np.stack(kept)[:, :, None], np.array(stamps, dtype=float), events


def kernel_models(n):
    """One instance of every gossip model on n agents, the pair dynamics in
    both modes."""
    rng = np.random.default_rng(0)
    p = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    np.fill_diagonal(p, 0.0)
    p[np.arange(n), (np.arange(n) + 1) % n] += 1.0
    p /= p.sum(axis=1, keepdims=True)
    w = 0.5 * np.eye(n) + 0.5 * p
    return {
        "degroot": DegrootGossip(p, rng.uniform(0.1, 0.9, n)),
        "pair": SymmetricPairGossip(p),
        "fj": GossipFJ.from_fj(rng.uniform(0.0, 1.0, n), w, rng.uniform(-1.0, 1.0, n)),
        "dw-symmetric": DeffuantWeisbuch(d=0.3, mu=0.37),
        "dw-asymmetric": DeffuantWeisbuch(d=0.3, mu=0.37, mode="asymmetric"),
        "dw-heterogeneous": DeffuantWeisbuch(d=rng.uniform(0.05, 0.6, n), mu=0.41),
        "dw-heterogeneous-asymmetric": DeffuantWeisbuch(d=rng.uniform(0.05, 0.6, n), mu=0.41,
                                                        mode="asymmetric"),
    }


KERNEL_MODELS = kernel_models(6)


def fj_factors(lam, w):
    """GossipFJ's per-arc opinion and prejudice factors."""
    _, _, g1, g2 = GossipFJ.from_fj(lam, w, np.zeros(len(lam)))._by_arc
    return g1, g2


class TestGossipFJFactors:
    def test_full_susceptibility_kills_prejudice_factor(self):
        w = ring_matrix(4)
        g1, g2 = fj_factors(np.ones(4), w)
        assert np.array_equal(g1, w[np.nonzero(w)])
        assert np.max(np.abs(g2)) == 0

    def test_zero_susceptibility_kills_opinion_factor(self):
        w = ring_matrix(4)
        g1, g2 = fj_factors(np.zeros(4), w)
        assert np.max(np.abs(g1)) == 0
        assert np.array_equal(g2, w[np.nonzero(w)])

    @pytest.mark.parametrize("lam", [[0.5, np.nan], [0.5, 1.5]])
    def test_nan_or_out_of_range_susceptibility_is_rejected(self, lam):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"susceptibilities must lie in \[0, 1\]"):
            GossipFJ.from_fj(lam, w, [0.0, 1.0])

    @pytest.mark.parametrize("gains", [[0.5, np.nan], [0.5, 1.0]])
    def test_nan_or_out_of_range_gain_is_rejected(self, gains):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"gains must lie strictly inside \(0, 1\)"):
            DegrootGossip(p, np.array(gains))

    def test_half_half_swap(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        g1, g2 = fj_factors(np.array([0.5, 0.5]), w)
        assert g1.tolist() == g2.tolist() == [0.5, 0.5]

    def test_one_column_prejudices_run_as_a_vector(self):
        model = GossipFJ.from_fj(FJ4_LAMBDA, FJ4_W, FJ4_U[:, None])
        x0 = OpinionState(FJ4_U)
        assert np.array_equal(simulate_gossip(model, x0, steps=500, seed=3).array,
                              simulate_gossip(GossipFJ.from_fj(FJ4_LAMBDA, FJ4_W, FJ4_U), x0,
                                              steps=500, seed=3).array)


class TestGossipStep:
    """The model semantics of single steps: ``simulate_gossip(steps=1)``."""

    def test_pair_average_moves_both_to_midpoint(self):
        model = SymmetricPairGossip(np.array([[0.0, 1.0], [1.0, 0.0]]))
        traj = simulate_gossip(model, OpinionState([0.0, 1.0]), steps=1, seed=0)
        (i, j, interacted), = traj.events
        assert interacted and {i, j} == {0, 1}
        assert np.array_equal(traj.final.values[:, 0], [0.5, 0.5])

    def test_dw_within_bound_meets_halfway(self):
        model = DeffuantWeisbuch(d=0.5, mu=0.5)
        traj = simulate_gossip(model, OpinionState([0.0, 0.4]), steps=1, seed=1)
        assert traj.events[0][2]
        assert np.array_equal(traj.final.values[:, 0], [0.2, 0.2])

    def test_dw_beyond_bound_unchanged(self):
        model = DeffuantWeisbuch(d=0.5, mu=0.5)
        x = OpinionState([0.0, 0.6])
        traj = simulate_gossip(model, x, steps=1, seed=1)
        assert not traj.events[0][2]
        assert np.array_equal(traj.final.values, x.values)

    @pytest.mark.parametrize(
        "run",
        [
            lambda model, x: simulate_gossip(model, x, steps=5, seed=0),
            lambda model, x: dw_run_exact(model, x, steps=5, seed=0),
        ],
        ids=["simulate_gossip", "dw_run_exact"],
    )
    @pytest.mark.parametrize(
        "model",
        [DeffuantWeisbuch(d=0.5, mu=0.5), DeffuantWeisbuch(d=np.array([0.5]), mu=0.5)],
        ids=["dw", "dw-heterogeneous"],
    )
    def test_pair_dynamics_rejects_one_agent(self, run, model):
        with pytest.raises(ValueError, match="pair dynamics needs at least two agents"):
            run(model, OpinionState([0.5]))

    def test_fj_stubborn_agent_at_prejudice_never_moves(self):
        # zero susceptibility and opinion already at the prejudice
        lam = np.array([0.0, 0.8])
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        u = np.array([0.3, 0.9])
        model = GossipFJ.from_fj(lam, w, u)
        x = OpinionState([0.3, 0.1])
        for seed in range(20):
            traj = simulate_gossip(model, x, steps=1, seed=seed)
            if traj.events[0][0] == 0:
                assert traj.final.values[0, 0] == 0.3

    def test_only_designated_agents_change(self):
        rng = np.random.default_rng(3)
        x0 = OpinionState(rng.uniform(0, 1, size=8))
        models = [
            DegrootGossip(ring_matrix(8), np.full(8, 0.4)),
            SymmetricPairGossip(ring_matrix(8)),
            DeffuantWeisbuch(d=0.3, mu=0.4, mode="symmetric"),
            DeffuantWeisbuch(d=0.3, mu=0.4, mode="asymmetric"),
            DeffuantWeisbuch(d=rng.uniform(0.1, 0.5, size=8), mu=0.4),
            DeffuantWeisbuch(d=rng.uniform(0.1, 0.5, size=8), mu=0.4, mode="asymmetric"),
        ]
        for model in models:
            for seed in range(10):
                traj = simulate_gossip(model, x0, steps=1, seed=seed)
                out, (i, j, _) = traj.final, traj.events[0]
                untouched = [a for a in range(8) if a not in (i, j)]
                assert np.array_equal(out.values[untouched], x0.values[untouched])
                if isinstance(model, DeffuantWeisbuch) and model.mode == "asymmetric":
                    assert out.values[j, 0] == x0.values[j, 0]

    def test_heterogeneous_bounds_one_sided_move(self):
        # gap 0.4: inside agent 0's bound, outside agent 1's
        model = DeffuantWeisbuch(d=np.array([0.5, 0.3]), mu=0.5)
        x = OpinionState([0.0, 0.4])
        moved = set()
        for seed in range(10):
            traj = simulate_gossip(model, x, steps=1, seed=seed)
            out, (i, j, interacted) = traj.final, traj.events[0]
            assert interacted
            if i == 0 or j == 0:
                moved.add((out.values[0, 0], out.values[1, 0]))
        assert moved == {(0.2, 0.4)}

    def test_asymmetric_per_agent_bounds_move_only_the_first_by_its_own_bound(self):
        # gap 0.4: inside agent 0's bound, outside agent 1's; only i may move
        model = DeffuantWeisbuch(d=np.array([0.5, 0.3]), mu=0.5, mode="asymmetric")
        x = OpinionState([0.0, 0.4])
        seen = set()
        for seed in range(20):
            traj = simulate_gossip(model, x, steps=1, seed=seed)
            (i, _, interacted), = traj.events
            seen.add(i)
            assert interacted == (i == 0)
            assert traj.final.values[:, 0].tolist() == ([0.2, 0.4] if i == 0 else [0.0, 0.4])
        assert seen == {0, 1}


class TestSimulateGossip:
    def test_reproducible_and_seed_sensitive(self):
        model = DeffuantWeisbuch(d=0.4, mu=0.5)
        x0 = OpinionState(np.linspace(0, 1, 12))
        a = simulate_gossip(model, x0, steps=3000, seed=7)
        b = simulate_gossip(model, x0, steps=3000, seed=7)
        c = simulate_gossip(model, x0, steps=3000, seed=8)
        assert np.array_equal(a.array, b.array)
        assert a.events == b.events
        assert not np.array_equal(a.array, c.array)

    def test_stream_index_gives_independent_runs(self):
        model = DeffuantWeisbuch(d=0.4, mu=0.5)
        x0 = OpinionState(np.linspace(0, 1, 6))
        a = simulate_gossip(model, x0, steps=500, seed=(7, 0))
        b = simulate_gossip(model, x0, steps=500, seed=(7, 1))
        assert not np.array_equal(a.array, b.array)

    def test_seed_forms_share_one_stream_derivation(self):
        def philox(seed, *key):
            ss = np.random.SeedSequence(seed, spawn_key=key)
            return np.random.Generator(np.random.Philox(ss)).integers(1 << 62, size=4).tolist()

        def draw(rng):
            return rng.integers(1 << 62, size=4).tolist()

        assert draw(make_rng(7)) == draw(make_rng((7, 0))) == philox(7, 0)
        assert draw(make_rng((7, 3))) == philox(7, 3)
        assert draw(make_rng(7, 3, 2)) == philox(7, 3, 2)

    def test_numpy_integer_seeds_keep_their_stream(self):
        def draw(rng):
            return rng.integers(1 << 62, size=4).tolist()

        assert draw(make_rng(np.int64(7))) == draw(make_rng(7))
        assert draw(make_rng((np.uint32(7), 3))) == draw(make_rng((7, 3)))
        # a stream is a count too: numpy integers and whole floats keep theirs
        assert draw(make_rng((7, np.uint32(3)))) == draw(make_rng((7, 3)))
        assert draw(make_rng((7, 3.0))) == draw(make_rng((7, 3)))
        for key in ((7, 1.5), (7, "3"), (7, True)):
            with pytest.raises(ValueError, match="^stream must be a whole number, got "):
                make_rng(key)
        with pytest.raises(ValueError, match="^stream must be a whole number, got '3'"):
            make_rng(7, "3")

    @pytest.mark.parametrize("seed", [1.5, (1.5, 0), "3", None, True], ids=repr)
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be a whole number, got "):
            make_rng(seed)
        with pytest.raises(ValueError, match="^seed must be a whole number, got "):
            simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 1.0]), steps=5,
                            seed=seed)

    def test_event_replay_reproduces_states(self):
        # replaying the recorded pair sequence through the update formulas
        # must give the same trajectory as the simulator's internal loop
        rng = np.random.default_rng(4)
        x0 = OpinionState(rng.uniform(0, 1, size=6))
        gains = np.full(6, 0.3)
        for model in (
            DegrootGossip(ring_matrix(6), gains),
            SymmetricPairGossip(ring_matrix(6)),
            GossipFJ.from_fj(np.full(6, 0.7), ring_matrix(6), rng.uniform(0, 1, 6)),
            DeffuantWeisbuch(d=0.3, mu=0.4),
        ):
            traj = simulate_gossip(model, x0, steps=400, seed=11)
            x = list(x0.flat)
            for k, (i, j, interacted) in enumerate(traj.events):
                if isinstance(model, DegrootGossip):
                    x[i] = x[i] + gains[i] * (x[j] - x[i])
                elif isinstance(model, SymmetricPairGossip):
                    mid = 0.5 * (x[i] + x[j])
                    x[i] = mid
                    x[j] = mid
                elif isinstance(model, GossipFJ):
                    lam, w, u = model.spec.lam, model.spec.w, model.spec.u[:, 0]
                    x[i] = (x[i] + lam[i] * w[i, j] * (x[j] - x[i])
                            + (1 - lam[i]) * w[i, j] * (u[i] - x[i]))
                elif interacted:
                    t = model.mu * (x[j] - x[i])
                    x[i] = x[i] + t
                    x[j] = x[j] - t
                assert np.array_equal(np.array(x), traj.array[k + 1, :, 0]), type(model)

    def test_hull_never_expands(self):
        rng = np.random.default_rng(5)
        x0 = OpinionState(rng.uniform(0, 1, size=10))
        for model in (
            DegrootGossip(ring_matrix(10), np.full(10, 0.6)),
            SymmetricPairGossip(ring_matrix(10)),
            DeffuantWeisbuch(d=0.4, mu=0.3),
        ):
            traj = simulate_gossip(model, x0, steps=2000, seed=9)
            mins = traj.array[:, :, 0].min(axis=1)
            maxs = traj.array[:, :, 0].max(axis=1)
            eps = 4 * np.finfo(float).eps
            assert np.all(np.diff(mins) >= -eps)
            assert np.all(np.diff(maxs) <= eps)

    def test_degroot_gossip_consensus_with_spanning_tree(self):
        model = DegrootGossip(ring_matrix(5), np.full(5, 0.5))
        rng = np.random.default_rng(6)
        x0 = OpinionState(rng.uniform(0, 1, size=5))
        for seed in range(50):
            traj = simulate_gossip(model, x0, steps=20_000, seed=seed, thin=20_000,
                                   record_events=False)
            assert traj.final.diameter() < 1e-6

    def test_dw_symmetric_sum_drift_is_roundoff_only(self):
        model = DeffuantWeisbuch(d=0.3, mu=0.5)
        rng = np.random.default_rng(7)
        x0 = OpinionState(rng.uniform(0, 1, size=20))
        traj = simulate_gossip(model, x0, steps=50_000, seed=3, thin=50_000)
        assert abs(traj.final.values.sum() - x0.values.sum()) < 1e-10

    def test_thinning_keeps_first_and_last(self):
        model = DeffuantWeisbuch(d=0.3, mu=0.5)
        x0 = OpinionState(np.linspace(0, 1, 5))
        traj = simulate_gossip(model, x0, steps=1003, seed=1, thin=100)
        assert traj.stamps[0] == 0
        assert traj.stamps[-1] == 1003
        full = simulate_gossip(model, x0, steps=1003, seed=1)
        assert np.array_equal(traj.array[-1], full.array[-1])


class TestExactPairDynamics:
    def test_symmetric_variant_conserves_sum_exactly(self):
        model = DeffuantWeisbuch(d=0.25, mu=0.5)
        rng = np.random.default_rng(8)
        x0 = OpinionState(rng.uniform(0, 1, size=12))
        res = dw_run_exact(model, x0, steps=20_000, seed=21)
        assert sum(res.initial_exact) == sum(res.final_exact)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_sum_conserved_at_every_recorded_state(self, data):
        # replay every event in Fractions: the flags, each recorded state
        # and the last state follow, and the symmetric sum never moves
        n = data.draw(st.integers(2, 6), label="n")
        opinion = st.floats(-1.0, 1.0) | st.sampled_from([-0.0, 5e-324, -2.5e-310])
        x0 = data.draw(st.lists(opinion, min_size=n, max_size=n), label="x0")
        mu = data.draw(st.sampled_from([0.5, 0.25, 0.3, 0.1, 0.49999])
                       | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), label="mu")
        bound = st.just(inf) | st.floats(1e-3, 2.5)
        mode = data.draw(st.sampled_from(["symmetric", "asymmetric"]), label="mode")
        if data.draw(st.booleans(), label="per-agent d"):
            d = np.array(data.draw(st.lists(bound, min_size=n, max_size=n), label="d"))
        else:
            d = data.draw(bound, label="d")
        model = DeffuantWeisbuch(d=d, mu=mu, mode=mode)
        steps = data.draw(st.integers(1, 60), label="steps")
        res = dw_run_exact(model, OpinionState(np.array(x0)), steps=steps,
                           seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                           thin=1, record_events=True)
        x = [Fraction(v) for v in x0]
        assert res.initial_exact == tuple(x)
        total, bounds, mu = sum(x), np.broadcast_to(model.d, n).tolist(), Fraction(mu)
        for k, (i, j, interacted) in enumerate(res.trajectory.events, 1):
            gap = x[j] - x[i]
            moved_i = abs(gap) <= bounds[i]
            moved_j = mode == "symmetric" and abs(gap) <= bounds[j]
            assert interacted == (moved_i or moved_j)
            if moved_i:
                x[i] += mu * gap
            if moved_j:
                x[j] -= mu * gap
            assert res.trajectory.array[k, :, 0].tolist() == [float(v) for v in x]
            if mode == "symmetric" and np.ndim(d) == 0:
                assert sum(x) == total
        assert tuple(x) == res.final_exact

    def test_exact_and_float_runs_share_pair_draws(self):
        model = DeffuantWeisbuch(d=0.3, mu=0.5)
        x0 = OpinionState(np.linspace(0, 1, 9))
        fl = simulate_gossip(model, x0, steps=500, seed=5)
        ex = dw_run_exact(model, x0, steps=500, seed=5, record_events=True)
        assert [(i, j) for i, j, _ in fl.events] == [(i, j) for i, j, _ in ex.trajectory.events]

    @pytest.mark.parametrize("model", [
        DeffuantWeisbuch(d=inf, mu=0.3),
        DeffuantWeisbuch(d=inf, mu=0.3, mode="asymmetric"),
        DeffuantWeisbuch(d=np.array([inf, 0.2, inf, 0.05, 0.4, inf]), mu=0.3),
    ], ids=["symmetric", "asymmetric", "heterogeneous"])
    def test_infinite_bound_trusts_every_gap(self, model):
        x0 = OpinionState(np.random.default_rng(10).uniform(-1.0, 1.0, 6))
        fl = simulate_gossip(model, x0, steps=400, seed=4)
        ex = dw_run_exact(model, x0, steps=400, seed=4, thin=1, record_events=True)
        assert ex.trajectory.events == fl.events
        assert np.allclose(ex.trajectory.array, fl.array, rtol=0.0, atol=1e-12)

    def test_asymmetric_per_agent_exact_run_matches_the_float_run(self):
        # opinions on the 1/16 grid and bounds on the 1/8 grid put many gaps
        # exactly on a bound; the runs draw the same pairs and move alike
        n = 12
        model = DeffuantWeisbuch(d=np.resize([0.125, 0.25, 0.375], n), mu=0.5, mode="asymmetric")
        x0 = OpinionState(np.random.default_rng(8).permutation(n) / 16)
        fl = simulate_gossip(model, x0, steps=2000, seed=6)
        ex = dw_run_exact(model, x0, steps=2000, seed=6, thin=1, record_events=True)
        assert ex.trajectory.events == fl.events
        assert {moved for _, _, moved in fl.events} == {True, False}
        assert np.allclose(ex.trajectory.array, fl.array, rtol=0.0, atol=1e-12)


def reference_dw_run_exact(model, x0, steps, seed, thin, record_events):
    """The per-agent-exponent loop that the shared-scale kernel replaced:
    every opinion and bound a (numerator, exponent) pair, aligned to the
    larger exponent at each meeting. The oracle of dw_run_exact's bits."""
    rng = make_rng(seed)
    n = x0.n
    nums, exps = map(list, zip(*[gossip._to_dyadic(v) for v in x0.flat.tolist()]))
    initial = tuple(Fraction(p, 1 << e) for p, e in zip(nums, exps))
    mu_num, mu_exp = gossip._to_dyadic(model.mu)
    bounds = np.broadcast_to(model.d, n).tolist()
    bound_nums, bound_exps = map(list, zip(*map(gossip._to_dyadic, bounds)))
    symmetric = model.mode == "symmetric"

    def snapshot():
        return np.array([float(Fraction(p, 1 << e)) for p, e in zip(nums, exps)])

    def within(agap_num, gap_exp, which):
        # |gap| <= d_which, cross-shifted to integers
        b_num, b_exp = bound_nums[which], bound_exps[which]
        if gap_exp >= b_exp:
            return agap_num <= b_num << (gap_exp - b_exp)
        return agap_num << (b_exp - gap_exp) <= b_num

    kept = [snapshot()]
    events = [] if record_events else None
    for _, draws, snap in gossip._chunks(gossip._draw_pairs, rng, n, steps, thin):
        act, partner = (a.tolist() for a in draws)
        moved = []
        for i, j, s in zip(act, partner, snap):
            e_i, e_j = exps[i], exps[j]
            e_g = e_i if e_i >= e_j else e_j
            gap_num = (nums[j] << (e_g - e_j)) - (nums[i] << (e_g - e_i))
            agap = -gap_num if gap_num < 0 else gap_num
            moved_i = within(agap, e_g, i)
            moved_j = symmetric and within(agap, e_g, j)
            if moved_i or moved_j:
                shift_num = mu_num * gap_num
                e_s = e_g + mu_exp
                if moved_i:
                    e_new = e_i if e_i >= e_s else e_s
                    nums[i] = (nums[i] << (e_new - e_i)) + (shift_num << (e_new - e_s))
                    exps[i] = e_new
                if moved_j:
                    e_new = e_j if e_j >= e_s else e_s
                    nums[j] = (nums[j] << (e_new - e_j)) - (shift_num << (e_new - e_s))
                    exps[j] = e_new
            moved.append(moved_i or moved_j)
            if s:
                kept.append(snapshot())
        if events is not None:
            events.extend(zip(act, partner, moved))
    final = tuple(Fraction(p, 1 << e) for p, e in zip(nums, exps))
    stamps = np.array(gossip._stamps(steps, thin), dtype=float)
    return np.stack(kept)[:, :, None], stamps, events, initial, final


def exact_models(mu):
    return {
        "symmetric": DeffuantWeisbuch(d=0.3, mu=mu),
        "asymmetric": DeffuantWeisbuch(d=0.3, mu=mu, mode="asymmetric"),
        "heterogeneous": DeffuantWeisbuch(d=np.random.default_rng(11).uniform(0.05, 0.6, 6),
                                          mu=mu),
        "heterogeneous-asymmetric": DeffuantWeisbuch(
            d=np.random.default_rng(11).uniform(0.05, 0.6, 6), mu=mu, mode="asymmetric"),
    }


EXACT_OPINIONS = {
    "uniform": np.random.default_rng(12).uniform(0.0, 1.0, 6),
    # negative, subnormal and signed-zero opinions
    "signed": np.array([-0.0, 5e-324, -2.5e-310, 0.2, -0.15, 0.1]),
    # gaps of exactly 0.3 = the homogeneous bound at the start
    "boundary": np.array([0.0, 0.3, 0.6, -0.3, 0.9, 0.3]),
}


class TestExactKernelParity:
    """The shared-scale exact kernel against the per-agent-exponent loop."""

    @staticmethod
    def assert_same(res, ref):
        array, stamps, events, initial, final = ref
        assert res.initial_exact == initial
        assert res.final_exact == final
        assert res.trajectory.array.tobytes() == array.tobytes()
        assert np.array_equal(res.trajectory.stamps, stamps)
        assert res.trajectory.events == events

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "heterogeneous",
                                      "heterogeneous-asymmetric"])
    @pytest.mark.parametrize("mu", [0.5, 0.25, 0.3, 0.1])
    @pytest.mark.parametrize("opinions", sorted(EXACT_OPINIONS))
    @pytest.mark.parametrize("thin", [1, 4])
    def test_bit_identical_with_per_agent_exponents(self, monkeypatch, kind, mu, opinions,
                                                    thin):
        # blocks of 7 and chunks of 3 steps, and a scale that grows by one
        # bit beyond the need, so that nearly every move rescales
        monkeypatch.setattr(gossip, "_BLOCK", 7)
        monkeypatch.setattr(gossip, "_CHUNK", 3)
        monkeypatch.setattr(gossip, "_HEADROOM", 1)
        model = exact_models(mu)[kind]
        x0 = OpinionState(EXACT_OPINIONS[opinions])
        for seed in range(3):
            for record_events in (True, False):
                res = dw_run_exact(model, x0, steps=101, seed=(seed, 5), thin=thin,
                                   record_events=record_events)
                self.assert_same(res, reference_dw_run_exact(model, x0, 101, (seed, 5), thin,
                                                             record_events))

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "heterogeneous"])
    @pytest.mark.parametrize("mu", [0.5, 0.3])
    def test_bit_identical_over_a_long_run(self, kind, mu):
        # default blocks and headroom: numerators thousands of bits long,
        # several rescales, states kept every 997 steps
        model = exact_models(mu)[kind]
        x0 = OpinionState(EXACT_OPINIONS["uniform"])
        res = dw_run_exact(model, x0, steps=6000, seed=7, thin=997, record_events=True)
        self.assert_same(res, reference_dw_run_exact(model, x0, 6000, 7, 997, True))


def reference_cesaro(arr):
    """The per-state numpy recurrence that the per-column pass replaced."""
    out = np.empty_like(arr)
    out[0] = arr[0]
    for k in range(1, arr.shape[0]):
        out[k] = out[k - 1] + (arr[k] - out[k - 1]) / (k + 1)
    return out


class TestCesaro:
    @pytest.mark.parametrize("steps", [1, 2, gossip._CHUNK, gossip._CHUNK + 1,
                                       3 * gossip._CHUNK + 5])
    @pytest.mark.parametrize("n", [1, 4, 50])
    @pytest.mark.parametrize("m", [1, 2])
    def test_bit_identical_with_numpy_recurrence(self, steps, n, m):
        rng = np.random.default_rng(steps * 100 + n * 10 + m)
        scale = 10.0 ** rng.integers(-30, 30, size=(steps, n, m))
        arr = rng.normal(size=(steps, n, m)) * scale
        got = cesaro(Trajectory(arr, np.arange(steps)))
        assert got.shape == arr.shape
        assert got.tobytes() == reference_cesaro(arr).tobytes()

    def test_bit_identical_on_non_contiguous_input(self):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(2 * gossip._CHUNK + 10, 6, 4))[::2, 1:5, ::2]
        assert not arr.flags.c_contiguous
        got = cesaro(Trajectory(arr, np.arange(len(arr))))
        assert got.tobytes() == reference_cesaro(arr).tobytes()

    def test_bit_identical_with_infinities_nan_and_signed_zeros(self):
        rng = np.random.default_rng(8)
        arr = rng.normal(size=(300, 4, 2))
        arr[0, 3, 1] = -0.0
        arr[10, 0, 0] = np.inf
        arr[20, 1, 1] = -np.inf
        arr[30, 2, 0] = np.nan
        arr[40, 3, 0] = -0.0
        arr[50, 1, 0], arr[60, 1, 0] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            want = reference_cesaro(arr)
        got = cesaro(Trajectory(arr, np.arange(300)))
        assert got.tobytes() == want.tobytes()

    def test_empty_trajectory_gives_empty_means(self):
        got = cesaro(Trajectory(np.zeros((0, 2, 1)), []))
        assert got.shape == (0, 2, 1)

    def test_constant_trajectory(self):
        traj = Trajectory(np.tile([1.0, 2.0], (5, 1))[:, :, None], np.arange(5))
        avg = cesaro(traj)
        assert np.array_equal(avg[-1][:, 0], [1.0, 2.0])

    def test_alternating_sequence_approaches_half(self):
        states = np.arange(10_001) % 2
        avg = cesaro(Trajectory(states[:, None, None], np.arange(10_001)))
        assert avg[-1][0, 0] == pytest.approx(0.5, abs=1e-4)

    def test_gossip_fj_cesaro_tracks_fixed_point(self):
        # the acceptance suite runs the full 20-seed version
        model = GossipFJ.from_fj(FJ4_LAMBDA, FJ4_W, FJ4_U)
        xbar = fj_fixed_point(FJSpec(lam=FJ4_LAMBDA, w=FJ4_W, u=FJ4_U)).values[:, 0]
        hits = 0
        for seed in range(5):
            traj = simulate_gossip(
                model, OpinionState(FJ4_U), steps=200_000, seed=seed, record_events=False
            )
            avg = cesaro(traj)[-1][:, 0]
            if np.max(np.abs(avg - xbar)) <= 2.0:
                hits += 1
        assert hits >= 4

    def test_fj_expected_update_recursion_matches_monte_carlo(self):
        # across many independent runs the mean trajectory follows the
        # one-step expected affine map within Monte Carlo error
        lam = np.array([0.6, 0.9, 0.3])
        w = np.array([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.1, 0.6, 0.3]])
        u = np.array([0.0, 1.0, 0.5])
        model = GossipFJ.from_fj(lam, w, u)
        n, arcs = 3, list(zip(*np.nonzero(w)))
        m = np.eye(n)
        b = np.zeros(n)
        for i, j in arcs:
            m[i, i] -= w[i, j] / len(arcs)
            m[i, j] += lam[i] * w[i, j] / len(arcs)
            b[i] += (1 - lam[i]) * w[i, j] * u[i] / len(arcs)
        checkpoints = (100, 1000)
        samples = {k: [] for k in checkpoints}
        for seed in range(500):
            traj = simulate_gossip(
                model, OpinionState(u), steps=1000, seed=seed, record_events=False
            )
            for k in checkpoints:
                samples[k].append(traj.array[k, :, 0])
        expected = u.copy()
        for k in range(1, 1001):
            expected = m @ expected + b
            if k in checkpoints:
                sample = np.array(samples[k])
                mean = sample.mean(axis=0)
                se = sample.std(axis=0, ddof=1) / np.sqrt(len(sample))
                assert np.all(np.abs(mean - expected) <= 3 * np.maximum(se, 1e-12))


class TestBernoulliConvolution:
    @pytest.mark.parametrize("seed", [0, 1, 7, (7, 3), (2024, 1)])
    def test_value_is_the_binary_fraction_of_the_seeded_flips(self, seed):
        # at gamma = 1/2 the sample is 0.xi_1 xi_2 ... xi_depth in binary,
        # exact in a double for depth <= 53
        for depth in (1, 10, 53):
            flips = make_rng(seed).integers(0, 2, size=depth).tolist()
            want = sum(Fraction(xi, 2**s) for s, xi in enumerate(flips, 1))
            assert bernoulli_convolution(0.5, depth, seed) == want

    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.9])
    def test_value_is_the_weighted_sum_of_the_seeded_flips(self, gamma):
        g = Fraction(gamma)
        for seed in range(5):
            flips = make_rng(seed).integers(0, 2, size=40).tolist()
            want = g / (1 - g) * sum((1 - g) ** s * xi for s, xi in enumerate(flips, 1))
            got = bernoulli_convolution(gamma, 40, make_rng(seed))
            assert got == pytest.approx(float(want), rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("gamma, depth, message", [
        (0.0, 3, r"gamma must lie in \(0, 1\)"),
        (1.0, 3, r"gamma must lie in \(0, 1\)"),
        (0.5, 0, "depth must be >= 1"),
    ], ids=["zero-gamma", "unit-gamma", "zero-depth"])
    def test_invalid_arguments_rejected(self, gamma, depth, message):
        with pytest.raises(ValueError, match=message):
            bernoulli_convolution(gamma, depth, 0)

    def test_uniform_moments_at_half(self):
        rng = make_rng(123)
        samples = np.array([bernoulli_convolution(0.5, 60, rng) for _ in range(100_000)])
        assert abs(samples.mean() - 0.5) <= 0.01
        assert abs(samples.var() - 1.0 / 12.0) <= 0.005


class TestMoreGossipSurfaces:
    def test_fj_prejudice_override(self):
        from opiniondyn.presets import FJ4_LAMBDA, FJ4_U, FJ4_W

        model = GossipFJ.from_fj(FJ4_LAMBDA, FJ4_W, FJ4_U)
        x = OpinionState(FJ4_U)
        base = simulate_gossip(model, x, steps=1, seed=2)
        override = simulate_gossip(replace(model, spec=replace(model.spec, u=FJ4_U + 10.0)), x,
                                   steps=1, seed=2)
        (i, j, _), = base.events
        assert override.events == base.events
        if (1 - FJ4_LAMBDA[i]) * FJ4_W[i, j] > 0:
            assert not np.array_equal(base.final.values, override.final.values)

    @pytest.mark.parametrize("u", [[np.nan, 1.0], [0.0, np.inf]])
    def test_non_finite_prejudice_rejected_at_construction(self, u):
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="^u must be finite"):
            GossipFJ.from_fj([0.5, 0.5], w, u)

    def test_arcs_are_the_support_of_w_in_nonzero_order(self):
        model = GossipFJ.from_fj(FJ4_LAMBDA, FJ4_W, FJ4_U)
        ai, aj = np.nonzero(FJ4_W)
        arc = make_rng(5).integers(len(ai), size=1000)
        w = FJ4_W[ai, aj]
        expected = (ai[arc], aj[arc], (FJ4_LAMBDA[ai] * w)[arc], ((1 - FJ4_LAMBDA[ai]) * w)[arc])
        for got, want in zip(model._draw(make_rng(5), model.n, 1000), expected, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (2, 2) in zip(ai.tolist(), aj.tolist())  # the self-arc of the stubborn agent

    @pytest.mark.parametrize("d", [0.0, -0.1, float("nan")])
    def test_pair_dynamics_reject_bounds_that_are_not_positive(self, d):
        with pytest.raises(ValueError, match="positive"):
            DeffuantWeisbuch(d=d, mu=0.5)
        with pytest.raises(ValueError, match="positive"):
            DeffuantWeisbuch(d=np.array([0.3, d]), mu=0.5)

    @pytest.mark.parametrize("name, value", [
        ("d", np.array(0.3)), ("mu", "a"), ("mu", np.array(0.5)),
    ])
    def test_pair_dynamics_bound_and_move_fraction_must_be_real_numbers(self, name, value):
        # str, None, bool and complex values: test_count_fuzz's REAL_CALLS
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            DeffuantWeisbuch(**{"d": 0.3, "mu": 0.5, name: value})

    @pytest.mark.parametrize("mu", [0.5, 0.3])
    def test_numpy_bound_and_move_fraction_run_as_floats(self, mu):
        model = DeffuantWeisbuch(d=np.float64(0.3), mu=np.float64(mu))
        assert type(model.d) is float and type(model.mu) is float
        plain = DeffuantWeisbuch(d=0.3, mu=mu)
        x0 = OpinionState(np.random.default_rng(4).uniform(0, 1, size=8))
        for run in (lambda m: simulate_gossip(m, x0, steps=500, seed=3),
                    lambda m: dw_run_exact(m, x0, steps=500, seed=3, thin=50,
                                           record_events=True).trajectory):
            got, want = run(model), run(plain)
            assert got.array.tobytes() == want.array.tobytes()
            assert got.events == want.events

    @pytest.mark.parametrize("make, message", [
        (lambda: DegrootGossip(np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([0.5, 0.5])),
         "partner matrix must have a zero diagonal"),
        (lambda: SymmetricPairGossip(np.array([[0.0, 1.0], [0.5, 0.5]])),
         "partner matrix must have a zero diagonal"),
        (lambda: DegrootGossip(ring_matrix(3), np.array([0.5, 0.5])),
         "^gains is for 2 agents, not 3$"),
        (lambda: DegrootGossip(ring_matrix(3), np.full((3, 1), 0.5)),
         r"^gains must be a vector, got shape \(3, 1\)$"),
        (lambda: GossipFJ.from_fj([0.5, 0.5], np.eye(2), np.zeros(3)),
         "^u is for 3 agents, not 2$"),
        (lambda: GossipFJ.from_fj([[0.5, 0.5]], np.eye(2), np.zeros(2)),
         r"^lam must be a vector, got shape \(1, 2\)$"),
        (lambda: GossipFJ.from_fj([0.5, 0.5], np.eye(2), np.zeros((2, 3))),
         r"gossip prejudices must be scalar, got u of shape \(2, 3\)"),
        (lambda: DeffuantWeisbuch(d=0.3, mu=1.0), r"the move fraction must lie in \(0, 1\)"),
        (lambda: DeffuantWeisbuch(d=np.array([0.3, 0.3]), mu=float("nan")),
         r"the move fraction must lie in \(0, 1\)"),
        (lambda: DeffuantWeisbuch(d=0.3, mu=0.5, mode="both"),
         "mode must be 'symmetric' or 'asymmetric'"),
        (lambda: DeffuantWeisbuch(d=np.array([[0.3, 0.3]]), mu=0.5),
         r"^d must be a nonempty list of real numbers, got array\(\[\[0.3, 0.3\]\]\)$"),
    ], ids=["degroot-self-partner", "symmetric-self-partner", "gain-count", "gain-matrix",
            "prejudice-length", "lam-matrix", "prejudice-columns", "unit-mu", "nan-mu", "mode", "bounds-matrix"])
    def test_invalid_models_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("run, error, message", [
        (lambda: simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5),
                                 OpinionState([[0.0, 1.0], [1.0, 0.0]]), steps=5, seed=0),
         ValueError, "gossip models act on scalar opinions"),
        (lambda: simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 1.0]),
                                 steps=0, seed=0),
         ValueError, "steps must be >= 1"),
        (lambda: simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 1.0]),
                                 steps=5, seed=0, thin=0),
         ValueError, "thin must be >= 1"),
        (lambda: simulate_gossip(object(), OpinionState([0.0, 1.0]), steps=5, seed=0),
         ValueError, "unknown gossip model object"),
        (lambda: simulate_gossip(SymmetricPairGossip(ring_matrix(3)), OpinionState([0.0, 1.0]),
                                 steps=5, seed=0),
         ValueError, "^model is for 3 agents, not 2$"),
        (lambda: dw_run_exact(SymmetricPairGossip(ring_matrix(3)), OpinionState([0.0, 1.0, 2.0]),
                              steps=5, seed=0),
         ValueError, "exact runs are provided for the pair dynamics"),
        (lambda: simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 1.0]),
                                 steps=2.5, seed=0),
         ValueError, "steps must be a whole number, got 2.5"),
        (lambda: simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 1.0]),
                                 steps=5, seed=0, thin=inf),
         ValueError, "thin must be a whole number, got inf"),
        (lambda: dw_run_exact(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 1.0]),
                              steps=2.5, seed=0),
         ValueError, "steps must be a whole number, got 2.5"),
        (lambda: dw_run_exact(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 1.0]),
                              steps=5, seed=0, thin=inf),
         ValueError, "thin must be a whole number, got inf"),
        (lambda: simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 1.0]),
                                 steps=10**15, seed=0, thin=10**15),
         ValueError, "1000000000000000 steps are too many events to hold in memory"),
    ], ids=["vector-opinions", "zero-steps", "zero-thin", "unknown-model", "model-size",
            "exact-non-pair", "fractional-steps", "infinite-thin",
            "exact-fractional-steps", "exact-infinite-thin", "events-beyond-memory"])
    def test_invalid_runs_rejected(self, run, error, message):
        with pytest.raises(error, match=message):
            run()

    def test_numpy_integer_counts_are_accepted(self):
        model, x0 = DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 0.2, 0.9])
        traj = simulate_gossip(model, x0, steps=np.int64(5), seed=0, thin=np.int32(2))
        assert traj.stamps.tolist() == [0.0, 2.0, 4.0, 5.0]
        assert traj.events == simulate_gossip(model, x0, steps=5, seed=0).events
        whole = simulate_gossip(model, x0, steps=5, seed=0, thin=2.0)
        assert np.array_equal(whole.array, traj.array) and whole.events == traj.events
        res = dw_run_exact(model, x0, steps=np.int64(5), seed=0, thin=np.int64(2))
        assert np.array_equal(res.trajectory.array, traj.array)

    def test_dw_dichotomy_at_long_horizon(self):
        # per-pair gaps settle to coincidence or distrust at horizon 1e5 * n
        model = DeffuantWeisbuch(d=0.3, mu=0.5)
        rng = np.random.default_rng(11)
        for trial in range(3):
            n = 5
            x0 = OpinionState(rng.uniform(0, 1, size=n))
            traj = simulate_gossip(model, x0, steps=100_000 * n, seed=trial,
                                   thin=100_000 * n, record_events=False)
            f = traj.final.values[:, 0]
            gaps = np.abs(f[:, None] - f[None, :])[np.triu_indices(n, 1)]
            assert np.all((gaps < 1e-6) | (gaps >= model.d - 1e-6))


class TestBlockKernels:
    """The block draw/apply kernels against the per-step reference."""

    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize("thin", [1, 3, 16, 200])
    def test_simulate_matches_per_step_reference(self, monkeypatch, name, thin):
        # blocks of 7 and list chunks of 3 steps: both boundaries are crossed
        # many times, and neither lines up with thin
        monkeypatch.setattr(gossip, "_BLOCK", 7)
        monkeypatch.setattr(gossip, "_CHUNK", 3)
        model = KERNEL_MODELS[name]
        x0 = OpinionState(np.random.default_rng(1).uniform(0.0, 1.0, 6))
        for seed in range(4):
            for record_events in (True, False):
                traj = simulate_gossip(model, x0, steps=101, seed=(seed, 2), thin=thin,
                                       record_events=record_events)
                array, stamps, events = reference_simulate(
                    model, x0, 101, (seed, 2), thin, record_events, block=7
                )
                assert np.array_equal(traj.array, array)
                assert np.array_equal(traj.stamps, stamps)
                assert traj.events == events
                if events is not None:
                    assert all(type(flag) is bool for _, _, flag in traj.events)

    @pytest.mark.parametrize("name", sorted(name for name in KERNEL_MODELS if "dw" in name))
    @pytest.mark.parametrize("thin", [1, 999])
    def test_pair_dynamics_states_do_not_depend_on_recording_events(self, name, thin):
        # without events the pair loop keeps no interacted flags; the states,
        # -0.0 included, are the same bytes
        model = KERNEL_MODELS[name]
        x0 = OpinionState([-0.0, 0.0, 0.05, -0.1, 0.2, 0.5])
        with_events, without = (simulate_gossip(model, x0, steps=20_000, seed=8, thin=thin,
                                                record_events=record)
                                for record in (True, False))
        assert without.events is None and len(with_events.events) == 20_000
        assert with_events.array.tobytes() == without.array.tobytes()
        assert with_events.stamps.tobytes() == without.stamps.tobytes()

    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_default_block_matches_reference(self, name):
        model = KERNEL_MODELS[name]
        x0 = OpinionState(np.random.default_rng(2).uniform(0.0, 1.0, 6))
        traj = simulate_gossip(model, x0, steps=70_000, seed=5, thin=999)
        array, stamps, events = reference_simulate(model, x0, 70_000, 5, 999, True,
                                                   block=gossip._BLOCK)
        assert np.array_equal(traj.array, array)
        assert np.array_equal(traj.stamps, stamps)
        assert traj.events == events

    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_one_step_run_matches_reference(self, name):
        model = KERNEL_MODELS[name]
        x0 = OpinionState(np.random.default_rng(3).uniform(0.0, 1.0, 6))
        for seed in range(50):
            traj = simulate_gossip(model, x0, steps=1, seed=seed)
            array, _, events = reference_simulate(model, x0, 1, seed, 1, True, block=1)
            assert np.array_equal(traj.final.values, array[-1])
            assert traj.events == events

    @pytest.mark.parametrize("name", ["dw-symmetric", "dw-asymmetric", "dw-heterogeneous",
                                      "dw-heterogeneous-asymmetric"])
    def test_pair_rule_on_the_bound_matches_reference(self, monkeypatch, name):
        # opinions on the 1/16 grid of [0, 1], mu = 1/2 and bounds that are
        # multiples of 1/8: gaps equal the bounds exactly at many steps,
        # where <= against < and the i against the j bound decide who moves
        monkeypatch.setattr(gossip, "_BLOCK", 7)
        monkeypatch.setattr(gossip, "_CHUNK", 3)
        n = 17
        model = {
            "dw-symmetric": DeffuantWeisbuch(d=0.25, mu=0.5),
            "dw-asymmetric": DeffuantWeisbuch(d=0.25, mu=0.5, mode="asymmetric"),
            "dw-heterogeneous": DeffuantWeisbuch(d=np.resize([0.125, 0.25, 0.375], n), mu=0.5),
            "dw-heterogeneous-asymmetric": DeffuantWeisbuch(
                d=np.resize([0.125, 0.25, 0.375], n), mu=0.5, mode="asymmetric"),
        }[name]
        bounds = np.broadcast_to(model.d, n)
        x0 = OpinionState(np.random.default_rng(8).permutation(n) / 16)
        on_bound = 0
        for seed in range(16):
            traj = simulate_gossip(model, x0, steps=40, seed=(seed, 3))
            array, _, events = reference_simulate(model, x0, 40, (seed, 3), 1, True, block=7)
            assert np.array_equal(traj.array, array)
            assert traj.events == events
            for x, (i, j, _) in zip(array[:, :, 0], events):
                on_bound += abs(x[j] - x[i]) in (bounds[i], bounds[j])
        assert on_bound >= 20

    def test_shared_generator_steps_match_one_run(self):
        # successive steps on one generator consume it like one run in
        # blocks of a single step
        model = KERNEL_MODELS["dw-heterogeneous"]
        x = OpinionState(np.random.default_rng(5).uniform(0.0, 1.0, 6))
        rng = make_rng(9)
        events = []
        for _ in range(40):
            traj = simulate_gossip(model, x, steps=1, seed=rng)
            x = traj.final
            events.extend(traj.events)
        array, _, ref_events = reference_simulate(
            model, OpinionState(np.random.default_rng(5).uniform(0.0, 1.0, 6)), 40, 9, 40,
            True, block=1,
        )
        assert np.array_equal(x.values, array[-1])
        assert events == ref_events

    @pytest.mark.parametrize("name", ["dw-symmetric", "dw-asymmetric", "dw-heterogeneous",
                                      "dw-heterogeneous-asymmetric"])
    def test_exact_run_shares_the_block_draw(self, monkeypatch, name):
        monkeypatch.setattr(gossip, "_BLOCK", 7)
        monkeypatch.setattr(gossip, "_CHUNK", 3)
        model = KERNEL_MODELS[name]
        x0 = OpinionState(np.random.default_rng(6).uniform(0.0, 1.0, 6))
        res = dw_run_exact(model, x0, steps=101, seed=3, thin=4, record_events=True)
        _, stamps, events = reference_simulate(model, x0, 101, 3, 4, True, block=7)
        assert [(i, j) for i, j, _ in res.trajectory.events] == [(i, j) for i, j, _ in events]
        assert np.array_equal(res.trajectory.stamps, stamps)

    def test_row_partner_draw_is_bisect_right_with_clamp(self):
        # uniforms on the cumulative values themselves (ties), just below
        # them, and above a row total that falls short of one (the clamp)
        n = 5
        rng = np.random.default_rng(7)
        p = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(p, 0.0)
        p[np.arange(n), (np.arange(n) + 1) % n] += 0.5
        p *= (1.0 - 5e-10) / p.sum(axis=1, keepdims=True)
        cum = np.cumsum(p, axis=1)
        act = np.repeat(np.arange(n), 3 * n + 2)
        unif = np.concatenate([
            np.concatenate([cum[i], np.nextafter(cum[i], -1.0), [0.0, 1.0 - 1e-10],
                            np.nextafter(cum[i], 2.0)])
            for i in range(n)
        ])

        class Stub:
            def integers(self, high, size):
                assert (high, size) == (n, len(act))
                return act.copy()

            def random(self, size):
                return unif.copy()

        drawn_act, partner = gossip._draw_row_partners(p, Stub(), len(act))
        expected = [min(bisect_right(list(cum[i]), u), n - 1) for i, u in zip(act, unif)]
        assert np.array_equal(drawn_act, act)
        assert partner.tolist() == expected
        assert n - 1 in [e for e, u in zip(expected, unif) if u == 1.0 - 1e-10]


def events_and_oracle(name: str, thin: int, seed):
    """A 101-step run of the named gossip model (``exact-<kind>``: the exact
    pair dynamics) with events, and its list-of-tuples oracle."""
    x0 = OpinionState(np.random.default_rng(1).uniform(0.0, 1.0, 6))
    if name.startswith("exact-"):
        model = exact_models(0.5)[name.removeprefix("exact-")]
        res = dw_run_exact(model, x0, steps=101, seed=seed, thin=thin, record_events=True)
        return res.trajectory, reference_dw_run_exact(model, x0, 101, seed, thin, True)[2]
    model = KERNEL_MODELS[name]
    traj = simulate_gossip(model, x0, steps=101, seed=seed, thin=thin)
    return traj, reference_simulate(model, x0, 101, seed, thin, True, block=7)[2]


class TestEvents:
    """Trajectory.events, three read-only columns, against the list-of-tuples
    oracles: every gossip model and the exact pair dynamics, with blocks,
    list chunks and iteration chunks that the 101 steps cross many times."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(gossip, "_BLOCK", 7)
        monkeypatch.setattr(gossip, "_CHUNK", 3)
        monkeypatch.setattr(state, "_ITER_CHUNK", 4)

    RUNS = sorted(KERNEL_MODELS) + [f"exact-{kind}" for kind in sorted(exact_models(0.5))]

    @pytest.mark.parametrize("name", RUNS)
    @pytest.mark.parametrize("thin", [1, 3])
    def test_equal_to_the_oracle_both_ways_and_to_a_rerun(self, name, thin):
        traj, oracle = events_and_oracle(name, thin, (3, 2))
        events = traj.events
        assert len(events) == len(oracle) == traj.stamps[-1] == 101
        assert events == oracle and oracle == events
        assert events == tuple(oracle) and tuple(oracle) == events
        assert list(events) == oracle
        assert events == events_and_oracle(name, thin, (3, 2))[0].events
        other, other_oracle = events_and_oracle(name, thin, (4, 2))
        assert other_oracle != oracle
        assert events != other.events and events != other_oracle and other_oracle != events
        flipped = oracle[:-1] + [(*oracle[-1][:2], not oracle[-1][2])]
        assert events != flipped and events != oracle[:-1]
        assert events != np.asarray(events).tolist()  # rows of lists are not records
        assert not events == 101

    @pytest.mark.parametrize("name", RUNS)
    @pytest.mark.parametrize("thin", [1, 3])
    def test_records_are_python_scalars(self, name, thin):
        traj, oracle = events_and_oracle(name, thin, (3, 2))
        events = traj.events
        for k in (0, 1, 50, 100, -1, -101):
            assert events[k] == oracle[k]
            assert [type(v) for v in events[k]] == [int, int, bool]
        for record in events:
            assert [type(v) for v in record] == [int, int, bool]
        for k in (101, -102):
            with pytest.raises(IndexError):
                events[k]

    @pytest.mark.parametrize("name", RUNS)
    @pytest.mark.parametrize("thin", [1, 3])
    def test_array_form_has_the_bytes_of_the_oracle(self, name, thin):
        # filterwarnings = error: numpy 2 warns when __array__ lacks copy
        traj, oracle = events_and_oracle(name, thin, (3, 2))
        expected = np.array(oracle, dtype=np.int64)
        for array in (np.array(traj.events, dtype=np.int64), np.asarray(traj.events),
                      np.array(traj.events, copy=True)):
            assert array.dtype == np.int64 and array.shape == (101, 3)
            assert array.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="always a copy"):
            np.array(traj.events, copy=False)

    def test_columns_are_read_only(self):
        traj, oracle = events_and_oracle("dw-symmetric", 1, (3, 2))
        events = traj.events
        for name in ("agent", "partner", "interacted"):
            column = getattr(events, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
            with pytest.raises(FrozenInstanceError):
                setattr(events, name, column.copy())
        assert events == oracle

    def test_events_cover_every_step_whatever_the_thinning(self):
        traj = simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), OpinionState([0.0, 0.2, 0.9]),
                               steps=5, seed=0, thin=3)
        assert traj.stamps.tolist() == [0.0, 3.0, 5.0]
        assert len(traj) == 3
        assert len(traj.events) == traj.stamps[-1] == 5


def test_dw_events_retain_at_most_24_bytes_each():
    # 200000 steps on 2000 agents, keeping only the ends: the events are
    # nearly all the run retains (17 bytes each as int64/int64/bool columns,
    # about 130 as a list of (int, int, bool) tuples)
    steps = 200_000
    x0 = OpinionState(np.random.default_rng(0).uniform(0.0, 1.0, 2000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate_gossip(DeffuantWeisbuch(d=0.3, mu=0.5), x0, steps=steps, seed=1,
                               thin=steps)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.events) == steps
    assert retained <= 24 * steps, f"{retained / steps:.1f} bytes per event"
