from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import gossip
from opiniondyn import (
    DWHeterogeneous,
    DeffuantWeisbuch,
    DegrootGossip,
    FJSpec,
    GossipFJ,
    OpinionState,
    RngSeed,
    SymmetricPairGossip,
    Trajectory,
    bernoulli_convolution,
    build_gammas,
    cesaro,
    dw_run_exact,
    fj_fixed_point,
    gossip_step,
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
    done = 0
    while done < steps:
        count = min(block, steps - done)
        if isinstance(model, GossipFJ):
            arc_idx = rng.integers(len(model.arcs), size=count)
        else:
            act = rng.integers(n, size=count)
            if isinstance(model, (DegrootGossip, SymmetricPairGossip)):
                unif = rng.random(count)
            else:
                partner = rng.integers(n - 1, size=count)
        for b in range(count):
            moved = True
            if isinstance(model, GossipFJ):
                i, j = model.arcs[arc_idx[b]]
                x[i] = (
                    x[i]
                    + model.gamma1[i, j] * (x[j] - x[i])
                    + model.gamma2[i, j] * (model.u[i] - x[i])
                )
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
                if isinstance(model, DeffuantWeisbuch):
                    d_i = d_j = model.d
                    symmetric = model.mode == "symmetric"
                else:
                    d_i, d_j, symmetric = model.d[i], model.d[j], True
                gap = x[j] - x[i]
                moved_i = abs(gap) <= d_i
                moved_j = symmetric and abs(gap) <= d_j
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
        "dw-heterogeneous": DWHeterogeneous(d=rng.uniform(0.05, 0.6, n), mu=0.41),
    }


KERNEL_MODELS = kernel_models(6)


class TestBuildGammas:
    def test_full_susceptibility_kills_prejudice_factor(self):
        w = ring_matrix(4)
        g1, g2 = build_gammas(np.ones(4), w)
        assert np.array_equal(g1, w)
        assert np.max(np.abs(g2)) == 0

    def test_zero_susceptibility_kills_opinion_factor(self):
        w = ring_matrix(4)
        g1, g2 = build_gammas(np.zeros(4), w)
        assert np.max(np.abs(g1)) == 0
        assert np.array_equal(g2, w)

    def test_half_half_swap(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        g1, g2 = build_gammas(np.array([0.5, 0.5]), w)
        expected = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(g1, expected)
        assert np.array_equal(g2, expected)


class TestGossipStep:
    def test_pair_average_moves_both_to_midpoint(self):
        model = SymmetricPairGossip(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out, event = gossip_step(OpinionState([0.0, 1.0]), model, rng=0)
        i, j, interacted = event
        assert interacted and {i, j} == {0, 1}
        assert np.array_equal(out.values[:, 0], [0.5, 0.5])

    def test_dw_within_bound_meets_halfway(self):
        model = DeffuantWeisbuch(d=0.5, mu=0.5)
        x = OpinionState([0.0, 0.4])
        out, event = gossip_step(x, model, rng=1)
        assert event[2]
        assert np.array_equal(out.values[:, 0], [0.2, 0.2])

    def test_dw_beyond_bound_unchanged(self):
        model = DeffuantWeisbuch(d=0.5, mu=0.5)
        x = OpinionState([0.0, 0.6])
        out, event = gossip_step(x, model, rng=1)
        assert not event[2]
        assert np.array_equal(out.values, x.values)

    @pytest.mark.parametrize(
        "run",
        [
            lambda model, x: gossip_step(x, model, rng=0),
            lambda model, x: simulate_gossip(model, x, steps=5, seed=0),
            lambda model, x: dw_run_exact(model, x, steps=5, seed=0),
        ],
        ids=["gossip_step", "simulate_gossip", "dw_run_exact"],
    )
    @pytest.mark.parametrize(
        "model",
        [DeffuantWeisbuch(d=0.5, mu=0.5), DWHeterogeneous(d=np.array([0.5]), mu=0.5)],
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
            out, (i, j, _) = gossip_step(x, model, rng=seed)
            if i == 0:
                assert out.values[0, 0] == 0.3

    def test_only_designated_agents_change(self):
        rng = np.random.default_rng(3)
        x0 = OpinionState(rng.uniform(0, 1, size=8))
        models = [
            DegrootGossip(ring_matrix(8), np.full(8, 0.4)),
            SymmetricPairGossip(ring_matrix(8)),
            DeffuantWeisbuch(d=0.3, mu=0.4, mode="symmetric"),
            DeffuantWeisbuch(d=0.3, mu=0.4, mode="asymmetric"),
            DWHeterogeneous(d=rng.uniform(0.1, 0.5, size=8), mu=0.4),
        ]
        for model in models:
            for seed in range(10):
                out, (i, j, _) = gossip_step(x0, model, rng=seed)
                untouched = [a for a in range(8) if a not in (i, j)]
                assert np.array_equal(out.values[untouched], x0.values[untouched])
                if isinstance(model, DeffuantWeisbuch) and model.mode == "asymmetric":
                    assert out.values[j, 0] == x0.values[j, 0]

    def test_heterogeneous_bounds_one_sided_move(self):
        # gap 0.4: inside agent 0's bound, outside agent 1's
        model = DWHeterogeneous(d=np.array([0.5, 0.3]), mu=0.5)
        x = OpinionState([0.0, 0.4])
        moved = set()
        for seed in range(10):
            out, (i, j, interacted) = gossip_step(x, model, rng=seed)
            assert interacted
            if i == 0 or j == 0:
                moved.add((out.values[0, 0], out.values[1, 0]))
        assert moved == {(0.2, 0.4)}


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
        a = simulate_gossip(model, x0, steps=500, seed=RngSeed(7, stream=0))
        b = simulate_gossip(model, x0, steps=500, seed=RngSeed(7, stream=1))
        assert not np.array_equal(a.array, b.array)

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
                    x[i] = (
                        x[i]
                        + model.gamma1[i, j] * (x[j] - x[i])
                        + model.gamma2[i, j] * (model.u[i] - x[i])
                    )
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
        kind = data.draw(st.sampled_from(["symmetric", "asymmetric", "heterogeneous"]))
        if kind == "heterogeneous":
            d = data.draw(st.lists(bound, min_size=n, max_size=n), label="d")
            model = DWHeterogeneous(d=np.array(d), mu=mu)
        else:
            model = DeffuantWeisbuch(d=data.draw(bound, label="d"), mu=mu, mode=kind)
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
            moved_j = kind != "asymmetric" and abs(gap) <= bounds[j]
            assert interacted == (moved_i or moved_j)
            if moved_i:
                x[i] += mu * gap
            if moved_j:
                x[j] -= mu * gap
            assert res.trajectory.array[k, :, 0].tolist() == [float(v) for v in x]
            if kind == "symmetric":
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
        DWHeterogeneous(d=np.array([inf, 0.2, inf, 0.05, 0.4, inf]), mu=0.3),
    ], ids=["symmetric", "asymmetric", "heterogeneous"])
    def test_infinite_bound_trusts_every_gap(self, model):
        x0 = OpinionState(np.random.default_rng(10).uniform(-1.0, 1.0, 6))
        fl = simulate_gossip(model, x0, steps=400, seed=4)
        ex = dw_run_exact(model, x0, steps=400, seed=4, thin=1, record_events=True)
        assert ex.trajectory.events == fl.events
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
    if isinstance(model, DeffuantWeisbuch):
        bound_nums, bound_exps = map(list, zip(*[gossip._to_dyadic(model.d)] * n))
        symmetric = model.mode == "symmetric"
    else:
        bound_nums, bound_exps = map(list, zip(*map(gossip._to_dyadic, model.d.tolist())))
        symmetric = True

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
    for (act, partner), snap in gossip._chunks(gossip._draw_pairs, rng, n, steps, thin):
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
        "heterogeneous": DWHeterogeneous(d=np.random.default_rng(11).uniform(0.05, 0.6, 6),
                                         mu=mu),
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

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "heterogeneous"])
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
        from opiniondyn import trajectory_from_states

        traj = trajectory_from_states([[1.0, 2.0]] * 5)
        avg = cesaro(traj)
        assert np.array_equal(avg[-1][:, 0], [1.0, 2.0])

    def test_alternating_sequence_approaches_half(self):
        from opiniondyn import trajectory_from_states

        states = [[float(k % 2)] for k in range(10_001)]
        avg = cesaro(trajectory_from_states(states))
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
        n, arcs = 3, model.arcs
        m = np.eye(n)
        b = np.zeros(n)
        for i, j in arcs:
            e_i = np.zeros(n)
            e_i[i] = 1.0
            m[i, i] -= (model.gamma1[i, j] + model.gamma2[i, j]) / len(arcs)
            m[i, j] += model.gamma1[i, j] / len(arcs)
            b[i] += model.gamma2[i, j] * u[i] / len(arcs)
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
    def test_all_zero_bits(self):
        assert bernoulli_convolution(0.5, 10, rng=0, bits=np.zeros(10, dtype=int)) == 0.0

    def test_all_one_bits_geometric_sum(self):
        val = bernoulli_convolution(0.5, 60, rng=0, bits=np.ones(60, dtype=int))
        assert val == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bits", [[2, 7, -1], [1, 0, 2], [0.5, 0, 1], [1, np.nan, 0]])
    def test_bits_other_than_zero_or_one_rejected(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            bernoulli_convolution(0.5, 3, None, bits=bits)

    def test_boolean_bits_accepted(self):
        assert bernoulli_convolution(0.5, 3, None, bits=[True, False, True]) == 0.625

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
        base, (i, j, _) = gossip_step(x, model, rng=2)
        override, (i2, j2, _) = gossip_step(x, model, rng=2, u=FJ4_U + 10.0)
        assert (i, j) == (i2, j2)
        if model.gamma2[i, j] > 0:
            assert not np.array_equal(base.values, override.values)

    def test_empty_arc_list_rejected(self):
        with pytest.raises(ValueError):
            GossipFJ(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), arcs=())

    @pytest.mark.parametrize("d", [0.0, -0.1, float("nan")])
    def test_pair_dynamics_reject_bounds_that_are_not_positive(self, d):
        with pytest.raises(ValueError, match="positive"):
            DeffuantWeisbuch(d=d, mu=0.5)
        with pytest.raises(ValueError, match="positive"):
            DWHeterogeneous(d=np.array([0.3, d]), mu=0.5)

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
    def test_gossip_step_is_a_one_step_block(self, name):
        model = KERNEL_MODELS[name]
        x0 = OpinionState(np.random.default_rng(3).uniform(0.0, 1.0, 6))
        for seed in range(50):
            out, event = gossip_step(x0, model, rng=seed)
            traj = simulate_gossip(model, x0, steps=1, seed=seed)
            assert np.array_equal(out.values, traj.final.values)
            assert event == traj.events[0]
            array, _, events = reference_simulate(model, x0, 1, seed, 1, True, block=1)
            assert np.array_equal(out.values, array[-1])
            assert event == events[0]

    def test_gossip_step_prejudice_override(self):
        model = KERNEL_MODELS["fj"]
        x0 = OpinionState(np.random.default_rng(4).uniform(0.0, 1.0, 6))
        override = model.u + 10.0
        for seed in range(50):
            out, event = gossip_step(x0, model, rng=seed, u=override)
            traj = simulate_gossip(replace(model, u=override), x0, steps=1, seed=seed)
            assert np.array_equal(out.values, traj.final.values)
            assert event == traj.events[0]

    @pytest.mark.parametrize("name", ["dw-symmetric", "dw-asymmetric", "dw-heterogeneous"])
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
            "dw-heterogeneous": DWHeterogeneous(d=np.resize([0.125, 0.25, 0.375], n), mu=0.5),
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
            x, event = gossip_step(x, model, rng=rng)
            events.append(event)
        array, _, ref_events = reference_simulate(
            model, OpinionState(np.random.default_rng(5).uniform(0.0, 1.0, 6)), 40, 9, 40,
            True, block=1,
        )
        assert np.array_equal(x.values, array[-1])
        assert events == ref_events

    @pytest.mark.parametrize("name", ["dw-symmetric", "dw-asymmetric", "dw-heterogeneous"])
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
