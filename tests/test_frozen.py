"""Every type that holds arrays stores read-only copies of them, so a caller's
later writes to its own arrays reach neither the stored values nor a run."""

from operator import attrgetter

import numpy as np
import pytest

from opiniondyn import (
    ConfidenceSpec,
    DeffuantWeisbuch,
    DegrootGossip,
    FJSpec,
    GossipFJ,
    OpinionState,
    SignedGraph,
    SymmetricPairGossip,
    WeightSpec,
    fj_fixed_point,
    hk_step,
    phi_step,
    predict_bipartite_consensus,
    reputation_phi,
    simulate_discrete,
    simulate_gossip,
)

W = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5]])
P = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
X0 = OpinionState([0.1, 0.5, 0.9])


def _gossip(model):
    return simulate_gossip(model, X0, steps=50, seed=(7, 1)).array


# name: (the caller's arrays, constructor, stored attributes as attrgetter names, run)
CASES = {
    "OpinionState": (lambda: [np.array([0.1, 0.2, 0.9])], OpinionState, ("values",),
                     lambda s: hk_step(s, ConfidenceSpec.symmetric(0.3)).values),
    "SignedGraph": (lambda: [np.array([[0.0, 1.0, -1.0], [1.0, 0.0, -1.0], [-1.0, -1.0, 0.0]])],
                    SignedGraph, ("weights",),
                    lambda g: predict_bipartite_consensus(g, X0).values),
    "WeightSpec": (lambda: [W.copy()], lambda w: WeightSpec.constant("stochastic", w),
                   ("matrix",), lambda spec: simulate_discrete(spec, X0, 5).array),
    "FJSpec": (lambda: [np.array([0.5, 0.9, 0.2]), W.copy(), np.array([1.0, 0.0, 0.5])],
               lambda lam, w, u: FJSpec(lam=lam, w=w, u=u), ("lam", "w", "u"),
               lambda spec: fj_fixed_point(spec).values),
    "DegrootGossip": (lambda: [P.copy(), np.array([0.5, 0.3, 0.6])], DegrootGossip,
                      ("p", "gains"), _gossip),
    "SymmetricPairGossip": (lambda: [P.copy()], SymmetricPairGossip, ("p",), _gossip),
    "GossipFJ": (lambda: [np.array([0.5, 0.9, 0.2]), W.copy(), np.array([1.0, 0.0, 0.5])],
                 GossipFJ.from_fj, ("spec.lam", "spec.w", "spec.u"), _gossip),
    "DeffuantWeisbuch": (lambda: [np.array([0.3, 0.5, 0.2])], lambda d: DeffuantWeisbuch(d, 0.5),
                         ("d",), _gossip),
    "PhiSpec": (lambda: [np.array([1.0, 2.0, 0.5])], lambda w: reputation_phi(w, 0.45),
                ("reputations",), lambda spec: phi_step(X0, spec).values),
}


@pytest.mark.parametrize("name", list(CASES))
def test_stored_arrays_are_frozen_copies(name):
    make_arrays, build, attrs, run = CASES[name]
    arrays = make_arrays()
    held = build(*arrays)
    stored = {attr: attrgetter(attr)(held).copy() for attr in attrs}
    expected = run(held)
    for attr in attrs:
        value = attrgetter(attr)(held)
        assert not value.flags.writeable
        assert not any(np.shares_memory(value, arr) for arr in arrays)
    for arr in arrays:
        arr.fill(-5.0)
    for attr in attrs:
        assert np.array_equal(attrgetter(attr)(held), stored[attr])
    assert np.array_equal(run(held), expected)
