"""Fuzz guard of the library's count and seed arguments, after
``test_config_fuzz``: each run function's count or seed set to one of
``VALUES``, every other argument a tiny valid instance. The values are few,
so every (argument, value) pair is tried.

A call either returns, or raises ValueError or SimulationError; any other
exception (or a warning) fails. A whole float, 3.0, and a numpy integer,
np.int64(3), run bit for bit as the int 3 does; every other value, True
and -1 included, is refused with a ValueError.

Every real-valued setting (confidence bounds, shifts, gamma, the pair
dynamics' bound and move fraction, a flow's horizon and step, tolerances,
thresholds, schedule breakpoints and the CLI's bounds) gets the same guard
for ``NOT_REAL``: a str, None, True, False, a complex number or an int
beyond the float range is not a real number, and is refused with a
ValueError that says so. A positive setting set to 0, -1 or NaN, and a
nonnegative one set to -1e-300 or NaN, is refused with a ValueError that
names the range and the value read.

Every array argument (opinions, prejudices, weights and matrices, gains,
per-agent bounds and shifts, targets, reputations, trajectories, matrix
files and the CLI's arrays) gets the same guard for ``NOT_ARRAYS``: numeric
strings, a complex number, a dict, None, bools, an int beyond the float
range and a ragged list are not an array of real numbers, and are refused
with a ValueError that names the argument. Ints, ``Fraction``s, float32,
numpy integers, ranges and nested lists are read with the bytes of
``np.asarray(values, dtype=float)``.

A bound that is one number or one per agent (``BOUND_SITES``: a
``ConfidenceSpec``'s ``lo`` and ``hi``, a norm ball's radius, per-agent
bounds and shifts, the pair dynamics' ``d`` and the CLI's) is read by one
rule: a list or tuple element by element as a real number, so an empty
list or a bool among numbers (``NOT_VECTORS``) is refused by name too.

An entry that takes a state, spec, graph, trajectory or record
(``OBJECT_CALLS``) refuses None with a ValueError that names the argument
and its type; ``test_signature_guard`` tries every object-typed argument of
every export with more kinds of value.
"""

import json
import math
import pickle
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from opiniondyn import (
    ConfidenceSpec,
    DeffuantWeisbuch,
    DegrootGossip,
    FJSpec,
    GaugeVector,
    GossipFJ,
    OpinionState,
    PhiSpec,
    SignedGraph,
    SimulationError,
    Trajectory,
    UndirectedGraph,
    WeightSpec,
    bernoulli_convolution,
    cesaro,
    classify,
    clusters,
    cli,
    connectivity,
    d_chain_partition,
    dw_run_exact,
    fj_fixed_point,
    flow_simulate,
    gauge_apply,
    gauge_from_balance,
    heterophily_phi,
    hk_energy,
    hk_indicator_phi,
    hk_step,
    inertial_step,
    make_rng,
    persistent_graph,
    predict_bipartite_consensus,
    reputation_phi,
    signed_laplacian,
    signed_laplacian_matrix,
    simulate_bc,
    simulate_discrete,
    simulate_gossip,
    structural_balance,
    truth_step,
    two_r_experiment,
    verify_convergence_premises,
)
from opiniondyn.bounded_confidence import trust_matrix
from opiniondyn.linear_dynamics import check_signed_row_stochastic, check_stochastic
from opiniondyn.serialize import load_matrix, load_schedule
from opiniondyn.state import _array

VALUES = (2.5, math.inf, math.nan, -1, True, "3", None, 3.0, np.int64(3))

X0 = OpinionState([0.0, 0.1, 0.25, 0.9])
DW = DeffuantWeisbuch(d=0.3, mu=0.5)
CYCLE = WeightSpec("stochastic", matrix=[[0.5, 0.5, 0, 0], [0, 0.5, 0.5, 0],
                                         [0, 0, 0.5, 0.5], [0.5, 0, 0, 0.5]])
HK = ConfidenceSpec.symmetric(0.2)


def _draws(rng):
    return rng.integers(1 << 62, size=4)


# (function, argument) -> a call of the function with that argument set to v
CALLS = {
    ("simulate_gossip", "steps"): lambda v: simulate_gossip(DW, X0, steps=v, seed=0),
    ("simulate_gossip", "thin"): lambda v: simulate_gossip(DW, X0, steps=5, seed=0, thin=v),
    ("simulate_gossip", "seed"): lambda v: simulate_gossip(DW, X0, steps=5, seed=v),
    ("dw_run_exact", "steps"): lambda v: dw_run_exact(DW, X0, steps=v, seed=0),
    ("dw_run_exact", "thin"): lambda v: dw_run_exact(DW, X0, steps=5, seed=0, thin=v),
    ("dw_run_exact", "seed"): lambda v: dw_run_exact(DW, X0, steps=5, seed=v),
    ("simulate_discrete", "steps"): lambda v: simulate_discrete(CYCLE, X0, steps=v),
    ("simulate_bc", "max_steps"): lambda v: simulate_bc(lambda s: hk_step(s, HK), X0,
                                                        max_steps=v),
    ("two_r_experiment", "n"): lambda v: two_r_experiment(v, [0.3], trials=2, seed=0),
    ("two_r_experiment", "trials"): lambda v: two_r_experiment(4, [0.3], trials=v, seed=0),
    ("two_r_experiment", "seed"): lambda v: two_r_experiment(4, [0.3], trials=2, seed=v),
    ("bernoulli_convolution", "depth"): lambda v: bernoulli_convolution(0.5, v, 0),
    ("bernoulli_convolution", "rng"): lambda v: bernoulli_convolution(0.5, 8, v),
    ("make_rng", "seed"): lambda v: _draws(make_rng(v)),
    ("make_rng", "stream"): lambda v: _draws(make_rng((7, v))),
}


def _outcome(call, value):
    """The call's result pickled, or its ValueError or SimulationError as
    (type name, message, a MaxStepsError's partial run pickled)."""
    try:
        return pickle.dumps(call(value))
    except (ValueError, SimulationError) as exc:
        return type(exc).__name__, str(exc), pickle.dumps(getattr(exc, "trajectory", None))


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("case", sorted(CALLS), ids="-".join)
def test_a_count_or_seed_runs_or_raises_a_documented_error(case, value):
    outcome = _outcome(CALLS[case], value)
    if isinstance(value, (float, np.integer)) and value == 3:
        assert outcome == _outcome(CALLS[case], 3)
    elif not (case == ("dw_run_exact", "thin") and value is None):  # thin=None means thin=steps
        assert isinstance(outcome, tuple) and outcome[0] == "ValueError", outcome


NOT_REAL = ("0.3", None, True, False, 0.3 + 0j, 10**400)
PAIR = WeightSpec.constant("nonnegative", [[0.0, 1.0], [1.0, 0.0]])
TRAJ = simulate_bc(lambda s: hk_step(s, HK), X0, max_steps=50)

# (function, argument) -> a call of the function with that real argument set to v
REAL_CALLS = {
    ("two_r_experiment", "d_list"): lambda v: two_r_experiment(4, [v], trials=2, seed=0),
    ("bernoulli_convolution", "gamma"): lambda v: bernoulli_convolution(v, 4, 0),
    ("ConfidenceSpec", "lo"): lambda v: ConfidenceSpec(lo=(-0.3, v), hi=0.3),
    ("ConfidenceSpec", "hi"): lambda v: ConfidenceSpec(lo=(-0.3, -0.2), hi=(0.3, v)),
    ("symmetric", "d"): lambda v: ConfidenceSpec.symmetric(v),
    ("asymmetric", "d_left"): lambda v: ConfidenceSpec.asymmetric(v, 0.3),
    ("asymmetric", "d_right"): lambda v: ConfidenceSpec.asymmetric(0.3, v),
    ("per_agent", "d_per_agent"): lambda v: ConfidenceSpec.per_agent([0.3, v]),
    ("shifted", "d"): lambda v: ConfidenceSpec.shifted(v, [0.0, 0.1]),
    ("shifted", "eta"): lambda v: ConfidenceSpec.shifted(0.3, [0.0, v]),
    ("norm_ball", "d"): lambda v: ConfidenceSpec.norm_ball(v),
    ("DeffuantWeisbuch", "d"): lambda v: DeffuantWeisbuch(d=v, mu=0.5),
    ("DeffuantWeisbuch", "mu"): lambda v: DeffuantWeisbuch(d=0.3, mu=v),
    ("flow_simulate", "t_end"): lambda v: flow_simulate(PAIR, OpinionState([0.0, 1.0]), t_end=v),
    ("flow_simulate", "dt"): lambda v: flow_simulate(PAIR, OpinionState([0.0, 1.0]), t_end=1.0,
                                                     dt=v),
    ("simulate_bc", "stop_tol"): lambda v: simulate_bc(lambda s: hk_step(s, HK), X0, max_steps=50,
                                                       stop_tol=v),
    ("clusters", "gap_tol"): lambda v: clusters(X0, v),
    ("classify", "tol"): lambda v: classify(TRAJ, tol=v),
    ("hk_indicator_phi", "d"): hk_indicator_phi,
    ("reputation_phi", "d"): lambda v: reputation_phi([1.0, 2.0], v),
    ("d_chain_partition", "d"): lambda v: d_chain_partition(X0, v),
    ("hk_energy", "d"): lambda v: hk_energy(X0, v),
    ("heterophily_phi", "a"): lambda v: heterophily_phi(v, 1.0, 0.1, 0.2),
    ("heterophily_phi", "b"): lambda v: heterophily_phi(0.5, v, 0.1, 0.2),
    ("heterophily_phi", "d1"): lambda v: heterophily_phi(0.5, 1.0, v, 0.2),
    ("heterophily_phi", "d2"): lambda v: heterophily_phi(0.5, 1.0, 0.1, v),
    ("persistent_graph", "threshold"): lambda v: persistent_graph([np.eye(2)], v),
    ("verify_convergence_premises", "delta"): lambda v: verify_convergence_premises([np.eye(2)],
                                                                                    v),
    ("WeightSpec", "until"): lambda v: WeightSpec("stochastic", schedule=[(v, np.eye(2))]),
    ("cli", "x0 uniform lo"): lambda v: cli._initial_state({"uniform": [v, 1.0, 3]}, 0),
    ("cli", "x0 uniform hi"): lambda v: cli._initial_state({"uniform": [0.0, v, 3]}, 0),
    ("cli", "hk-sweep d_range"): lambda v: cli._hk_sweep(0, instances=1, d_range=(0.1, v)),
    ("cli", "tol"): lambda v: cli._checked({}, 4, v, None, None),
    ("cli", "gap_tol"): lambda v: cli._checked({}, 4, None, None, v),
    ("cli", "gap_tol beside d"): lambda v: cli._checked({"d": 0.3}, 4, None, None, v),
    ("cli", "family_check tol"): lambda v: cli._family_check(4, [1, 1, 1, 1], v),
}

# dt=None is the default step; the CLI passes None for a setting the model does not read
NONE_IS_A_DEFAULT = {("flow_simulate", "dt"), ("cli", "tol"), ("cli", "gap_tol"),
                     ("cli", "gap_tol beside d")}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{'-'.join(case)}-{value!r}")
    for case in sorted(REAL_CALLS) for value in NOT_REAL
    if not (value is None and case in NONE_IS_A_DEFAULT)
])
def test_a_real_argument_that_is_not_a_number_is_refused(case, value):
    with pytest.raises(ValueError, match=re.escape(f"must be a real number, got {value!r}")):
        REAL_CALLS[case](value)


# (function, argument) of REAL_CALLS -> (the name its error gives, its range)
RANGES = {
    ("flow_simulate", "dt"): ("dt", "positive"),
    ("clusters", "gap_tol"): ("gap_tol", "positive"),
    ("hk_indicator_phi", "d"): ("confidence bound", "positive"),
    ("reputation_phi", "d"): ("confidence bound", "positive"),
    ("d_chain_partition", "d"): ("confidence bound", "positive"),
    ("hk_energy", "d"): ("confidence bound", "positive"),
    ("persistent_graph", "threshold"): ("threshold", "positive"),
    ("cli", "gap_tol"): ("gap_tol", "positive"),
    ("cli", "gap_tol beside d"): ("gap_tol", "positive"),
    ("simulate_bc", "stop_tol"): ("stop_tol", "nonnegative"),
    ("classify", "tol"): ("tol", "nonnegative"),
    ("cli", "tol"): ("tol", "nonnegative"),
    ("cli", "family_check tol"): ("family_check tol", "nonnegative"),
}
OUT_OF_RANGE = {"positive": (0.0, -1.0, math.nan), "nonnegative": (-1e-300, math.nan)}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{'-'.join(case)}-{value!r}")
    for case, (_, sign) in sorted(RANGES.items()) for value in OUT_OF_RANGE[sign]
])
def test_a_real_argument_out_of_its_range_is_refused(case, value):
    name, sign = RANGES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {sign}, got {value}')}$"):
        REAL_CALLS[case](value)


NOT_ARRAYS = (["0.3", "1"], [1 + 2j], {"a": 1}, [None], [True, False], [10**400],
              [[0.5], [0.5, 0.5]])
STOCHASTIC2 = [[0.5, 0.5], [0.5, 0.5]]


def _matrix_file(v):
    """load_matrix of a JSON file that holds v."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(v))
        return load_matrix(path)


# (function, argument) -> (the name its error gives, a call with that array set to v)
ARRAY_CALLS = {
    ("OpinionState", "values"): ("opinion values", OpinionState),
    ("FJSpec", "u"): ("u", lambda v: FJSpec(lam=[0.5, 0.5], w=STOCHASTIC2, u=v)),
    ("FJSpec", "lam"): ("lam", lambda v: FJSpec(lam=v, w=STOCHASTIC2, u=[0.0, 1.0])),
    ("inertial_step", "lam"): ("lam", lambda v: inertial_step(X0, v, HK)),
    ("truth_step", "target"): ("target", lambda v: truth_step(X0, [0.5] * 4, v, HK)),
    ("check_stochastic", "matrix"): ("matrix", check_stochastic),
    ("check_signed_row_stochastic", "matrix"): ("matrix", check_signed_row_stochastic),
    ("WeightSpec", "stochastic matrix"): ("matrix", lambda v: WeightSpec.constant("stochastic",
                                                                                  v)),
    ("WeightSpec", "nonnegative matrix"): ("matrix", lambda v: WeightSpec.constant("nonnegative",
                                                                                   v)),
    ("SignedGraph", "weights"): ("weights", SignedGraph),
    ("persistent_graph", "w_seq"): ("weights", lambda v: persistent_graph([v], 1.0)),
    ("signed_laplacian_matrix", "weights"): ("weights", signed_laplacian_matrix),
    ("load_matrix", "file"): ("matrix", _matrix_file),
    ("load_schedule", "matrix"): ("matrix", lambda v: load_schedule([{"until": 1.0,
                                                                      "matrix": v}])),
    ("DegrootGossip", "gains"): ("gains", lambda v: DegrootGossip([[0, 1], [1, 0]], v)),
    ("DeffuantWeisbuch", "d"): ("d", lambda v: DeffuantWeisbuch(d=v, mu=0.5)),
    ("PhiSpec", "reputations"): ("reputations", lambda v: PhiSpec(hk_indicator_phi(0.3).phi,
                                                                  reputations=v)),
    ("cli", "x0"): ("x0", lambda v: cli._initial_state(v, 0)),
    ("cli", "family_check ratios"): ("family_check ratios", lambda v: cli._family_check(2, v)),
    ("cli", "d"): ("d", lambda v: cli._checked({"d": v}, 4, None, None, 1e-4)),
    ("ConfidenceSpec", "lo"): ("lo", lambda v: ConfidenceSpec(lo=v, hi=0.3)),
    ("ConfidenceSpec", "hi"): ("hi", lambda v: ConfidenceSpec(lo=None, hi=v)),
    ("norm_ball", "d"): ("d", ConfidenceSpec.norm_ball),
    ("per_agent", "d_per_agent"): ("d_per_agent", ConfidenceSpec.per_agent),
    ("shifted", "eta"): ("eta", lambda v: ConfidenceSpec.shifted(0.3, v)),
    ("Trajectory", "array"): ("trajectory array", lambda v: Trajectory(v, [0.0])),
    ("Trajectory", "stamps"): ("stamps", lambda v: Trajectory(np.zeros((2, 1, 1)), v)),
}

# JSON has no complex numbers; a dict x0 is the CLI's {"uniform": [lo, hi, n]} form
NOT_A_CASE = {(("load_matrix", "file"), repr([1 + 2j])), (("cli", "x0"), repr({"a": 1}))}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{'-'.join(case)}-{value!r}")
    for case in sorted(ARRAY_CALLS) for value in NOT_ARRAYS
    if (case, repr(value)) not in NOT_A_CASE
])
def test_an_array_argument_that_is_not_real_numbers_is_refused(case, value):
    """A list of bounds is read element by element, so its bad element meets
    the scalar rule's wording, as does a shared bound given as a dict."""
    name, call = ARRAY_CALLS[case]
    with pytest.raises(ValueError, match=f"{re.escape(name)} must be "
                                         "(an array of real numbers|a real number), got"):
        call(value)


# the ARRAY_CALLS sites that take one number or a list of one per agent
BOUND_SITES = (("ConfidenceSpec", "lo"), ("ConfidenceSpec", "hi"), ("norm_ball", "d"),
               ("per_agent", "d_per_agent"), ("shifted", "eta"), ("DeffuantWeisbuch", "d"),
               ("cli", "d"))
NOT_VECTORS = {repr([]): "must be a nonempty list of real numbers, got []",
               repr([0.3, True]): "must be a real number, got True"}


@pytest.mark.parametrize("value", [[], [0.3, True]], ids=repr)
@pytest.mark.parametrize("case", BOUND_SITES, ids="-".join)
def test_an_empty_bound_list_or_a_bool_in_one_is_refused(case, value):
    name, call = ARRAY_CALLS[case]
    message = f"{name} {NOT_VECTORS[repr(value)]}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


ACCEPTED = [
    [1, 2, 3],
    [2**60 + 1, 2**63, 3],
    [2**63, -1],
    [2**64 + 1, 5],
    [Fraction(1, 3), Fraction(-2, 7)],
    [Fraction(1, 3), 0.5, 2**70],
    np.float32([0.1, 0.3]),
    [np.int64(3), 0.5],
    [np.float32(0.1), 0.2],
    [[1, 2], [3, 4]],
    [[Fraction(1, 3), 0.0], [-0.0, 7]],
    [-0.0, 0.0],
    np.asfortranarray(np.arange(9.0).reshape(3, 3) / 7),
    np.asfortranarray(np.arange(9, dtype=np.float32).reshape(3, 3) / 7),
    np.arange(6, dtype=np.uint8),
    np.arange(8.0)[::2],
    np.arange(4.0).astype(">f8"),
    range(3),
    [],
]


@pytest.mark.parametrize("values", ACCEPTED, ids=repr)
def test_an_array_of_real_numbers_is_read_as_the_float_cast_reads_it(values):
    got, want = _array("values", values), np.asarray(values, dtype=float)
    assert (type(got), got.dtype, got.shape, got.strides) == (type(want), want.dtype,
                                                               want.shape, want.strides)
    assert got.tobytes() == want.tobytes()


def test_a_float_array_is_returned_as_it_is():
    for values in (np.arange(4.0), np.asfortranarray(np.eye(3)), np.arange(8.0)[::2]):
        assert _array("values", values) is values


@pytest.mark.parametrize("values", [[Fraction(1, 3), Fraction(-2, 7), -0.0, 2**63],
                                    [np.int64(3), np.float32(0.1), 0.0, -0.0]], ids=repr)
def test_sites_read_exact_forms_with_the_bytes_of_their_floats(values):
    floats = np.asarray(values, dtype=float)
    assert OpinionState(values).values.tobytes() == OpinionState(floats).values.tobytes()
    matrix = [values, values[::-1], values, values[::-1]]
    graph, float_graph = SignedGraph(matrix), SignedGraph(np.asarray(matrix, dtype=float))
    assert graph.weights.tobytes() == float_graph.weights.tobytes()
    assert (signed_laplacian_matrix(matrix).tobytes()
            == signed_laplacian_matrix(float_graph.weights).tobytes())


def test_a_trajectory_keeps_float_arrays_as_they_are():
    array, stamps = np.zeros((2, 3, 1)), np.arange(2.0)
    traj = Trajectory(array, stamps)
    assert traj.array is array and traj.stamps is stamps


# positive per-agent forms: ints beyond 2^53 and beyond int64, Fractions,
# float32 and numpy integers, mixed or as arrays, strided and byte-swapped
# arrays, ranges and tuples
BOUNDS = [
    [1, 2, 3],
    [2**60 + 1, 2**63, 3],
    [2**64 + 1, 5],
    [Fraction(1, 3), Fraction(2, 7)],
    [Fraction(1, 3), 0.5, 2**70],
    np.float32([0.1, 0.3]),
    [np.int64(3), 0.5],
    [np.float32(0.1), 0.2],
    np.arange(1, 6, dtype=np.uint8),
    np.arange(1.0, 9.0)[::2],
    np.arange(1.0, 5.0).astype(">f8"),
    range(1, 4),
    (0.25, 0.5),
]


def _negated(values):
    """The per-agent form of -values, of the same kind."""
    if isinstance(values, range):
        return range(-values.start, -values.stop, -values.step)
    if isinstance(values, np.ndarray):
        return -values.astype(np.int64) if values.dtype.kind == "u" else -values
    return type(values)(-v for v in values)


SHIFTED_D = 2.0**71  # above every shift in BOUNDS
# BOUND_SITES -> (the floats the site stores or reads for the per-agent form
# v, the same from the float cast of v)
BOUND_READS = {
    ("ConfidenceSpec", "lo"): (lambda v: ConfidenceSpec(lo=_negated(v), hi=0.3).lo, np.negative),
    ("ConfidenceSpec", "hi"): (lambda v: ConfidenceSpec(lo=None, hi=v).hi, np.asarray),
    ("norm_ball", "d"): (lambda v: ConfidenceSpec.norm_ball(v).hi, np.asarray),
    ("per_agent", "d_per_agent"): (lambda v: ConfidenceSpec.per_agent(v).lo, np.negative),
    ("shifted", "eta"): (lambda v: ConfidenceSpec.shifted(SHIFTED_D, v).lo,
                         lambda floats: -SHIFTED_D + floats),
    ("DeffuantWeisbuch", "d"): (lambda v: DeffuantWeisbuch(d=v, mu=0.5).d, np.asarray),
    ("cli", "d"): (lambda v: cli._checked({"d": v}, 4, None, None, 1e-4)["gap"], np.min),
}


@pytest.mark.parametrize("values", BOUNDS, ids=repr)
@pytest.mark.parametrize("case", BOUND_SITES, ids="-".join)
def test_a_per_agent_bound_is_read_as_the_float_cast_reads_it(case, values):
    """The bytes every earlier reader gave: a float per element for the
    confidence bounds, the float cast for the pair dynamics' and the CLI's d."""
    read, want = BOUND_READS[case]
    expected = np.asarray(want(np.asarray(values, dtype=float)), dtype=float)
    assert np.asarray(read(values), dtype=float).tobytes() == expected.tobytes()


# (function, argument) -> (the type named, a call of the function with the
# argument set to None)
OBJECT_CALLS = {
    ("simulate_gossip", "x0"): ("OpinionState", lambda: simulate_gossip(DW, None, 5, seed=0)),
    ("simulate_discrete", "spec"): ("WeightSpec", lambda: simulate_discrete(None, X0, steps=5)),
    ("flow_simulate", "spec"): ("WeightSpec", lambda: flow_simulate(None, X0, t_end=1.0)),
    ("classify", "trajectory"): ("Trajectory", lambda: classify(None, 1e-6)),
    ("cesaro", "trajectory"): ("Trajectory", lambda: cesaro(None)),
    ("fj_fixed_point", "spec"): ("FJSpec", lambda: fj_fixed_point(None)),
    ("dw_run_exact", "x0"): ("OpinionState", lambda: dw_run_exact(DW, None, steps=5, seed=0)),
    ("predict_bipartite_consensus", "g"): ("SignedGraph",
                                           lambda: predict_bipartite_consensus(None, X0)),
    ("structural_balance", "g"): ("SignedGraph", lambda: structural_balance(None)),
    ("trust_matrix", "x"): ("OpinionState",
                            lambda: trust_matrix(None, ConfidenceSpec.norm_ball(1.0))),
    ("connectivity", "g"): ("SignedGraph", lambda: connectivity(None)),
    ("signed_laplacian", "g"): ("SignedGraph", lambda: signed_laplacian(None)),
    ("gauge_apply", "g"): ("SignedGraph", lambda: gauge_apply(None, GaugeVector((1, -1)))),
    ("gauge_apply", "delta"): ("GaugeVector", lambda: gauge_apply(SignedGraph(np.eye(2)), None)),
    ("gauge_from_balance", "result"): ("BalanceResult", lambda: gauge_from_balance(None, 2)),
    ("d_chain_partition", "x"): ("OpinionState", lambda: d_chain_partition(None, 1.0)),
    ("GaugeVector", "signs"): ("tuple", lambda: GaugeVector(None)),
    ("GossipFJ", "spec"): ("FJSpec", lambda: GossipFJ(None)),
    ("UndirectedGraph", "edges"): ("frozenset", lambda: UndirectedGraph(3, None)),
}


@pytest.mark.parametrize("case", sorted(OBJECT_CALLS), ids="-".join)
def test_an_object_argument_of_another_type_is_refused_by_name(case):
    """Each leaked an AttributeError or a TypeError for None (UndirectedGraph
    once its components were read)."""
    kind, call = OBJECT_CALLS[case]
    with pytest.raises(ValueError, match=rf"^{case[1]} must be an? {kind}, got None$"):
        call()
