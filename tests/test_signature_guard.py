"""The one-error-family guard of the object-typed arguments.

Every function and class the package exports gets one valid call in
``VALID``. The guard reads each parameter's annotation through
``inspect.signature``; a parameter whose annotation is not made of plain
numbers, strings and arrays (``PLAIN``) is object-typed: a state, a spec, a
model, a graph, a trajectory, a record's field, a seed or an iterable. Each
object-typed argument in turn is set to each of ``NOT_OBJECTS`` (None, a
str, a complex number, a dict and a ragged list), and the call must return
or raise a ValueError or a SimulationError; any other exception (or a
warning) fails. Counts, reals and arrays have their own tables in
``test_count_fuzz``.
"""

import inspect
import math

import numpy as np
import pytest

import opiniondyn
from opiniondyn import (
    BalanceResult,
    ConfidenceSpec,
    DeffuantWeisbuch,
    FJSpec,
    GaugeVector,
    OpinionState,
    SignedGraph,
    SimulationError,
    Trajectory,
    WeightSpec,
    hk_indicator_phi,
    hk_step,
)

PLAIN = {"float", "int", "bool", "str", "None", "np.ndarray"}
NOT_OBJECTS = (None, "x", 1 + 2j, {}, [[0.0, 1.0], [0.5]])

X = OpinionState([0.0, 0.1, 0.25, 0.9])
X2 = OpinionState([0.0, 1.0])
PAIR = [[0.0, 1.0], [1.0, 0.0]]
HALVES = [[0.5, 0.5], [0.5, 0.5]]
G = SignedGraph(PAIR)
HK = ConfidenceSpec.symmetric(0.2)
DW = DeffuantWeisbuch(d=0.3, mu=0.5)
FJ = FJSpec(lam=[0.5, 0.5], w=HALVES, u=[0.0, 1.0])
TRAJ = Trajectory(np.zeros((2, 2, 1)), [0.0, 1.0])

# export -> keyword arguments of one call that returns
VALID = {
    "BalanceResult": dict(balanced=True, camps=((0,), (1,))),
    "BalanceWitness": dict(kind="sign_asymmetry", nodes=(0, 1)),
    "BipartitePrediction": dict(kind="zero"),
    "ClusterProfile": dict(clusters=(), min_separation=math.inf),
    "ConfidenceSpec": dict(lo=-0.2, hi=0.2),
    "ConnectivityReport": dict(strongly_connected=True, has_spanning_tree=True,
                               components=((0, 1),)),
    "DChainPartition": dict(chains=((0,),), diameters=(0.0,)),
    "DWExactRun": dict(trajectory=TRAJ, initial_exact=(), final_exact=()),
    "DeffuantWeisbuch": dict(d=0.3, mu=0.5),
    "DegrootGossip": dict(p=PAIR, gains=[0.5, 0.5]),
    "FJSpec": dict(lam=[0.5, 0.5], w=HALVES, u=[0.0, 1.0]),
    "GaugeVector": dict(signs=(1, -1)),
    "GossipFJ": dict(spec=FJ),
    "IntegrationError": dict(message="diverged"),
    "MaxStepsError": dict(message="no fixed point"),
    "OpinionState": dict(values=[0.0, 1.0]),
    "OutcomeLabel": dict(kind="consensus"),
    "PhiSpec": dict(phi=np.ones_like),
    "PremiseReport": dict(passed=True),
    "SignedGraph": dict(weights=PAIR),
    "SymmetricPairGossip": dict(p=PAIR),
    "Trajectory": dict(array=np.zeros((2, 2, 1)), stamps=[0.0, 1.0]),
    "TwoRRow": dict(d=0.5, trials=1, counts=(1,), mean_clusters=1.0, std_clusters=0.0,
                    conjecture=1),
    "UndirectedGraph": dict(n=3, edges=frozenset({(0, 1)})),
    "WeightSpec": dict(kind="stochastic", matrix=HALVES),
    "bernoulli_convolution": dict(gamma=0.5, depth=4, rng=0),
    "cesaro": dict(trajectory=TRAJ),
    "classify": dict(trajectory=TRAJ, tol=1e-6),
    "clusters": dict(x=X, gap_tol=0.1),
    "connectivity": dict(g=G),
    "d_chain_partition": dict(x=X, d=0.2),
    "dw_run_exact": dict(model=DW, x0=X, steps=5, seed=0),
    "fj_fixed_point": dict(spec=FJ),
    "flow_simulate": dict(spec=WeightSpec("nonnegative", matrix=PAIR), x0=X2, t_end=0.1),
    "gauge_apply": dict(g=G, delta=GaugeVector((1, -1))),
    "gauge_from_balance": dict(result=BalanceResult(True, camps=((0,), (1,))), n=2),
    "heterophily_phi": dict(a=1.0, b=2.0, d1=0.1, d2=0.2),
    "hk_energy": dict(x=X, d=0.2),
    "hk_indicator_phi": dict(d=0.2),
    "hk_step": dict(x=X, spec=HK),
    "inertial_step": dict(x=X, lam=[0.5] * 4, spec=HK),
    "make_rng": dict(seed=0),
    "persistent_graph": dict(w_seq=[PAIR], threshold=0.5),
    "phi_step": dict(x=X, spec=hk_indicator_phi(0.2)),
    "predict_bipartite_consensus": dict(g=G, x0=X2),
    "reputation_phi": dict(w=[1.0] * 4, d=0.2),
    "signed_laplacian": dict(g=G),
    "signed_laplacian_matrix": dict(weights=PAIR),
    "simulate_bc": dict(stepper=lambda s: hk_step(s, HK), x0=X, max_steps=50),
    "simulate_discrete": dict(spec=WeightSpec("stochastic", matrix=HALVES), x0=X2, steps=3),
    "simulate_gossip": dict(model=DW, x0=X, steps=5, seed=0),
    "structural_balance": dict(g=G),
    "truth_step": dict(x=X, lam=[0.5] * 4, target=[0.5], spec=HK),
    "two_r_experiment": dict(n=3, d_list=[0.5], trials=1, seed=0),
    "verify_convergence_premises": dict(matrices=[HALVES], delta=0.1),
}


def _signatures():
    """Each export with a signature of its own, by name (the exception
    classes that keep Exception's constructor have none)."""
    for name in sorted(opiniondyn.__dict__):
        value = getattr(opiniondyn, name)
        if name.startswith("_") or inspect.ismodule(value):
            continue
        try:
            yield name, inspect.signature(value)
        except ValueError:
            assert issubclass(value, Exception), name


SIGNATURES = dict(_signatures())


def _object_typed(parameter) -> bool:
    """Unannotated, or annotated with more than ``PLAIN`` names."""
    annotation = parameter.annotation
    return annotation is parameter.empty or not {
        part.strip() for part in annotation.split("|")} <= PLAIN


OBJECT_PARAMETERS = [(name, parameter.name) for name, signature in SIGNATURES.items()
                     for parameter in signature.parameters.values()
                     if parameter.kind is not parameter.VAR_POSITIONAL
                     and _object_typed(parameter)]


def test_every_export_has_a_valid_call_and_every_parameter_an_annotation():
    assert sorted(VALID) == sorted(SIGNATURES)
    for name, signature in SIGNATURES.items():
        for parameter in signature.parameters.values():
            assert parameter.annotation is not parameter.empty, (name, parameter.name)
        getattr(opiniondyn, name)(**VALID[name])


@pytest.mark.parametrize("case", OBJECT_PARAMETERS, ids="-".join)
def test_an_object_argument_of_another_kind_is_a_documented_error(case):
    name, argument = case
    for value in NOT_OBJECTS:
        try:
            getattr(opiniondyn, name)(**{**VALID[name], argument: value})
        except (ValueError, SimulationError):
            pass
