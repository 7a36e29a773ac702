"""Fuzz guard of the library's count and seed arguments, after
``test_config_fuzz``: each run function's count or seed set to one of
``VALUES``, every other argument a tiny valid instance. The values are few,
so every (argument, value) pair is tried.

A call either returns, or raises ValueError or SimulationError; any other
exception (or a warning) fails. A whole float, 3.0, and a numpy integer,
np.int64(3), run bit for bit as the int 3 does; every other value, True
and -1 included, is refused with a ValueError.
"""

import math
import pickle

import numpy as np
import pytest

from opiniondyn import (
    ConfidenceSpec,
    DeffuantWeisbuch,
    OpinionState,
    SimulationError,
    WeightSpec,
    bernoulli_convolution,
    dw_run_exact,
    hk_step,
    make_rng,
    simulate_bc,
    simulate_discrete,
    simulate_gossip,
    two_r_experiment,
)

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
