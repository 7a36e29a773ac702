"""Built-in scenarios and config-to-model construction for the runner."""

from __future__ import annotations

import numpy as np

from . import bounded_confidence as bc
from . import gossip as gp
from .linear_dynamics import KIND_STOCHASTIC, FJSpec, WeightSpec
from .serialize import load_schedule, resolve_matrix

# Four-agent influence matrix observed in a small-group experiment, with the
# susceptibility coupling lam = 1 - diag(W) and prejudices (25, 25, 75, 85);
# the anchored-averaging fixed point is close to (60, 60, 75, 75).
FJ4_W = np.array(
    [
        [0.220, 0.120, 0.360, 0.300],
        [0.147, 0.215, 0.344, 0.294],
        [0.0, 0.0, 1.0, 0.0],
        [0.090, 0.178, 0.446, 0.286],
    ]
)
FJ4_U = np.array([25.0, 25.0, 75.0, 85.0])
FJ4_LAMBDA = 1.0 - np.diag(FJ4_W)

# Three agents with one mutually hostile pair feeding two followers
# (a31 = 2, a32 = 1): a spanning tree exists but the graph is neither
# balanced nor strongly connected, so the flow settles on the line
# (xi, -xi, xi/3) instead of polarizing or dying out.
ALTAFINI3_A = np.array(
    [
        [0.0, -1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [2.0, 1.0, 0.0],
    ]
)

# Tetrahedron opinions in R^3 whose influence graph starts with three
# components that merge after one step; consensus lands exactly at step 3.
TETRA_B = 0.4
TETRA_A = 0.95
TETRA_X0 = [
    [0.0, 0.0, TETRA_B],
    [0.0, 0.0, -TETRA_B],
    [TETRA_A, 0.0, 0.0],
    [0.0, TETRA_A, 0.0],
]

PRESETS = {
    "table1": {
        "description": "cluster counts vs the 1/(2d) rule, n=100, 50 trials per bound",
        "config": {
            "model": "two-r",
            "params": {
                "n": 100,
                "d_list": [0.05, 0.06, 0.11, 0.12, 0.2, 0.25],
                "trials": 50,
            },
            "seed": 0,
            "outputs": ["table"],
        },
    },
    "tetrahedron-merge": {
        "description": "3-D bounded confidence where influence components merge; consensus at step 3",
        "config": {
            "model": "hk",
            "params": {"d": 1.0, "norm": "euclidean"},
            "x0": TETRA_X0,
            "horizon": 50,
            "outputs": ["trajectory", "summary"],
        },
    },
    "altafini3": {
        "description": "3-agent antagonistic flow settling on the (xi, -xi, xi/3) line",
        "config": {
            "model": "signed-flow",
            "params": {"matrix": ALTAFINI3_A.tolist(), "t_end": 40.0, "dt": 0.01},
            "x0": [1.0, 0.25, -0.5],
            "outputs": ["summary", "classification"],
            "family_check": {"ratios": [1.0, -1.0, 1.0 / 3.0], "tol": 1e-6},
        },
    },
    "fj-gossip4": {
        "description": "asynchronous anchored averaging, 4 agents; running mean near (60,60,75,75)",
        "config": {
            "model": "gossip-fj",
            "params": {
                "lam": FJ4_LAMBDA.tolist(),
                "w": FJ4_W.tolist(),
                "u": FJ4_U.tolist(),
            },
            "x0": FJ4_U.tolist(),
            "horizon": 200000,
            "seed": 0,
            "thin": 100,
            "outputs": ["summary", "cesaro"],
        },
    },
    "dw-basic": {
        "description": "symmetric bounded-confidence pair dynamics, n=50, d=0.3, mu=0.5",
        "config": {
            "model": "dw",
            "params": {"d": 0.3, "mu": 0.5, "mode": "symmetric"},
            "x0": {"uniform": [0.0, 1.0, 50]},
            "horizon": 100000,
            "seed": 0,
            "thin": 1000,
            "outputs": ["summary", "events"],
        },
    },
    "hk-termination-sweep": {
        "description": "random bounded-confidence runs vs the cubic termination bound",
        "config": {
            "model": "hk-sweep",
            "params": {"instances": 25, "n_range": [2, 30], "d_range": [0.05, 0.5]},
            "seed": 0,
            "outputs": ["table"],
        },
    },
    "heterophily": {
        "description": "two-level distance weights favoring moderately distant opinions",
        "config": {
            "model": "phi",
            "params": {"preset": "heterophily", "a": 0.5, "b": 1.0, "d1": 0.25, "d2": 0.5},
            "x0": {"uniform": [0.0, 1.0, 40]},
            "horizon": 2000,
            "stop_tol": 1e-12,
            "seed": 0,
            "outputs": ["trajectory", "summary", "clusters"],
        },
    },
}


def list_presets() -> dict:
    """Preset names with one-line descriptions."""
    return {name: entry["description"] for name, entry in PRESETS.items()}


def preset_config(name: str) -> dict:
    import copy

    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return copy.deepcopy(PRESETS[name]["config"])


def confidence_from_params(params: dict, m: int) -> bc.ConfidenceSpec:
    """The trust geometry of a bounded-confidence model, built from its params
    by keyword: a norm ball (radius ``d`` or ``d_per_agent``) for vector
    opinions or with ``norm``, else the interval variant the keys name."""
    params = dict(params)
    spec = bc.ConfidenceSpec
    if m > 1 or "norm" in params:
        if "d" not in params and "d_per_agent" in params:
            params["d"] = params.pop("d_per_agent")
        return spec.norm_ball(**params)
    variants = (("d_per_agent", spec.per_agent), ("eta", spec.shifted),
                ("d_left", spec.asymmetric), ("d_right", spec.asymmetric))
    return next((make for key, make in variants if key in params), spec.symmetric)(**params)


PHI_PRESETS = {"hk": bc.hk_indicator_phi, "heterophily": bc.heterophily_phi,
               "reputation": bc.reputation_phi}


def phi_from_params(preset: str = "hk", **params) -> bc.PhiSpec:
    if preset not in PHI_PRESETS:
        raise ValueError(f"unknown interaction-weight preset {preset!r}")
    return PHI_PRESETS[preset](**params)


# "dw-heterogeneous" is the older name of "dw" with a per-agent d
GOSSIP_MODELS = {"gossip-degroot": gp.DegrootGossip, "gossip-pair": gp.SymmetricPairGossip,
                 "gossip-fj": gp.GossipFJ.from_fj, "dw": gp.DeffuantWeisbuch,
                 "dw-heterogeneous": gp.DeffuantWeisbuch}


def gossip_model_from_params(model: str, params: dict):
    """The gossip model named ``model``, built from its params by keyword."""
    return GOSSIP_MODELS[model](**params)


def weight_spec_from_params(kind: str = KIND_STOCHASTIC, matrix=None, schedule=None) -> WeightSpec:
    return WeightSpec(kind, matrix=resolve_matrix(matrix),
                      schedule=None if schedule is None else load_schedule(schedule))


def fj_spec_from_params(params: dict) -> FJSpec:
    return FJSpec(**params)
