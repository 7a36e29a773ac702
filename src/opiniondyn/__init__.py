"""Opinion-dynamics simulators and analysis tools.

Model families: synchronous averaging over static, scheduled, or
state-dependent coupling graphs (including signed/antagonistic couplings
and their continuous-time flows), bounded-confidence dynamics with all the
usual confidence geometries, and randomized pairwise gossip with seeded,
reproducible randomness. Analysis covers signed-graph structure (Laplacian,
structural balance, gauge transformations, connectivity), the
bounded-confidence interaction energy, cluster extraction, and outcome
classification.
"""

from .state import (
    IntegrationError,
    MaxStepsError,
    NonConvergentError,
    OpinionState,
    SimulationError,
    Trajectory,
    UnstableError,
    trajectory_from_states,
)
from .net_graph import (
    BalanceResult,
    ConnectivityReport,
    GaugeVector,
    SignedGraph,
    UndirectedGraph,
    connectivity,
    gauge_apply,
    gauge_from_balance,
    persistent_graph,
    signed_laplacian,
    signed_laplacian_matrix,
    structural_balance,
)
from .linear_dynamics import (
    BipartitePrediction,
    FJSpec,
    PremiseReport,
    WeightSpec,
    fj_fixed_point,
    flow_simulate,
    predict_bipartite_consensus,
    simulate_discrete,
    verify_convergence_premises,
)
from .bounded_confidence import (
    ConfidenceSpec,
    DChainPartition,
    PhiSpec,
    d_chain_partition,
    heterophily_phi,
    hk_energy,
    hk_indicator_phi,
    hk_step,
    inertial_step,
    phi_step,
    reputation_phi,
    simulate_bc,
    truth_step,
)
from .gossip import (
    DWHeterogeneous,
    DeffuantWeisbuch,
    DegrootGossip,
    GossipFJ,
    RngSeed,
    SymmetricPairGossip,
    bernoulli_convolution,
    build_gammas,
    cesaro,
    dw_run_exact,
    make_rng,
    simulate_gossip,
)
from .analysis import (
    ClusterProfile,
    OutcomeLabel,
    classify,
    clusters,
    two_r_experiment,
)

__version__ = "0.1.0"
