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

# each module's __all__ is the one declaration of what the package exports
from .state import *
from .net_graph import *
from .linear_dynamics import *
from .bounded_confidence import *
from .gossip import *
from .analysis import *

__version__ = "0.1.0"
