"""skewlab: exact computation for skewincidence extremal problems.

Core objects are fixed-length binary strings under the skewincidence
relation (a shared 1 in adjacent positions). The package materializes and
verifies the high-gamma construction, counts gamma distributions exactly
for large lengths, solves the extremal family sizes by exact clique
search, computes maximum antichains of no-adjacent-ones strings through
minimum chain covers, and reports every quantity through a deterministic
command-line interface.
"""

from .bitstring import (
    BitString,
    Family,
    LengthMismatchError,
    gamma,
    influence,
    skewincident,
    support,
    weight,
)
from .constructions import enumerate_C, enumerate_fibonacci, verify_pairwise_skewincident
from .counting import (
    CrossoverNotFoundError,
    GammaDistribution,
    TailEstimate,
    count_C,
    crossover_scan,
    fibonacci_count,
    gamma_distribution,
    monte_carlo_tail,
    tail_probability,
)
from .graphs import Graph, Partition, all_loops, complete_multipartite, path, skew_alphabet
from .solver import (
    ExtremalResult,
    exact_M,
    exact_MG,
    exact_attractive,
    multipartite_M,
)
from .report import SandwichReport, sandwich_check
from .sperner import AntichainResult, max_antichain, projection_bound_check

__version__ = "0.1.0"
