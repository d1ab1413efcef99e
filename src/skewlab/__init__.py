"""skewlab: exact computation for skewincidence extremal problems.

Core objects are fixed-length binary strings under the skewincidence
relation (a shared 1 in adjacent positions). The package materializes and
verifies the high-gamma construction, counts gamma distributions exactly
for large lengths, solves the extremal family sizes by exact clique
search, computes maximum antichains of no-adjacent-ones strings through
minimum chain covers, and reports every quantity through a deterministic
command-line interface.

``constructions``, ``counting`` and ``sperner`` run on first use: the
solver commands need none of them, so importing the command line leaves
them out. The names below resolve from their modules on first access.
"""

import importlib.util
import sys

for _name in ("constructions", "counting", "sperner"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])

_EXPORTS = {
    "bitstring": ("BitString", "Family", "LengthMismatchError", "gamma", "influence",
                  "skewincident", "support", "weight"),
    "constructions": ("enumerate_C", "enumerate_fibonacci", "verify_pairwise_skewincident"),
    "counting": ("CrossoverNotFoundError", "GammaDistribution", "TailEstimate", "count_C",
                 "crossover_scan", "fibonacci_count", "gamma_distribution",
                 "monte_carlo_tail", "tail_probability"),
    "graphs": ("Graph", "Partition", "all_loops", "complete_multipartite", "path",
               "skew_alphabet"),
    "solver": ("ExtremalResult", "exact_M", "exact_MG", "exact_attractive", "multipartite_M"),
    "report": ("SandwichReport", "sandwich_check"),
    "sperner": ("AntichainResult", "max_antichain", "projection_bound_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


__version__ = "0.1.0"
