"""The benchmark's workloads: fixed lists of ``skewlab`` command lines.

Each workload is run as one closed loop by a single caller: a command
starts only after the previous one has returned. The workloads are chosen
so that each stresses a different layer:

- ``exact-m``: the clique solver with a witness-pass-heavy profile
  (``exact_M(10)`` spends most of its time after the size is known).
- ``attractive``: the same solver the other way round; the generic
  ``from_relation`` predicate build and the degree relabel dominate, while
  greedy colouring already finds the optimum.
- ``tables``: no solver at all; the Sperner matching and the counting layer
  (gamma DP sweep, exact k-th roots, Monte Carlo) share the time.

A command is a ``(label, argv)`` pair. The label names the command in the
output checks; it leaves out the Monte Carlo seed, the only input that
depends on the workload seed.
"""

from __future__ import annotations

import random

MONTECARLO_LABEL = "montecarlo --n 64 --samples 1000000"


def _fixed(*lines: str) -> list[tuple[str, list[str]]]:
    return [(line, line.split()) for line in lines]


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The command list of one workload; raises KeyError for an unknown name."""
    if workload == "exact-m":
        return _fixed(
            "exact-m --n 10 --override-cap --format json",
            "graph-m --graph path:9",
        )
    if workload == "attractive":
        return _fixed(
            "attractive --n 7 --alphabet-graph path:3",
            "graph-m --graph all-loops:10",
        )
    if workload == "tables":
        mc_seed = random.Random(seed).getrandbits(64)
        return _fixed(
            "report --table theorem --max-n 512 --format csv",
            "sperner --n 20 --witness",
            "crossover --max-n 512",
            "gamma-dist --n 512 --format csv",
        ) + [(MONTECARLO_LABEL, MONTECARLO_LABEL.split() + ["--seed", str(mc_seed)])]
    raise KeyError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


WORKLOADS = ("exact-m", "attractive", "tables")
