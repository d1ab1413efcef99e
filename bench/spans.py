"""Outside-in tracing of one ``skewlab`` process.

``install`` wraps every public function of the traced modules and rebinds
every name under which a loaded ``skewlab`` module can reach one. Several
modules import functions by name (``report`` takes ``exact_M``,
``max_antichain``, ``floor_pow2``, ``ceil_pow2`` and
``gamma_distributions_upto``; ``cli`` takes ``render``; ``sperner`` takes
``max_clique`` and ``enumerate_fibonacci``), so patching only the defining
module would silently miss those calls. Calls inside a module, such as
``ceil_pow2`` calling ``floor_pow2``, go through the module globals and are
caught by the same rebinding.

Each call records a span (name, start, end, parent span) in memory. A
layer's self time is its span minus its child spans, so the self times of
all spans plus the untraced remainder add up to the pass's wall time.
Work counters are read from arguments and results at the same boundaries.

The split of ``max_clique`` into relabel, search and witness pass, and the
branch-and-bound node and Hopcroft-Karp counters, need spans inside the
program and are not measured here.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable

TRACED_MODULES = (
    "skewlab.solver",
    "skewlab.sperner",
    "skewlab.counting",
    "skewlab.constructions",
    "skewlab.report",
    "skewlab.cli",
)

# Per-layer self-time metrics: metric name -> qualified function names.
# Self time of any other traced function goes to trace.other_s.
SELF_TIME_METRICS = {
    "solver.max_clique_s": ("solver.max_clique",),
    "solver.build_s": ("solver.exact_M", "solver.exact_MG", "solver.exact_attractive"),
    "sperner.max_antichain_s": ("sperner.max_antichain",),
    "constructions.enumerate_s": (
        "constructions.enumerate_C",
        "constructions.enumerate_fibonacci",
    ),
    "counting.sweep_s": (
        "counting.gamma_distributions_upto",
        "counting.gamma_distribution",
        "counting.crossover_scan",
        "counting.count_C",
        "counting.tail_probability",
        "counting.expected_gamma",
    ),
    "counting.roots_s": ("counting.floor_pow2", "counting.ceil_pow2", "counting.floor_kth_root"),
    "counting.monte_carlo_s": ("counting.monte_carlo_tail",),
    "report.tables_s": ("report.theorem_table", "report.summary_table"),
    "report.render_s": (
        "report.render",
        "report.render_csv",
        "report.render_json",
        "report.render_markdown",
    ),
    "cli.self_s": ("cli.main", "cli.run"),
}

COUNTERS = (
    "solver.elements",
    "solver.relation_edges",
    "solver.clique_size",
    "sperner.poset_elements",
    "sperner.dominance_pairs",
    "constructions.strings_scanned",
    "counting.root_cache_hits",
    "counting.root_cache_misses",
    "counting.mc_samples",
    "report.bytes_out",
    "trace.calls",
)


def fibonacci_poset_counts(n: int) -> tuple[int, int]:
    """(elements, strictly dominated pairs) of the length-n no-adjacent-ones
    poset, by a recurrence independent of the program.

    With w(x) = 2^weight(x), summing 1 and w over the strings gives
    f(n) = f(n-1) + f(n-2) and t(n) = t(n-1) + 2 t(n-2); every string
    dominates 2^weight - 1 others.
    """
    f_prev, f_cur = 1, 2
    t_prev, t_cur = 1, 3
    for _ in range(n - 1):
        f_prev, f_cur = f_cur, f_cur + f_prev
        t_prev, t_cur = t_cur, t_cur + 2 * t_prev
    return f_cur, t_cur - f_cur


def _count_max_clique(counts: Counter, args: tuple, result: object) -> None:
    instance = args[0]
    counts["solver.elements"] += instance.count
    counts["solver.relation_edges"] += sum(r.bit_count() for r in instance.rows) // 2
    counts["solver.clique_size"] += result.size


def _count_max_antichain(counts: Counter, args: tuple, result: object) -> None:
    elements, pairs = fibonacci_poset_counts(result.n)
    counts["sperner.poset_elements"] += elements
    counts["sperner.dominance_pairs"] += pairs


def _count_enumerate(counts: Counter, args: tuple, result: object) -> None:
    counts["constructions.strings_scanned"] += 1 << result.length


def _count_monte_carlo(counts: Counter, args: tuple, result: object) -> None:
    counts["counting.mc_samples"] += result.samples


def _count_render(counts: Counter, args: tuple, result: object) -> None:
    counts["report.bytes_out"] += len(result.encode())


_COUNTER_HOOKS: dict[str, Callable[[Counter, tuple, object], None]] = {
    "solver.max_clique": _count_max_clique,
    "sperner.max_antichain": _count_max_antichain,
    "constructions.enumerate_C": _count_enumerate,
    "constructions.enumerate_fibonacci": _count_enumerate,
    "counting.monte_carlo_tail": _count_monte_carlo,
    "report.render": _count_render,
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._root_cache: object = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _COUNTER_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced modules' public functions and rebind every name
        that refers to one, in every loaded ``skewlab`` module."""
        wrappers: dict[int, Callable] = {}
        for modname in TRACED_MODULES:
            module = sys.modules[modname]
            short = modname.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != modname
                    or getattr(obj, "__name__", None) != attr
                ):
                    continue
                wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                if attr == "floor_pow2":
                    self._root_cache = obj
        for modname, module in list(sys.modules.items()):
            if modname != "skewlab" and not modname.startswith("skewlab."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per function, and the work counters of the process."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - inner
        counts = {name: self.counts.get(name, 0) for name in COUNTERS}
        info = self._root_cache.cache_info()
        counts["counting.root_cache_hits"] = info.hits
        counts["counting.root_cache_misses"] = info.misses
        counts["trace.calls"] = len(self.spans)
        return self_time, counts


def layer_times(self_time: dict[str, float]) -> dict[str, float]:
    """Group per-function self times into the per-layer metrics."""
    grouped = {metric: 0.0 for metric in SELF_TIME_METRICS}
    owner = {fn: metric for metric, fns in SELF_TIME_METRICS.items() for fn in fns}
    other = 0.0
    for fn, seconds in self_time.items():
        if fn in owner:
            grouped[owner[fn]] += seconds
        else:
            other += seconds
    grouped["trace.other_s"] = other
    return grouped
