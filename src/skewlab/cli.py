"""Command-line front end: one command per experiment, deterministic output.

Exit codes: 0 success, 1 a verification failed (the counterexample is
printed), 2 invalid arguments. Output is byte-identical for identical
arguments and seed; pass --timing to add wall-clock fields, which are
excluded by default exactly so that byte-identity holds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import constructions, counting, graphs, report, solver, sperner
from .counting import CrossoverNotFoundError
from .report import Table, render

@dataclass
class RunConfig:
    """Everything one invocation needs; built by the argument parser."""

    command: str
    n: int | None = None
    n_range: tuple[int, int] | None = None
    max_n: int | None = None
    samples: int = 100000
    seed: int = 0
    fmt: str = "markdown"
    out: str | None = None
    construction: str = "C"
    check: str = "pairwise"
    override_cap: bool = False
    table_style: str = "summary"
    graph_spec: str | None = None
    position_graph: str = "path"
    alphabet_graph: str = "skew-alphabet"
    witness: bool = False
    timing: bool = False


def _emit(config: RunConfig, text: str) -> None:
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_table(config: RunConfig, table: Table) -> None:
    _emit(config, render(table, config.fmt))


def _build_graph(spec: str, default_n: int | None = None) -> graphs.Graph:
    """Generator specs: path:N, multipartite:a,b,..., all-loops:N, edgeless:N,
    skew-alphabet, k2, file:PATH. Where N is omitted, default_n applies."""
    name, _, arg = spec.partition(":")
    if name == "file":
        with open(arg, encoding="utf-8") as fh:
            return graphs.Graph.from_text(fh.read())
    if name == "skew-alphabet":
        return graphs.skew_alphabet()
    if name == "k2":
        return graphs.complete_multipartite((1, 1))
    if name == "multipartite":
        parts = tuple(int(tok) for tok in arg.split(","))
        return graphs.complete_multipartite(parts)
    if name in ("path", "all-loops", "edgeless"):
        n = int(arg) if arg else default_n
        if n is None:
            raise ValueError(f"graph spec {spec!r} needs a size, e.g. {name}:4")
        if name == "path":
            return graphs.path(n)
        if name == "all-loops":
            return graphs.all_loops(n)
        return graphs.Graph(n, [])
    raise ValueError(f"unknown graph spec {spec!r}")


def _result_table(extra: dict[str, object], result: solver.ExtremalResult,
                  timing: bool) -> Table:
    columns = list(extra) + ["size", "method", "witness"]
    row = list(extra.values()) + [
        result.size,
        result.method,
        " ".join(str(solver.witness_descriptor(w)) for w in result.witness),
    ]
    if timing:
        columns.append("elapsed_ms")
        row.append(result.elapsed_ms)
    return Table(tuple(columns), (tuple(row),))


def _cmd_gamma_dist(config: RunConfig) -> int:
    dist = counting.gamma_distribution(config.n)
    rows = tuple((v, c) for v, c in dist.sorted_items())
    _emit_table(config, Table(("gamma", "count"), rows))
    return 0


def _family_for(config: RunConfig) -> "constructions.Family":
    if config.construction == "C":
        return constructions.enumerate_C(config.n)
    if config.construction == "fibonacci":
        return constructions.enumerate_fibonacci(config.n)
    raise ValueError(f"unknown construction {config.construction!r}")


def _cmd_construct(config: RunConfig) -> int:
    family = _family_for(config)
    if config.fmt == "json":
        _emit(config, constructions.family_to_json(family) + "\n")
    else:
        _emit(config, constructions.family_to_lines(family))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    if config.check == "pairwise":
        family = _family_for(config)
        verdict = constructions.verify_pairwise_skewincident(family)
        if verdict is None:
            _emit(config, f"ok: {len(family)} members pairwise skewincident\n")
            return 0
        _emit(config, f"counterexample: ({verdict[0]}, {verdict[1]})\n")
        return 1
    if config.check == "disjointness":
        pair = constructions.disjointness_counterexample(config.n)
        if pair is not None:
            _emit(config, f"counterexample: ({pair[0]}, {pair[1]})\n")
            return 1
        _emit(config, f"ok: gamma-sum implication holds on all pairs at n={config.n}\n")
        return 0
    if config.check == "sandwich":
        rep = report.sandwich_check(config.n)
        _emit(
            config,
            f"{rep.construction_size} <= {rep.exact_size} <= {rep.upper_bound}"
            f" : {'ok' if rep.ok else 'VIOLATED'}\n",
        )
        return 0 if rep.ok else 1
    if config.check == "projection":
        rep = sperner.projection_bound_check(config.n)
        _emit(
            config,
            f"antichain {rep.antichain_size} <= {rep.fib_prev}"
            f" and 3*{rep.fib_prev} <= 2*{rep.fib_n}"
            f" : {'ok' if rep.ok else 'VIOLATED'}\n",
        )
        return 0 if rep.ok else 1
    raise ValueError(f"unknown check {config.check!r}")


def _cmd_exact_m(config: RunConfig) -> int:
    result = solver.exact_M(config.n, override_cap=config.override_cap)
    if config.fmt == "json":
        _emit(config, solver.result_to_json(result, include_elapsed=config.timing) + "\n")
    else:
        _emit_table(config, _result_table({"n": config.n}, result, config.timing))
    return 0


def _cmd_graph_m(config: RunConfig) -> int:
    g = _build_graph(config.graph_spec)
    result = solver.exact_MG(g)
    extra: dict[str, object] = {
        "graph": config.graph_spec,
        "vertices": g.vertex_count,
    }
    name = config.graph_spec.partition(":")[0]
    if name == "multipartite":
        parts = tuple(int(tok) for tok in config.graph_spec.partition(":")[2].split(","))
        extra["closed_form"] = solver.multipartite_M(parts)
    if config.fmt == "json":
        _emit(config, solver.result_to_json(result, include_elapsed=config.timing) + "\n")
    else:
        _emit_table(config, _result_table(extra, result, config.timing))
    return 0


def _cmd_attractive(config: RunConfig) -> int:
    n = config.n
    f_graph = _build_graph(config.position_graph, default_n=n)
    g_graph = _build_graph(config.alphabet_graph)
    result = solver.exact_attractive(f_graph, g_graph, n)
    extra = {
        "positions": config.position_graph,
        "alphabet": config.alphabet_graph,
        "n": n,
    }
    if config.fmt == "json":
        _emit(config, solver.result_to_json(result, include_elapsed=config.timing) + "\n")
    else:
        _emit_table(config, _result_table(extra, result, config.timing))
    return 0


def _cmd_sperner(config: RunConfig) -> int:
    if config.witness:
        result = sperner.max_antichain(config.n)
        _emit(config, "".join(str(w) + "\n" for w in result.witness))
        return 0
    lo, hi = config.n_range if config.n_range else (config.n, config.n)
    rows = []
    for n in range(lo, hi + 1):
        rows.append((n, counting.fibonacci_count(n), sperner.max_antichain(n).size))
    _emit_table(config, Table(("n", "fibonacci", "antichain_max"), tuple(rows)))
    return 0


def _cmd_montecarlo(config: RunConfig) -> int:
    est = counting.monte_carlo_tail(config.n, config.samples, config.seed)
    exact = counting.tail_probability(config.n)
    abs_error = abs(est.estimate - float(exact))
    passed = abs_error <= 3.0 * est.standard_error
    table = Table(
        (
            "n",
            "samples",
            "seed",
            "estimate",
            "standard_error",
            "exact",
            "abs_error",
            "within_3_sigma",
        ),
        (
            (
                config.n,
                config.samples,
                config.seed,
                est.estimate,
                est.standard_error,
                exact,
                abs_error,
                passed,
            ),
        ),
    )
    _emit_table(config, table)
    return 0 if passed else 1


def _cmd_crossover(config: RunConfig) -> int:
    try:
        n_star = counting.crossover_scan(config.max_n)
    except CrossoverNotFoundError as exc:
        _emit(config, f"no crossover: {exc}\n")
        return 1
    _emit_table(
        config,
        Table(("max_n", "crossover_n"), ((config.max_n, n_star),)),
    )
    return 0


def _cmd_report(config: RunConfig) -> int:
    if config.table_style == "theorem":
        _emit_table(config, report.theorem_table(config.max_n))
        return 0
    lo, hi = config.n_range
    _emit_table(config, report.summary_table(lo, hi))
    return 0


_DISPATCH = {
    "gamma-dist": _cmd_gamma_dist,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "exact-m": _cmd_exact_m,
    "graph-m": _cmd_graph_m,
    "attractive": _cmd_attractive,
    "sperner": _cmd_sperner,
    "montecarlo": _cmd_montecarlo,
    "crossover": _cmd_crossover,
    "report": _cmd_report,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    if config.command not in _DISPATCH:
        raise ValueError(f"unknown command {config.command!r}")
    return _DISPATCH[config.command](config)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        lo_n, hi_n = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}") from None
    if lo_n > hi_n:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: LO > HI")
    return lo_n, hi_n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="Exact experiments on skewincident string families.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=report.FORMATS,
                        default="markdown", help="output format")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock fields (breaks byte-identity)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma-dist", parents=[common],
                       help="exact distribution of gamma at one n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="emit a named family (lines, or a JSON array with --format json)")
    p.add_argument("--construction", choices=("C", "fibonacci"), default="C")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="run a verification; exit 1 on failure")
    p.add_argument("--check", choices=("pairwise", "disjointness", "sandwich", "projection"),
                   default="pairwise")
    p.add_argument("--construction", choices=("C", "fibonacci"), default="C")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("exact-m", parents=[common],
                       help="exact maximum pairwise-skewincident family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--override-cap", action="store_true", dest="override_cap",
                   help="allow n up to 12 (you own the cost)")

    p = sub.add_parser("graph-m", parents=[common],
                       help="exact maximum pairwise-neighbor subset family")
    p.add_argument("--graph", dest="graph_spec", required=True,
                   help="path:N | multipartite:a,b,... | all-loops:N | "
                        "edgeless:N | skew-alphabet | k2 | file:PATH")

    p = sub.add_parser("attractive", parents=[common],
                       help="exact maximum pairwise-attractive mapping family")
    p.add_argument("--position-graph", default="path",
                   help="generator spec for positions (default path, sized by --n)")
    p.add_argument("--alphabet-graph", default="skew-alphabet",
                   help="generator spec for values (default skew-alphabet)")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("sperner", parents=[common],
                       help="antichain maxima over no-adjacent-ones strings")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-range", type=_parse_range, dest="n_range")
    p.add_argument("--witness", action="store_true",
                   help="emit a maximum antichain for --n instead of the table")

    p = sub.add_parser("montecarlo", parents=[common],
                       help="seeded tail estimate vs the exact value; exit 1 outside 3 sigma")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("crossover", parents=[common],
                       help="first n from which 2^n - |C_n| <= 2^(0.96 n) holds on")
    p.add_argument("--max-n", type=int, dest="max_n", required=True)

    p = sub.add_parser("report", parents=[common], help="summary or theorem evidence table")
    p.add_argument("--table", choices=("summary", "theorem"), dest="table_style",
                   default="summary")
    p.add_argument("--n-range", type=_parse_range, dest="n_range",
                   help="rows for the summary table, e.g. 1..8")
    p.add_argument("--max-n", type=int, dest="max_n",
                   help="last row of the theorem table")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for name in vars(config):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)

    if config.command == "report":
        if config.table_style == "summary" and config.n_range is None:
            parser.error("report --table summary requires --n-range")
        if config.table_style == "theorem" and config.max_n is None:
            parser.error("report --table theorem requires --max-n")
    if config.command == "sperner" and config.witness and config.n is None:
        parser.error("sperner --witness requires --n")

    try:
        return run(config)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"skewlab: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
