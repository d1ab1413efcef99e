"""Command-line front end: one command per experiment, deterministic output.

Exit codes: 0 success, 1 a verification failed (the counterexample is
printed), 2 invalid arguments. Output is byte-identical for identical
arguments and seed. Every command accepts --timing, but only the three
solver commands (exact-m, graph-m, attractive) read it: it adds their
wall-clock ``elapsed_ms`` field, which is left out by default exactly so
that byte-identity holds. The other seven print the same bytes with it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterator

from . import constructions, counting, graphs, report, solver, sperner
from .bitstring import Family
from .report import Table, render


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_table(args: argparse.Namespace, table: Table) -> None:
    _emit(args, render(table, args.fmt))


def _emit_row(args: argparse.Namespace, row: dict[str, object]) -> None:
    """A one-row table, its columns named by ``row``'s keys in order."""
    _emit_table(args, Table(tuple(row), (tuple(row.values()),)))


def _emit_strings(args: argparse.Namespace, strings: Iterator[str]) -> None:
    """One string per line, or a JSON array of them with --format json."""
    _emit(args, json.dumps(list(strings)) + "\n" if args.fmt == "json"
          else "".join(s + "\n" for s in strings))


def _spec_int(spec: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"graph spec {spec!r}: {token!r} is not an integer") from None


def _multipartite_parts(spec: str) -> tuple[int, ...]:
    """The part sizes a,b,... of a ``multipartite:a,b,...`` spec."""
    return tuple(_spec_int(spec, t) for t in spec.partition(":")[2].split(","))


def _build_graph(spec: str, default_n: int | None = None) -> graphs.Graph:
    """Generator specs: path:N, multipartite:a,b,..., all-loops:N, edgeless:N,
    skew-alphabet, k2, file:PATH. Where N is omitted, default_n applies."""
    name, _, arg = spec.partition(":")
    if name == "file":
        with open(arg, encoding="utf-8") as fh:
            return graphs.Graph.from_text(fh.read())
    if name in ("skew-alphabet", "k2") and arg:
        raise ValueError(f"graph spec {name!r} takes no argument, got {spec!r}")
    if name == "skew-alphabet":
        return graphs.skew_alphabet()
    if name == "k2":
        return graphs.complete_multipartite((1, 1))
    if name == "multipartite":
        return graphs.complete_multipartite(_multipartite_parts(spec))
    if name in ("path", "all-loops", "edgeless"):
        n = _spec_int(spec, arg) if arg else default_n
        if n is None:
            raise ValueError(f"graph spec {spec!r} needs a size, e.g. {name}:4")
        if name == "path":
            return graphs.path(n)
        if name == "all-loops":
            return graphs.all_loops(n)
        return graphs.Graph(n, [])
    raise ValueError(f"unknown graph spec {spec!r}")


def _emit_result(args: argparse.Namespace, extra: dict[str, object],
                 result: solver.ExtremalResult) -> int:
    """A solver result as its JSON record with sorted keys, or as one table row
    led by ``extra``; a witness entry is a string literal or an index list."""
    fields: dict[str, object] = {
        "size": result.size,
        "method": "branch-and-bound",
        "witness": [list(w) if isinstance(w, tuple) else str(w) for w in result.witness],
    }
    if args.timing:
        fields["elapsed_ms"] = result.elapsed_ms
    if args.fmt == "json":
        _emit(args, json.dumps(fields, sort_keys=True) + "\n")
        return 0
    fields["witness"] = " ".join(map(str, fields["witness"]))
    _emit_row(args, extra | fields)
    return 0


def _cmd_gamma_dist(args: argparse.Namespace) -> int:
    dist = counting.gamma_distribution(args.n)
    _emit_table(args, Table(("gamma", "count"), tuple(dist.counts.items())))
    return 0


def _family_for(args: argparse.Namespace) -> Family:
    if args.construction == "C":
        return constructions.enumerate_C(args.n)
    return constructions.enumerate_fibonacci(args.n)


def _cmd_construct(args: argparse.Namespace) -> int:
    family = _family_for(args)
    n = family.length
    _emit_strings(args, (f"{m:0{n}b}" for m in family.masks))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """A search check prints its first counterexample or ``ok``; a claim
    check prints the claim and whether it holds."""
    if args.check in ("sandwich", "projection"):
        if args.check == "sandwich":
            rep = report.sandwich_check(args.n)
            claim = f"{rep.construction_size} <= {rep.exact_size} <= {rep.upper_bound}"
        else:
            rep = sperner.projection_bound_check(args.n)
            claim = (f"antichain {rep.antichain_size} <= {rep.fib_prev}"
                     f" and 3*{rep.fib_prev} <= 2*{rep.fib_n}")
        _emit(args, f"{claim} : {'ok' if rep.ok else 'VIOLATED'}\n")
        return 0 if rep.ok else 1
    if args.check == "pairwise":
        family = _family_for(args)
        pair = constructions.verify_pairwise_skewincident(family)
        holds = f"{len(family)} members pairwise skewincident"
    else:
        pair = constructions.disjointness_counterexample(args.n)
        holds = f"gamma-sum implication holds on all pairs at n={args.n}"
    if pair is not None:
        _emit(args, f"counterexample: ({pair[0]}, {pair[1]})\n")
        return 1
    _emit(args, f"ok: {holds}\n")
    return 0


def _cmd_exact_m(args: argparse.Namespace) -> int:
    result = solver.exact_M(args.n, override_cap=args.override_cap)
    return _emit_result(args, {"n": args.n}, result)


def _cmd_graph_m(args: argparse.Namespace) -> int:
    spec = args.graph_spec
    parts = _multipartite_parts(spec) if spec.partition(":")[0] == "multipartite" else None
    g = _build_graph(spec)
    result = solver.exact_MG(g)
    extra: dict[str, object] = {"graph": spec, "vertices": g.vertex_count}
    if parts is not None:
        extra["closed_form"] = solver.multipartite_M(parts)
    return _emit_result(args, extra, result)


def _cmd_attractive(args: argparse.Namespace) -> int:
    n = args.n
    f_graph = _build_graph(args.position_graph, default_n=n)
    g_graph = _build_graph(args.alphabet_graph)
    result = solver.exact_attractive(f_graph, g_graph, n)
    extra = {
        "positions": args.position_graph,
        "alphabet": args.alphabet_graph,
        "n": n,
    }
    return _emit_result(args, extra, result)


def _cmd_sperner(args: argparse.Namespace) -> int:
    if args.witness:
        _emit_strings(args, (str(w) for w in sperner.max_antichain(args.n).witness))
        return 0
    lo, hi = args.n_range if args.n_range else (args.n, args.n)
    sizes = sperner.antichain_sizes(lo, hi)  # first, so that both ends are checked against the cap
    rows = [(n, counting.fibonacci_count(n), size) for n, size in zip(range(lo, hi + 1), sizes)]
    _emit_table(args, Table(("n", "fibonacci", "antichain_max"), tuple(rows)))
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    est = counting.monte_carlo_tail(args.n, args.samples, args.seed)
    exact = counting.tail_probability(args.n)
    abs_error = abs(est.estimate - float(exact))
    passed = abs_error <= 3.0 * est.standard_error
    _emit_row(args, {
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "estimate": est.estimate,
        "standard_error": est.standard_error,
        "exact": exact,
        "abs_error": abs_error,
        "within_3_sigma": passed,
    })
    return 0 if passed else 1


def _cmd_crossover(args: argparse.Namespace) -> int:
    try:
        n_star = counting.crossover_scan(args.max_n)
    except counting.CrossoverNotFoundError as exc:
        _emit(args, f"no crossover: {exc}\n")
        return 1
    _emit_row(args, {"max_n": args.max_n, "crossover_n": n_star})
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.table_style == "theorem":
        _emit_table(args, report.theorem_table(args.max_n))
        return 0
    lo, hi = args.n_range
    _emit_table(args, report.summary_table(lo, hi))
    return 0


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


def _gamma_dist_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--construction", choices=("C", "fibonacci"), default="C")
    p.add_argument("--n", type=int, required=True)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--check", choices=("pairwise", "disjointness", "sandwich", "projection"),
                   default="pairwise")
    _construct_args(p)


def _exact_m_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--override-cap", action="store_true", dest="override_cap",
                   help=f"allow n up to {solver.MAX_SUBSET_VERTICES} (you own the cost)")


def _graph_m_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", dest="graph_spec", required=True,
                   help="path:N | multipartite:a,b,... | all-loops:N | "
                        "edgeless:N | skew-alphabet | k2 | file:PATH")


def _attractive_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--position-graph", default="path",
                   help="generator spec for positions (default path, sized by --n)")
    p.add_argument("--alphabet-graph", default="skew-alphabet",
                   help="generator spec for values (default skew-alphabet)")
    p.add_argument("--n", type=int, required=True)


def _sperner_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-range", type=_parse_range, dest="n_range")
    p.add_argument("--witness", action="store_true",
                   help="emit a maximum antichain for --n instead of the table "
                        "(lines, or a JSON array with --format json)")


def _montecarlo_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)


def _crossover_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, dest="max_n", required=True)


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", choices=("summary", "theorem"), dest="table_style",
                   default="summary")
    p.add_argument("--n-range", type=_parse_range, dest="n_range",
                   help="rows for the summary table, e.g. 1..8")
    p.add_argument("--max-n", type=int, dest="max_n",
                   help="last row of the theorem table")


# name: (handler, help, argument adder), in the order that usage lists them
_COMMANDS: dict[str, tuple[Callable[..., int], str, Callable[..., None]]] = {
    "gamma-dist": (_cmd_gamma_dist, "exact distribution of gamma at one n", _gamma_dist_args),
    "construct": (_cmd_construct,
                  "emit a named family (lines, or a JSON array with --format json)",
                  _construct_args),
    "verify": (_cmd_verify, "run a verification; exit 1 on failure", _verify_args),
    "exact-m": (_cmd_exact_m, "exact maximum pairwise-skewincident family", _exact_m_args),
    "graph-m": (_cmd_graph_m, "exact maximum pairwise-neighbor subset family", _graph_m_args),
    "attractive": (_cmd_attractive, "exact maximum pairwise-attractive mapping family",
                   _attractive_args),
    "sperner": (_cmd_sperner, "antichain maxima over no-adjacent-ones strings", _sperner_args),
    "montecarlo": (_cmd_montecarlo,
                   "seeded tail estimate vs the exact value; exit 1 outside 3 sigma",
                   _montecarlo_args),
    "crossover": (_cmd_crossover, "first n from which 2^n - |C_n| <= 2^(0.96 n) holds on",
                  _crossover_args),
    "report": (_cmd_report, "summary or theorem evidence table", _report_args),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser with the subparser of ``command`` alone, or
    of every command when it is None. A one-command parser names every
    command in its usage, so its usage and errors read as the full
    parser's; only the full parser can list the commands, which no
    arguments, -h or an unknown command print."""
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
    # the full parser's usage reads the same from its choices; a metavar there would
    # rename the action in its "required" and "invalid choice" errors
    names = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else names)
    for name in _COMMANDS if command is None else [command]:
        handler, help, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)

    if args.command == "report":
        needed, unused = (("--n-range", args.n_range), ("--max-n", args.max_n))
        if args.table_style == "theorem":
            needed, unused = unused, needed
        if needed[1] is None:
            parser.error(f"report --table {args.table_style} requires {needed[0]}")
        if unused[1] is not None:
            parser.error(f"report --table {args.table_style} does not take {unused[0]}")
    if args.command == "sperner" and args.witness and args.n is None:
        parser.error("sperner --witness requires --n")

    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"skewlab: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
