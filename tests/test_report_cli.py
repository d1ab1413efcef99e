"""Table rendering, CSV round-trips, and the command-line surface."""

import csv
import hashlib
import io
import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest

from skewlab import cli, constructions, counting, report, solver, sperner
from skewlab.cli import main
from skewlab.report import (
    Table,
    render,
    render_csv,
    render_json,
    render_markdown,
    summary_table,
    theorem_table,
)
from tables import ANTICHAIN_MAX, COUNT_C, FIBONACCI, MAX_FAMILY


SAMPLE = Table(
    ("n", "count", "ratio", "ok", "note"),
    (
        (1, 2 ** 70, Fraction(3, 4), True, "plain"),
        (2, 0, Fraction(7), False, None),
    ),
)


def test_csv_round_trip_exact():
    text = render_csv(SAMPLE)
    header, *rows = csv.reader(io.StringIO(text))
    parsers = (int, int, Fraction, {"true": True, "false": False}.__getitem__, str)
    back = Table(tuple(header), tuple(
        tuple(None if cell == "" else parse(cell) for parse, cell in zip(parsers, row))
        for row in rows))
    assert back == SAMPLE
    # counts render as decimal integers and rationals as p/q
    lines = text.splitlines()
    assert lines[1].split(",")[1] == str(2 ** 70)
    assert lines[1].split(",")[2] == "3/4"
    assert lines[2].split(",")[3] == "false"


def test_json_rendering():
    payload = json.loads(render_json(SAMPLE))
    assert payload["columns"] == list(SAMPLE.columns)
    row = payload["rows"][0]
    assert row["count"] == str(2 ** 70)  # decimal string, never a float
    assert row["ratio"] == "3/4"
    assert row["ok"] is True
    assert payload["rows"][1]["note"] is None
    assert list(row) == sorted(row)  # keys sorted


def test_markdown_rendering():
    text = render_markdown(SAMPLE)
    lines = text.splitlines()
    assert lines[0].startswith("| n | count |")
    assert lines[1].startswith("| --- |")
    assert len(lines) == 4


def test_render_dispatch():
    for fmt in ("csv", "json", "markdown"):
        assert render(SAMPLE, fmt)
    with pytest.raises(ValueError):
        render(SAMPLE, "xml")
    with pytest.raises(ValueError):
        Table(("a",), ((1, 2),))


def test_theorem_table_rows():
    table = theorem_table(12)
    rows = {row[0]: row for row in table.rows}
    # n = 1: 2 strings outside the construction, floor(2^0.96) = 1 -> violated
    assert rows[1][1] == 2 and rows[1][2] == 1 and rows[1][3] is False
    # n = 3: 8 - 3 = 5 <= floor(2^2.88) = 7 -> holds
    assert rows[3][1] == 5 and rows[3][2] == 7 and rows[3][3] is True
    for n in range(2, 13):
        assert rows[n][3] is True
        if n <= 8:
            assert rows[n][4] == FIBONACCI[n] - ANTICHAIN_MAX[n]


def test_theorem_table_blank_antichain_beyond_cap():
    table = theorem_table(25)
    by_n = {row[0]: row for row in table.rows}
    assert by_n[20][4] == fib_minus(20)
    assert by_n[21][4] is None and by_n[21][6] is None


def fib_minus(n: int) -> int:
    a, b = 1, 2
    for _ in range(n - 1):
        a, b = b, a + b
    return b - ANTICHAIN_MAX[n]


def test_tables_stream_the_sweep(monkeypatch):
    # the tables read C(n) from the tail kernel, which holds one window of
    # totals and no distribution; the antichain and exact-maximum columns
    # are slow and hold neither, so the traced calls leave them out
    monkeypatch.setattr(sperner, "MAX_POSET_LENGTH", 0)
    tracemalloc.start()
    try:
        theorem = theorem_table(512)
        summary = summary_table(report.EXACT_M_DEFAULT_CAP + 1, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(theorem.rows) == 512 and summary.rows[-1][0] == 512
    # the 512 distributions held at once would take 17 MB; the kernel, under 1 MB
    assert peak < 4 << 20, peak


# exit code and stdout SHA-256 of the counting-heavy commands at their caps,
# recorded before the bound roots, the DP step and the sampler's lane sum
# were rewritten
COUNTING_AT_THE_CAPS = {
    "report --table theorem --max-n 512 --format csv":
        (0, "753a242c5e8839e09d2b921134a3058941450260188cbe6159e9525b5f12ca68"),
    "crossover --max-n 512":
        (0, "f15bfa977df2396adc2c608a250fbf4cbee8f70641045c0d3df82234758f52b5"),
    "gamma-dist --n 512 --format csv":
        (0, "1848d545afbedbe14a5e756bf2da28b66562e5530ed3c9c71509e6fdca447e7b"),
    "montecarlo --n 64 --samples 1000000 --seed 101":
        (0, "6b56a488c12e3bc3d83ef0a2787bf0bc7f2ac194149ddfd3befc8d0467b82fa1"),
}


@pytest.mark.parametrize("command", sorted(COUNTING_AT_THE_CAPS))
def test_counting_commands_at_the_caps_are_pinned(capsys, command):
    code, digest = COUNTING_AT_THE_CAPS[command]
    assert main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_summary_table_columns():
    table = summary_table(1, 6)
    assert table.columns == (
        "n",
        "fibonacci",
        "antichain_max",
        "construction_size",
        "exact_max",
        "upper_bound",
    )
    for row in table.rows:
        n = row[0]
        assert row[1] == FIBONACCI[n]
        assert row[2] == ANTICHAIN_MAX[n]
        assert row[3] == COUNT_C[n]
        assert row[4] == MAX_FAMILY[n]
        assert row[5] == (1 << n) - (FIBONACCI[n] - ANTICHAIN_MAX[n])


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_report_summary(capsys):
    code, out = run_cli(capsys, "report", "--n-range", "1..5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("n,fibonacci,antichain_max")
    assert out.splitlines()[3].startswith("3,5,3,3,5,")


def test_cli_report_theorem(capsys):
    code, out = run_cli(capsys, "report", "--table", "theorem", "--max-n", "6",
                        "--format", "csv")
    assert code == 0
    assert "outside_construction" in out.splitlines()[0]


def test_cli_byte_identical_runs(capsys):
    args = ("report", "--n-range", "1..8", "--format", "json")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_gamma_dist(capsys):
    code, out = run_cli(capsys, "gamma-dist", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "gamma,count\n0,1\n2,2\n4,1\n"


def test_cli_construct(capsys):
    code, out = run_cli(capsys, "construct", "--construction", "C", "--n", "3")
    assert code == 0
    assert out == "011\n110\n111\n"
    code, out = run_cli(capsys, "construct", "--construction", "fibonacci",
                        "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["00", "01", "10"]


def test_cli_verify_pairwise(capsys):
    code, out = run_cli(capsys, "verify", "--construction", "C", "--n", "10")
    assert code == 0 and out.startswith("ok")
    # the no-adjacent-ones family is not pairwise skewincident
    code, out = run_cli(capsys, "verify", "--construction", "fibonacci", "--n", "2")
    assert code == 1 and "counterexample" in out


def test_cli_verify_other_checks(capsys):
    assert run_cli(capsys, "verify", "--check", "disjointness", "--n", "8") == (
        0, "ok: gamma-sum implication holds on all pairs at n=8\n")
    assert run_cli(capsys, "verify", "--check", "disjointness", "--n", "13") == (2, "")
    assert run_cli(capsys, "verify", "--check", "sandwich", "--n", "4")[0] == 0
    assert run_cli(capsys, "verify", "--check", "projection", "--n", "6")[0] == 0


def test_cli_exact_m(capsys):
    code, out = run_cli(capsys, "exact-m", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 5
    assert "elapsed_ms" not in payload  # timing excluded by default
    code, out = run_cli(capsys, "exact-m", "--n", "3", "--format", "json", "--timing")
    assert "elapsed_ms" in json.loads(out)


def test_cli_graph_m(capsys):
    code, out = run_cli(capsys, "graph-m", "--graph", "path:3", "--format", "csv")
    assert code == 0
    assert ",5," in out.splitlines()[1]
    code, out = run_cli(capsys, "graph-m", "--graph", "multipartite:2,2",
                        "--format", "csv")
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    cells = dict(zip(header, row))
    assert cells["graph"] == "multipartite:2,2"  # quoting survives the comma
    assert cells["closed_form"] == "11" and cells["size"] == "11"


def test_cli_attractive(capsys):
    code, out = run_cli(capsys, "attractive", "--position-graph", "all-loops",
                        "--alphabet-graph", "k2", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "4"


def test_cli_sperner(capsys):
    code, out = run_cli(capsys, "sperner", "--n-range", "2..4", "--format", "csv")
    assert code == 0
    assert out == "n,fibonacci,antichain_max\n2,3,2\n3,5,3\n4,8,4\n"
    code, out = run_cli(capsys, "sperner", "--n", "3", "--witness")
    assert code == 0
    assert out == "001\n010\n100\n"


def test_cli_sperner_witness_follows_the_format(capsys):
    """A JSON array of the witness strings under --format json, as ``construct``
    writes; one string per line under the other formats."""
    code, out = run_cli(capsys, "sperner", "--n", "20", "--witness", "--format", "json")
    assert code == 0 and out.endswith("]\n")
    witness = json.loads(out)
    assert len(witness) == ANTICHAIN_MAX[20] and len(set(witness)) == len(witness)
    for fmt in ("csv", "markdown"):
        assert run_cli(capsys, "sperner", "--n", "20", "--witness", "--format", fmt) == (
            0, "".join(w + "\n" for w in witness)), fmt


CAPPED_ARGUMENTS = [  # (argv, the bound its message names, or None)
    (["montecarlo", "--n", "0"], counting.MAX_SAMPLING_LENGTH),
    (["montecarlo", "--n", str(counting.MAX_SAMPLING_LENGTH + 1)], counting.MAX_SAMPLING_LENGTH),
    (["montecarlo", "--n", "10", "--samples", "0"], None),
    (["gamma-dist", "--n", str(counting.MAX_DP_LENGTH + 1)], counting.MAX_DP_LENGTH),
    (["crossover", "--max-n", str(counting.MAX_DP_LENGTH + 1)], counting.MAX_DP_LENGTH),
    (["construct", "--n", "0"], constructions.MAX_ENUMERATION_LENGTH),
    (["construct", "--n", str(constructions.MAX_ENUMERATION_LENGTH + 1)],
     constructions.MAX_ENUMERATION_LENGTH),
    (["verify", "--n", str(constructions.MAX_ENUMERATION_LENGTH + 1)],
     constructions.MAX_ENUMERATION_LENGTH),
    (["verify", "--check", "sandwich", "--n", str(solver.EXACT_M_DEFAULT_CAP + 1)],
     solver.EXACT_M_DEFAULT_CAP),
    (["verify", "--check", "projection", "--n", "1"], sperner.MAX_POSET_LENGTH),
    (["verify", "--check", "projection", "--n", str(sperner.MAX_POSET_LENGTH + 1)],
     sperner.MAX_POSET_LENGTH),
    (["exact-m", "--n", str(solver.MAX_SUBSET_VERTICES + 1), "--override-cap"],
     solver.MAX_SUBSET_VERTICES),
    (["attractive", "--alphabet-graph", "path:3",  # the fewest positions with 3^n past the cap
      "--n", str(next(n for n in itertools.count(1) if 3 ** n > solver.MAX_ELEMENTS))],
     solver.MAX_ELEMENTS),
    (["attractive", "--n", "3", "--position-graph", "path:2"], None),
]


@pytest.mark.parametrize("argv, bound", CAPPED_ARGUMENTS,
                         ids=[" ".join(argv) for argv, _ in CAPPED_ARGUMENTS])
def test_cli_caps_exit_2_with_one_error_line(capsys, argv, bound):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("skewlab: error: ")  # one line, a message with no traceback
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert bound is None or str(bound) in captured.err


def test_cli_montecarlo(capsys):
    code, out = run_cli(capsys, "montecarlo", "--n", "20", "--samples", "20000",
                        "--seed", "42", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].endswith("true")


def test_cli_montecarlo_rejects_out_of_range_seed(capsys):
    for seed in ("-1", str(2 ** 64)):
        assert main(["montecarlo", "--n", "3", "--samples", "10", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"seed must be in [0, 2^64), got {seed}" in captured.err


def test_cli_crossover(capsys):
    code, out = run_cli(capsys, "crossover", "--max-n", "100", "--format", "csv")
    assert code == 0
    assert out == "max_n,crossover_n\n100,2\n"


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, _ = run_cli(capsys, "gamma-dist", "--n", "2", "--format", "csv",
                      "--out", str(target))
    assert code == 0
    assert target.read_text() == "gamma,count\n0,1\n2,2\n4,1\n"


def test_cli_invalid_arguments(capsys):
    assert main(["gamma-dist", "--n", "0"]) == 2
    assert main(["exact-m", "--n", "9"]) == 2  # over the cap without override
    assert main(["graph-m", "--graph", "nonsense:3"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["report"])  # missing --n-range
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_cli_rejects_reversed_range(capsys):
    for command in ("sperner", "report"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n-range", "5..3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad range" in captured.err


BACK_TO_BACK = [
    ["report", "--table", "theorem", "--max-n", "3", "--format", "csv"],
    ["sperner", "--n", "3", "--witness"],
    ["report", "--n-range", "1..2"],  # --max-n and --table of the first must not stick
    ["verify", "--check", "disjointness", "--n", "0"],  # exit 2 from a range check
    ["sperner", "--n-range", "5..3"],  # an argparse error: SystemExit(2)
    ["sperner", "--n-range", "2..3", "--format", "json"],  # --witness must not stick
    ["gamma-dist", "--n", "2"],
]


def cli_outcome(capsys, argv: list[str]) -> tuple[object, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_commands_back_to_back_match_fresh_calls(capsys):
    fresh = []
    for argv in BACK_TO_BACK:
        cli._build_parser.cache_clear()
        fresh.append(cli_outcome(capsys, argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 2, 0, 0]
    cli._build_parser.cache_clear()
    assert [cli_outcome(capsys, argv) for argv in BACK_TO_BACK] == fresh
    shared = cli._build_parser()
    assert cli._build_parser() is shared  # one parser per process
    for argv in BACK_TO_BACK:
        if argv != ["sperner", "--n-range", "5..3"]:
            assert vars(shared.parse_args(argv)) == vars(
                cli._build_parser.__wrapped__().parse_args(argv)), argv


def test_cli_out_dev_null(capsys):
    assert main(["crossover", "--max-n", "50", "--format", "csv", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_fixed_graph_specs_reject_arguments(capsys):
    for argv in (["graph-m", "--graph", "k2:5"],
                 ["graph-m", "--graph", "skew-alphabet:3"],
                 ["attractive", "--n", "2", "--alphabet-graph", "k2:3"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "takes no argument" in captured.err


def test_cli_oversized_graph_specs_fail_before_building(capsys):
    """A spec past the vertex cap is refused before any of its edges exist:
    built first, these lists would exhaust memory."""
    for argv, count in ((["graph-m", "--graph", "path:99999999999"], 99999999999),
                        (["graph-m", "--graph", "all-loops:99999999999"], 99999999999),
                        (["graph-m", "--graph", "multipartite:4000,4000"], 8000),
                        (["attractive", "--n", "1", "--alphabet-graph", "path:99999999999"],
                         99999999999),
                        (["attractive", "--n", "99999999999"], 99999999999)):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"vertex_count must be in [1, 4096], got {count}" in captured.err, argv


def test_cli_graph_m_refuses_past_its_cap_before_building(capsys, monkeypatch):
    """A multipartite spec within the graph cap but past the subset route's
    is refused from its part sizes: its edges would take seconds to list."""
    built = []
    monkeypatch.setattr(cli.graphs, "complete_multipartite", built.append)
    assert main(["graph-m", "--graph", "multipartite:2048,2048"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "skewlab: error: vertex count must be <= 12, got 4096\n"
    assert built == []


def test_cli_error_messages_name_the_fix(capsys):
    # the override hint only where the override would help: past the default cap
    for n, hinted in (("9", True), ("0", False), ("-1", False)):
        assert main(["exact-m", "--n", n]) == 2, n
        captured = capsys.readouterr()
        assert captured.out == "" and f"got {n}" in captured.err, n
        assert ("--override-cap" in captured.err) is hinted, n
    for spec in ("multipartite:", "multipartite:2,x", "path:x"):
        assert main(["graph-m", "--graph", spec]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"graph spec {spec!r}" in captured.err and "invalid literal" not in captured.err


def test_cli_report_rejects_the_other_tables_option(capsys):
    for argv in (["report", "--table", "summary", "--n-range", "1..2", "--max-n", "3"],
                 ["report", "--table", "theorem", "--max-n", "3", "--n-range", "1..2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not take" in captured.err, argv


def test_cli_max_n_range_errors_name_max_n(capsys):
    for argv, message in ((["report", "--table", "theorem", "--max-n", "0"],
                           "max_n must be in [1, 512], got 0"),
                          (["report", "--table", "theorem", "--max-n", "513"],
                           "max_n must be in [1, 512], got 513"),
                          (["crossover", "--max-n", "1"], "max_n must be in [2, 512], got 1")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"skewlab: error: {message}\n", argv


def test_cli_sperner_names_its_cap_for_every_n(capsys):
    for argv in (["sperner", "--n-range", "0..2"], ["sperner", "--n", "0"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n must be in [1, 20], got 0" in captured.err, argv


def test_cli_range_ends_name_their_cap(capsys):
    for argv, message in ((["report", "--n-range", "0..5"], "n must be in [1, 512], got 0"),
                          (["report", "--n-range", "5..513"], "n must be in [1, 512], got 513"),
                          (["sperner", "--n-range", "0..21"], "n must be in [1, 20], got 0"),
                          (["sperner", "--n-range", "5..21"], "n must be in [1, 20], got 21"),
                          (["sperner", "--n", "21"], "n must be in [1, 20], got 21")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"skewlab: error: {message}\n", argv


# Graph files for ``file:PATH`` specs, each malformed in one way.
GRAPH_FILES = {
    "count.txt": "three\n0 1\n",
    "one-token.txt": "3\n0\n",
    "three-tokens.txt": "3\n0 1 2\n",
    "out-of-range.txt": "3\n0 3\n",
    "negative.txt": "3\n-1 0\n",
    "empty.txt": "",
}

# Malformed input and who refuses it: "value" for a handler's check, "usage"
# for argparse. "{tmp}" is a directory that holds GRAPH_FILES.
MALFORMED = [
    (["gamma-dist", "--n", "x"], "usage"),
    (["gamma-dist", "--n", "0"], "value"),
    (["gamma-dist", "--n", "-1"], "value"),
    (["sperner", "--n", "0"], "value"),
    (["construct", "--n", "0"], "value"),
    (["attractive", "--n", "0"], "value"),
    *((["graph-m", "--graph", spec], "value")
      for spec in ("multipartite:", "multipartite:2,,2", "multipartite:0", "path:", "path:0",
                   "path:1e3", "bogus", "k2:3", "skew-alphabet:1")),
    (["attractive", "--n", "2", "--alphabet-graph", "edgeless:0"], "value"),
    (["report", "--n-range", "5..3"], "usage"),
    (["sperner", "--n-range", "5..3"], "usage"),
    (["sperner", "--n", "3", "--n-range", "1..2"], "usage"),
    (["report", "--table", "summary", "--n-range", "1..2", "--max-n", "3"], "usage"),
    (["report", "--table", "theorem", "--max-n", "0"], "value"),
    (["crossover", "--max-n", "1"], "value"),
    (["verify", "--check", "disjointness", "--n", "0"], "value"),
    (["verify", "--check", "projection", "--n", "1"], "value"),
    (["verify", "--check", "sandwich", "--n", "0"], "value"),
    *((["graph-m", "--graph", "file:{tmp}/" + name], "value") for name in GRAPH_FILES),
    (["graph-m", "--graph", "file:{tmp}"], "value"),
    (["graph-m", "--graph", "file:{tmp}/missing.txt"], "value"),
    (["exact-m", "--n", "3", "--out", "{tmp}"], "value"),
]


@pytest.mark.parametrize("argv, kind", MALFORMED, ids=[" ".join(argv) for argv, _ in MALFORMED])
def test_cli_malformed_input_exits_2(tmp_path, capsys, argv, kind):
    """Every malformed input exits 2 with empty stdout and no traceback: a
    handler's refusal as one ``skewlab: error:`` line, an argparse error as
    the usage and then its ``error:`` line."""
    for name, text in GRAPH_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        code, raised = main([arg.format(tmp=tmp_path) for arg in argv]), False
    except SystemExit as exc:
        code, raised = exc.code, True
    captured = capsys.readouterr()
    assert (code, raised, captured.out) == (2, kind == "usage", "")
    lines = captured.err.splitlines()
    if kind == "value":
        assert len(lines) == 1 and lines[0].startswith("skewlab: error: "), captured.err
    else:
        assert lines[0].startswith("usage: skewlab ") and ": error: " in lines[-1], captured.err
    assert "Traceback" not in captured.err
