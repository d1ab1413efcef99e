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


# exit code and stdout SHA-256 of the nine benchmark command lines (the
# Monte Carlo one at a fixed seed) and of the sweep's size table; the four
# counting rows recorded before the bound roots, the DP step and the
# sampler's lane sum were rewritten, the others before the Sperner sweep's
# searches moved into its level-pair fill
COUNTING_AT_THE_CAPS = {
    "exact-m --n 10 --override-cap --format json":
        (0, "0996f85ad0e64644ddc0a96a0447313125c264f266945fbf8302834301f8dfe3"),
    "graph-m --graph path:9":
        (0, "db3ba18cd34c014e93bd78e06d7575c4f4117fdf7d1944f7db65686887482ac2"),
    "attractive --n 7 --alphabet-graph path:3":
        (0, "a8b4ca6e855c638b098784f9afa6098a31f4a525bae57814717e9442402631a6"),
    "graph-m --graph all-loops:10":
        (0, "f668dfc034c44b94a7b775f6b9db8e2085977041efff149735483c5c306a8ae9"),
    "report --table theorem --max-n 512 --format csv":
        (0, "753a242c5e8839e09d2b921134a3058941450260188cbe6159e9525b5f12ca68"),
    "sperner --n 20 --witness":
        (0, "2aa9cca271fba1f75c5c170529733f2251bb7c0dc76641a0e6d81a365bd71e59"),
    "crossover --max-n 512":
        (0, "f15bfa977df2396adc2c608a250fbf4cbee8f70641045c0d3df82234758f52b5"),
    "gamma-dist --n 512 --format csv":
        (0, "1848d545afbedbe14a5e756bf2da28b66562e5530ed3c9c71509e6fdca447e7b"),
    "montecarlo --n 64 --samples 1000000 --seed 101":
        (0, "6b56a488c12e3bc3d83ef0a2787bf0bc7f2ac194149ddfd3befc8d0467b82fa1"),
    "sperner --n-range 1..20":
        (0, "374483720e9a8290da0d8751ab35b3685764771035391c6c32bceb0048f5b935"),
}


@pytest.mark.parametrize("command", sorted(COUNTING_AT_THE_CAPS))
def test_counting_commands_at_the_caps_are_pinned(capsys, command):
    code, digest = COUNTING_AT_THE_CAPS[command]
    assert main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# exit code and stdout SHA-256 of each output shape the commands write: the
# one-row tables, the string lists (the empty family too: "" and "[]\n"), and
# the two verdict lines; recorded before each shape got its one writer
OUTPUT_SHAPES = {
    "construct --construction C --n 10":
        (0, "c34ea233c448a951c904166cb5173c8fbc0245ce08fd5c554f151366cb740bf1"),
    "construct --construction C --n 10 --format json":
        (0, "87088d06b1715ad45639710d5ff45172e14bdcfaec075e2127cc60c23e2be697"),
    "construct --construction C --n 1":
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "construct --construction C --n 1 --format json":
        (0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "construct --construction fibonacci --n 5 --format csv":
        (0, "06973ddac9a7cadc1e50ceb40d8c487c2fcc60de41a33dbd1728519c158f5de5"),
    "sperner --n 6 --witness":
        (0, "d9f2cfff6896671c962a243763fa892af2cfc5f8ae4a0d967c1eb146d8ad0ea4"),
    "sperner --n 6 --witness --format csv":
        (0, "d9f2cfff6896671c962a243763fa892af2cfc5f8ae4a0d967c1eb146d8ad0ea4"),
    "sperner --n 6 --witness --format json":
        (0, "ebb415ac542f045564e62f89b3db4cbe3ab0eace025cea3272737c84ffbd63bf"),
    "montecarlo --n 20 --samples 100000 --seed 42":
        (0, "1dcd226a74bd280bc609f3c93b6382a1e2115ad8ddaa3083cc1af12f35c0ca31"),
    "montecarlo --n 20 --samples 100000 --seed 42 --format csv":
        (0, "aa1490047ec400a3ba4a92aa1ebd5a2e4925ae0cd863280c157304f11e145a25"),
    "montecarlo --n 20 --samples 100000 --seed 42 --format json":
        (0, "7cfd65f583e23a697dc412b31379f48c668afee13ea8e9ce6fe21e7433633b46"),
    "crossover --max-n 200":
        (0, "8d0f4d07f677b3511cc05d2d7768bedaffaf4cdfbd4b8bdba8b36d655b22c575"),
    "crossover --max-n 200 --format json":
        (0, "0dfc13c6b13806b7e26ac32340bcfc2b89a0ea233a43f4f7b77922e7aec01021"),
    "exact-m --n 5":
        (0, "eb5a1a67eaec9ae93b94877f4aa1bf2fcd3031d286321b30db0119b99dde0429"),
    "exact-m --n 5 --format csv":
        (0, "101ee5a04963996697df1941d8901ddd738d2e22e1c3ee553d3e5b8d016e2370"),
    "graph-m --graph multipartite:2,2 --format csv":
        (0, "61c441ac9d139b5af29d987754694d61dc2bfdc942261ac3746a8ef929a9bc85"),
    "attractive --n 3":
        (0, "d9964e67a0345c1004174e731cc1b007b8b5c0cd302906f983b2fbb4788b9ebc"),
    "verify --construction C --n 12":
        (0, "3cc1630aeb51a43d6abd18985239e7a523c323756963993898cdb0debf682bed"),
    "verify --construction fibonacci --n 6":
        (1, "138f2c6385e9200bd4796e7dc863873a2dec6fc43531f1b48d19faa8b9bede16"),
    "verify --check disjointness --n 8":
        (0, "08fafcb13965e62dccacef2d95735dfc8f2fb8765f5a405f94bb972b5152e9fe"),
    "verify --check sandwich --n 6":
        (0, "b909876957d249e28581e5c397d20dbef7465b73ef47a4804d55ab2f37a5abe0"),
    "verify --check projection --n 9":
        (0, "6fad81c224bd8756a8f51a93cf88e69b97f86e92fa30b8e087ff367675c7729a"),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_SHAPES))
def test_output_shapes_are_pinned(capsys, command):
    code, digest = OUTPUT_SHAPES[command]
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
    # only the solver commands read --timing; the others print the same bytes
    assert run_cli(capsys, "report", "--n-range", "1..3", "--timing") == run_cli(
        capsys, "report", "--n-range", "1..3")


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
    (["graph-m", "--graph", "path:13"], solver.MAX_ELEMENTS),
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
    fresh = [cli_outcome(capsys, argv) for argv in BACK_TO_BACK]
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 2, 0, 0]
    assert [cli_outcome(capsys, argv) for argv in BACK_TO_BACK] == fresh
    for argv in BACK_TO_BACK:
        if argv != ["sperner", "--n-range", "5..3"]:
            assert vars(cli._build_parser(argv[0]).parse_args(argv)) == vars(
                cli._build_parser().parse_args(argv)), argv


# a valid call of each command, in the order that usage lists them
VALID_CALLS = {
    "gamma-dist": ["--n", "3"],
    "construct": ["--n", "3"],
    "verify": ["--n", "3"],
    "exact-m": ["--n", "3"],
    "graph-m": ["--graph", "path:3"],
    "attractive": ["--n", "2"],
    "sperner": ["--n", "3"],
    "montecarlo": ["--n", "5", "--samples", "100"],
    "crossover": ["--max-n", "50"],
    "report": ["--n-range", "1..3"],
}


def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch):
    """``main`` builds only the named command's subparser; for each command,
    --help, an unknown flag, the required argument missing, and a valid call
    with a trailing token give the same exit code, stdout and stderr as
    through the parser of all ten commands. No arguments, -h and an unknown
    command take the full parser, and list all ten."""
    assert list(VALID_CALLS) == list(cli._COMMANDS)
    probes = []
    for command, args in VALID_CALLS.items():
        probes += [[command, "--help"], [command, "--bogus"], [command], [command, *args, "extra"]]
    own = [cli_outcome(capsys, argv) for argv in probes]
    assert [code for code, _, _ in own] == [0, 2, 2, 2] * 10
    names = "{" + ",".join(VALID_CALLS) + "}"
    for argv in ([], ["bogus"], ["-h"]):
        code, out, err = cli_outcome(capsys, argv)
        assert code == (0 if argv == ["-h"] else 2) and names in out + err, argv
        if argv == ["-h"]:
            assert all(help in " ".join(out.split()) for _, help, _ in cli._COMMANDS.values())
        else:  # the action keeps its name in argparse's own errors
            assert err.endswith(("required: command\n", "argument command: invalid choice: "
                                 "'bogus' (choose from 'gamma-dist', 'construct', 'verify', "
                                 "'exact-m', 'graph-m', 'attractive', 'sperner', 'montecarlo', "
                                 "'crossover', 'report')\n")), err
    full = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full)
    assert [cli_outcome(capsys, argv) for argv in probes] == own


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
    """A multipartite spec within the graph cap but past the element cap is
    refused before any edge is listed: its 4M edges would take seconds. The
    graph takes one row per part, so graph-m and an attractive alphabet are
    refused by the solver's own element cap."""
    listed = []
    init = cli.graphs.Graph.__init__

    def listing(self, vertex_count, edges=()):
        init(self, vertex_count, (listed.append(e) or e for e in edges))

    monkeypatch.setattr(cli.graphs.Graph, "__init__", listing)
    for argv, message in ((["graph-m", "--graph", "multipartite:2048,2048"], "2^4096"),
                          (["attractive", "--n", "2", "--alphabet-graph", "multipartite:2048,2048"],
                           "4096^2")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"skewlab: error: {message} elements exceed the cap of 4096\n"
    assert listed == [(0, 1)]  # the one edge of attractive's default positions, path:2


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
