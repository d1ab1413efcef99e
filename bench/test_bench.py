"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import hashlib
import os

import pytest

import checks
import run
import spans
import workloads

SRC = os.path.join(os.path.dirname(run.BENCH_DIR), "src")
SEED = 3


@pytest.fixture(scope="module")
def traced_tables():
    return [run.run_pass(SRC, "tables", SEED, traced=True) for _ in range(2)]


def test_traced_passes_repeat_work_counters(traced_tables):
    first, second = (p["counters"] for p in traced_tables)
    assert first == second
    # every pass starts cold: the theorem table misses the root cache and
    # the crossover scan hits it once per n
    assert first["counting.root_cache_misses"] == 1024
    assert first["counting.root_cache_hits"] == 512
    assert first["counting.mc_samples"] == 1_000_000
    assert first["sperner.poset_elements"] > 0 and first["report.bytes_out"] > 0


def test_wrong_digest_counts_as_failure(traced_tables):
    commands = workloads.commands("tables", SEED)
    assert run.score(commands, traced_tables)[:2] == (10, 0)
    digests = dict(checks.DIGESTS, **{"crossover --max-n 512": "0" * 64})
    attempted, failed, problems = run.score(commands, traced_tables, digests)
    assert (attempted, failed) == (10, 2)
    assert all(p.startswith("crossover") for p in problems)


@pytest.mark.parametrize("label, out", [
    ("sperner --n 20 --witness", "00000000000000000101\n00000000000000000100\n"),
    ("gamma-dist --n 512 --format csv", "gamma,count\n0,1\n"),
    ("graph-m --graph path:9",
     "| size | witness |\n| --- | --- |\n| 395 | [0] [2] |\n"),
])
def test_rechecks_reject_wrong_answers(label, out):
    digests = {label: hashlib.sha256(out.encode()).hexdigest()}
    assert checks.check(label, label.split(), 0, out, digests)


def test_poset_counts_match_enumeration():
    for n in range(1, 13):
        members = [x for x in range(1 << n) if x & (x >> 1) == 0]
        dominated = sum((1 << x.bit_count()) - 1 for x in members)
        assert spans.fibonacci_poset_counts(n) == (len(members), dominated)
