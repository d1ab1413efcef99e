"""Output checks for every benchmarked command.

Each command's stdout must match, byte for byte, the SHA-256 digest
recorded from the program at the commit that defined this benchmark (the
CLI promises byte-identical output for identical arguments). The headline
results are also re-checked from the output itself, so a wrong answer is
caught even where a digest would have to be re-recorded:

- the ``exact-m --n 10`` witness has 811 members and is pairwise
  skewincident;
- the ``graph-m path:9`` witness has 395 subsets, any two of which contain
  adjacent vertices;
- the ``sperner --n 20`` witness is an antichain of C(15, 6) = 5005
  no-adjacent-ones strings;
- the ``gamma-dist --n 512`` counts sum to 2^512.

Monte Carlo output depends on the workload seed, and exit code 1 with
``within_3_sigma = false`` is valid output; only its seed-independent
``exact`` column and its consistency with the exit code are checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Callable

from workloads import MONTECARLO_LABEL

DIGESTS = {
    "exact-m --n 10 --override-cap --format json":
        "0996f85ad0e64644ddc0a96a0447313125c264f266945fbf8302834301f8dfe3",
    "graph-m --graph path:9":
        "db3ba18cd34c014e93bd78e06d7575c4f4117fdf7d1944f7db65686887482ac2",
    "attractive --n 7 --alphabet-graph path:3":
        "a8b4ca6e855c638b098784f9afa6098a31f4a525bae57814717e9442402631a6",
    "graph-m --graph all-loops:10":
        "f668dfc034c44b94a7b775f6b9db8e2085977041efff149735483c5c306a8ae9",
    "report --table theorem --max-n 512 --format csv":
        "753a242c5e8839e09d2b921134a3058941450260188cbe6159e9525b5f12ca68",
    "sperner --n 20 --witness":
        "2aa9cca271fba1f75c5c170529733f2251bb7c0dc76641a0e6d81a365bd71e59",
    "crossover --max-n 512":
        "f15bfa977df2396adc2c608a250fbf4cbee8f70641045c0d3df82234758f52b5",
    "gamma-dist --n 512 --format csv":
        "1848d545afbedbe14a5e756bf2da28b66562e5530ed3c9c71509e6fdca447e7b",
}

MONTECARLO_EXACT = "180300853290240861/4611686018427387904"


def _markdown_row(out: str) -> dict[str, str]:
    """The single data row of a one-row Markdown table, by column name."""
    lines = out.splitlines()
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    cells = [c.strip() for c in lines[2].strip("|").split("|")]
    return dict(zip(header, cells))


def _check_exact_m(argv: list[str], out: str) -> list[str]:
    from skewlab.bitstring import Family
    from skewlab.constructions import verify_pairwise_skewincident

    payload = json.loads(out)
    witness = payload["witness"]
    problems = []
    if payload["size"] != 811 or len(set(witness)) != 811:
        problems.append(
            f"exact-m size {payload['size']}, {len(set(witness))} distinct, expected 811"
        )
    violation = verify_pairwise_skewincident(Family.from_literals(witness, 10))
    if violation is not None:
        problems.append(f"exact-m witness not pairwise skewincident: {violation}")
    return problems


def _check_graph_m_path9(argv: list[str], out: str) -> list[str]:
    row = _markdown_row(out)
    masks = [
        sum(1 << int(v) for v in members.split(",") if v.strip())
        for members in re.findall(r"\[([^\]]*)\]", row["witness"])
    ]
    problems = []
    if row["size"] != "395" or len(set(masks)) != 395:
        problems.append(
            f"graph-m path:9 size {row['size']}, {len(set(masks))} distinct, expected 395"
        )
    neighbours = [((m << 1) | (m >> 1)) & 0x1FF for m in masks]
    for i, nb in enumerate(neighbours):
        for b in masks[i + 1:]:
            if b & nb == 0:
                return problems + [f"graph-m path:9 witness pair without adjacent vertices:"
                                   f" {masks[i]:b}, {b:b}"]
    return problems


def _size_is(expected: str) -> Callable[[list[str], str], list[str]]:
    def check(argv: list[str], out: str) -> list[str]:
        size = _markdown_row(out)["size"]
        return [] if size == expected else [f"size {size}, expected {expected}"]

    return check


def _check_sperner20(argv: list[str], out: str) -> list[str]:
    members = [int(line, 2) for line in out.split()]
    problems = []
    expected = math.comb(15, 6)
    if len(members) != expected or len(set(members)) != expected:
        problems.append(
            f"sperner witness has {len(set(members))} distinct members, expected {expected}"
        )
    if any(len(line) != 20 for line in out.split()) or any(m & (m >> 1) for m in members):
        problems.append("sperner witness has a member that is not a length-20"
                        " no-adjacent-ones string")
    if len({m.bit_count() for m in members}) > 1:  # one weight level is an antichain by itself
        present = set(members)
        for m in members:
            sub = m
            while sub:
                sub = (sub - 1) & m
                if sub in present:
                    return problems + [f"sperner witness is not an antichain: {sub:b} < {m:b}"]
    return problems


def _check_gamma512(argv: list[str], out: str) -> list[str]:
    total = sum(int(line.split(",")[1]) for line in out.splitlines()[1:])
    return [] if total == 1 << 512 else [f"gamma-dist counts sum to {total}, expected 2^512"]


def _check_montecarlo(argv: list[str], rc: int, out: str) -> list[str]:
    row = _markdown_row(out)
    seed = argv[argv.index("--seed") + 1]
    problems = []
    if (row["n"], row["samples"], row["seed"]) != ("64", "1000000", seed):
        problems.append(
            f"montecarlo echoed n, samples, seed {row['n']}, {row['samples']}, {row['seed']}"
        )
    if row["exact"] != MONTECARLO_EXACT:
        problems.append(f"montecarlo exact {row['exact']}, expected {MONTECARLO_EXACT}")
    if row["within_3_sigma"] != ("true" if rc == 0 else "false"):
        problems.append(f"montecarlo exit code {rc} with within_3_sigma={row['within_3_sigma']}")
    return problems


RECHECKS = {
    "exact-m --n 10 --override-cap --format json": _check_exact_m,
    "graph-m --graph path:9": _check_graph_m_path9,
    "attractive --n 7 --alphabet-graph path:3": _size_is("2052"),
    "graph-m --graph all-loops:10": _size_is("512"),
    "sperner --n 20 --witness": _check_sperner20,
    "gamma-dist --n 512 --format csv": _check_gamma512,
}


def check(label: str, argv: list[str], rc: int | None, out: str,
          digests: dict[str, str] = DIGESTS) -> list[str]:
    """Problems with one command's result; an empty list means correct."""
    try:
        if label == MONTECARLO_LABEL:
            if rc not in (0, 1):
                return [f"exit code {rc}"]
            return _check_montecarlo(argv, rc, out)
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != digests[label]:
            problems.append(f"stdout digest {digest} differs from the recorded {digests[label]}")
        recheck = RECHECKS.get(label)
        if recheck is not None:
            problems += recheck(argv, out)
        return problems
    except (ValueError, KeyError, IndexError) as exc:  # output too malformed to parse
        return [f"unparseable output: {exc!r}"]
