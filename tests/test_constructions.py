"""Materialized families: construction contents, verification, greedy growth."""

import json
import random

import pytest

from skewlab.bitstring import (
    BitString,
    Family,
    LengthMismatchError,
    gamma,
    gamma_bits,
    skewincident_bits,
)
from skewlab import constructions
from skewlab.cli import main
from skewlab.constructions import (
    disjointness_counterexample,
    enumerate_C,
    enumerate_fibonacci,
    fibonacci_masks,
    verify_pairwise_skewincident,
)
from skewlab.counting import count_C, fibonacci_count
from oracles import (
    NotPairwiseSkewincidentError,
    greedy_maximal_extension,
    verify_disjointness_argument,
)
from tables import COUNT_C

B = BitString.from_string


def literals(family: Family) -> set[str]:
    return {str(m) for m in family}


def no_adjacent_ones(x: BitString) -> bool:
    return x.bits & x.bits >> 1 == 0


def test_enumerate_C_small():
    assert literals(enumerate_C(1)) == set()
    assert literals(enumerate_C(2)) == {"11"}
    assert literals(enumerate_C(3)) == {"111", "110", "011"}


def test_enumerate_C_definition_and_size():
    for n in range(1, 13):
        fam = enumerate_C(n)
        assert all(gamma(m) > n for m in fam)
        assert len(fam) == COUNT_C[n] == count_C(n)


def test_enumerate_C_validation():
    for bad in (0, 25):
        with pytest.raises(ValueError):
            enumerate_C(bad)


def test_enumerate_fibonacci_small():
    assert literals(enumerate_fibonacci(1)) == {"0", "1"}
    assert literals(enumerate_fibonacci(2)) == {"00", "01", "10"}
    assert literals(enumerate_fibonacci(3)) == {"000", "001", "010", "100", "101"}


def test_enumerate_fibonacci_counts():
    for n in range(1, 17):
        fam = enumerate_fibonacci(n)
        assert all(no_adjacent_ones(m) for m in fam)
        assert len(fam) == fibonacci_count(n)


def test_fibonacci_masks_equal_the_scan():
    for n in range(1, 21):
        assert fibonacci_masks(n) == [x for x in range(1 << n) if x & x >> 1 == 0], n
    assert [m.bits for m in enumerate_fibonacci(12).sorted_members()] == fibonacci_masks(12)


def test_verify_pairwise_ok_cases():
    assert verify_pairwise_skewincident(Family.from_literals(["10", "01", "11"])) is None
    for n in range(1, 11):
        assert verify_pairwise_skewincident(enumerate_C(n)) is None, n
    # empty and singleton families are vacuously fine
    assert verify_pairwise_skewincident(Family(3, ())) is None
    assert verify_pairwise_skewincident(Family.from_literals(["000"])) is None


def test_verify_pairwise_counterexample_is_lex_first():
    verdict = verify_pairwise_skewincident(Family.from_literals(["10", "00"]))
    assert verdict == (B("00"), B("10"))
    verdict = verify_pairwise_skewincident(Family.from_literals(["11", "01", "00"]))
    assert verdict == (B("00"), B("01"))


def pair_scan(family: Family) -> tuple[BitString, BitString] | None:
    """The lexicographically first pair of members that is not skewincident,
    by one test per pair."""
    n, masks = family.length, family.masks
    for i, x in enumerate(masks):
        for y in masks[i + 1:]:
            if not skewincident_bits(x, y):
                return BitString(n, x), BitString(n, y)
    return None


def test_verify_pairwise_matches_the_pair_scan():
    """Random families for n <= 10: samples of C_n (few free bits, so the
    submask walk decides), some with stray strings added, and some with a
    random share of all strings (many free bits, so the member scan does)."""
    rng = random.Random(8)
    verdicts = set()
    for trial in range(400):
        n = 1 + trial % 10
        masks = {x for x in enumerate_C(n).masks if rng.random() < 0.8}
        masks |= {rng.randrange(1 << n) for _ in range(trial % 3)}
        if trial % 5 == 0:
            masks |= {x for x in range(1 << n) if rng.random() < 0.3}
        family = Family(n, tuple(sorted(masks)))
        verdict = verify_pairwise_skewincident(family)
        assert verdict == pair_scan(family), (n, family.masks)
        verdicts.add(verdict is None)
    assert verdicts == {True, False}


def test_disjointness_argument_examples():
    assert verify_disjointness_argument(B("111"), B("111")) is True
    assert verify_disjointness_argument(B("110"), B("011")) is True
    assert verify_disjointness_argument(B("101"), B("010")) is True  # vacuous
    with pytest.raises(LengthMismatchError):
        verify_disjointness_argument(B("10"), B("100"))


def test_disjointness_argument_all_pairs():
    for n in range(1, 7):
        xs = [BitString(n, b) for b in range(1 << n)]
        for x in xs:
            for y in xs:
                assert verify_disjointness_argument(x, y), (str(x), str(y))


def test_disjointness_scan():
    for n in range(1, 9):
        assert disjointness_counterexample(n) is None, n
    for n in (0, 13):
        with pytest.raises(ValueError, match=rf"n must be in \[1, 12\], got {n}$"):
            disjointness_counterexample(n)


def test_disjointness_scan_finds_the_first_pair(monkeypatch):
    """With a weakened argument that fails (gamma raised by one for strings
    of weight two or more, and far below zero for the others), the submask
    walk returns the same first pair as a scan over all x <= y."""
    def raised(x: int, n: int) -> int:
        return gamma_bits(x, n) + 1 if x.bit_count() >= 2 else -n

    monkeypatch.setattr(constructions, "gamma_bits", raised)
    for n in range(1, 10):
        first = next(((BitString(n, x), BitString(n, y))
                      for x in range(1 << n) for y in range(x, 1 << n)
                      if raised(x, n) + raised(y, n) > 2 * n and not skewincident_bits(x, y)),
                     None)
        assert disjointness_counterexample(n) == first, n
        assert (first is None) == (n < 3), n


def test_greedy_extension_grows_strictly():
    for n in range(1, 7):
        base = enumerate_C(n)
        ext = greedy_maximal_extension(base)
        assert set(base.masks) <= set(ext.masks)
        assert len(ext) > len(base), n
        assert len(ext) <= 1 << n
        assert verify_pairwise_skewincident(ext) is None


def test_greedy_extension_small_cases():
    ext = greedy_maximal_extension(enumerate_C(2))
    assert literals(ext) == {"01", "10", "11"}
    assert len(ext) >= 3
    # a maximal family is a fixed point
    assert greedy_maximal_extension(ext).masks == ext.masks
    # the empty family greedily picks the all-zero string, which then blocks
    # every other candidate
    assert literals(greedy_maximal_extension(Family(3, ()))) == {"000"}


def test_greedy_extension_rejects_bad_input():
    with pytest.raises(NotPairwiseSkewincidentError) as err:
        greedy_maximal_extension(Family.from_literals(["00", "10"]))
    assert err.value.pair == (B("00"), B("10"))


def test_construction_meets_fibonacci_in_antichain():
    """Whatever pairwise-skewincident family we materialize, its members
    with no adjacent 1s must be pairwise incomparable.

    The high-gamma construction itself has no such members (no-adjacent-ones
    strings keep gamma at or below n), so the greedy extensions carry the
    interesting cases."""
    for n in range(2, 13):
        base = enumerate_C(n)
        assert not any(no_adjacent_ones(m) for m in base)
        for fam in (base, greedy_maximal_extension(base)):
            fib_members = [m.bits for m in fam.sorted_members() if no_adjacent_ones(m)]
            for i, x in enumerate(fib_members):
                for y in fib_members[i + 1 :]:
                    assert x & ~y and y & ~x, (n, x, y)  # incomparable


def test_lines_round_trip(capsys):
    # ``construct`` writes a family as its literals, one per line, ascending
    assert main(["construct", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n") and text.count("\n") == len(enumerate_C(4))
    assert Family.from_literals(text.splitlines()) == enumerate_C(4)
    assert text.splitlines() == sorted(text.splitlines())
    assert main(["construct", "--n", "1"]) == 0  # C_1 is empty
    assert capsys.readouterr().out == ""


def test_json_round_trip(capsys):
    assert main(["construct", "--n", "5", "--format", "json"]) == 0
    assert Family.from_literals(json.loads(capsys.readouterr().out)) == enumerate_C(5)
    assert main(["construct", "--n", "1", "--format", "json"]) == 0
    assert capsys.readouterr().out == "[]\n"
