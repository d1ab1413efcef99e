"""Antichain maxima: chain-cover route, independent oracle, bound checks."""

import hashlib
import itertools
import math

import pytest

from skewlab import sperner
from skewlab.bitstring import weight
from skewlab.constructions import enumerate_fibonacci, fibonacci_masks
from skewlab.counting import fibonacci_count
from skewlab.sperner import max_antichain, projection_bound_check
from oracles import max_antichain_oracle, minimum_chain_cover
from tables import ANTICHAIN_MAX


def leq(x: int, y: int) -> bool:
    """Dominance on masks: every set bit of x is set in y."""
    return x & ~y == 0


def test_poset_basics():
    elements = enumerate_fibonacci(2).sorted_members()
    assert [str(e) for e in elements] == ["00", "01", "10"]
    for n in range(1, 9):
        elements = enumerate_fibonacci(n).sorted_members()
        assert len(elements) == fibonacci_count(n)
        # the rank levels are read off the masks in this same order
        assert [e.bits for e in elements] == fibonacci_masks(n)
        # the all-zero string is the unique minimum
        bottom, *rest = elements
        assert bottom.bits == 0 and all(e.bits for e in rest)


def test_poset_validation():
    for fn in (max_antichain, minimum_chain_cover):
        for n in (0, 21):
            with pytest.raises(ValueError, match=rf"n must be in \[1, 20\], got {n}$"):
                fn(n)


def test_antichain_sizes_frozen():
    for n in range(1, 17):
        assert max_antichain(n).size == ANTICHAIN_MAX[n], n


def test_antichain_witness_is_valid():
    for n in range(1, 15):
        result = max_antichain(n)
        assert len(result.witness) == result.size
        assert len(set(result.witness)) == result.size
        for w in result.witness:
            assert w.bits & w.bits >> 1 == 0
        for x, y in itertools.combinations(result.witness, 2):
            assert not leq(x.bits, y.bits) and not leq(y.bits, x.bits), (n, str(x), str(y))


def test_antichain_members_differ_in_two_positions():
    for n in (5, 8, 11):
        witness = max_antichain(n).witness
        for x, y in itertools.combinations(witness, 2):
            assert (x.bits ^ y.bits).bit_count() >= 2


def test_small_antichain_witnesses():
    assert {str(w) for w in max_antichain(2).witness} == {"01", "10"}
    assert {str(w) for w in max_antichain(3).witness} == {"001", "010", "100"}
    w4 = max_antichain(4)
    assert w4.size == 4
    assert {weight(w) for w in w4.witness} == {1}  # the four weight-1 strings
    # levels tie at n = 1 (weights 0 and 1) and n = 19 (weights 5 and 6,
    # 3,003 each): the lower weight wins
    assert [str(w) for w in max_antichain(1).witness] == ["0"]
    level5 = [e for e in enumerate_fibonacci(19).sorted_members() if weight(e) == 5]
    assert len(level5) == 3003
    assert list(max_antichain(19).witness) == level5


def test_chain_cover_partitions_poset():
    for n in range(1, 21):
        chains = minimum_chain_cover(n)
        assert len(chains) == ANTICHAIN_MAX[n], n
        seen = [e for chain in chains for e in chain]
        assert len(seen) == fibonacci_count(n)
        assert len(set(seen)) == len(seen)
        for chain in chains:
            for a, b in zip(chain, chain[1:]):
                assert leq(a.bits, b.bits) and (a.bits ^ b.bits).bit_count() == 1


def test_level_matchings_saturate_the_smaller_level():
    for n, level, up in sperner.antichain_sweep(20):
        sizes = [math.comb(n + 1 - k, k) for k in range((n + 1) // 2 + 1)]
        assert len(level) == max(sizes) and level[0].bit_count() == sizes.index(max(sizes))
        assert len(set(up.values())) == len(up)  # one successor and one predecessor each
        links = [0] * len(sizes)  # links[k]: matched pairs between levels k and k + 1
        for a, b in up.items():  # a cover edge: b is a with one more bit set
            assert a & ~b == 0 and (a ^ b).bit_count() == 1, (n, a, b)
            assert b & (b >> 1) == 0 and b < 1 << n, (n, b)
            links[a.bit_count()] += 1
        assert links[:-1] == [min(p, q) for p, q in zip(sizes, sizes[1:])], n


def test_sweep_peaks_are_the_largest_bucketed_levels():
    for n, level, _ in sperner.antichain_sweep(20):
        levels = [[] for _ in range(n + 1)]
        for b in fibonacci_masks(n):
            levels[b.bit_count()].append(b)
        assert level == max(levels, key=len), n  # the first largest: the lower weight


def test_sweep_certifies_lengths_past_the_cap(monkeypatch):
    # the cap guards the printed tables, not the certificate: the same
    # sweep certifies n = 21..26, where the peak is still the largest level
    monkeypatch.setattr(sperner, "MAX_POSET_LENGTH", 26)
    sizes = {n: len(level) for n, level, _ in sperner.antichain_sweep(26)}
    for n in range(21, 27):
        assert sizes[n] == max(math.comb(n + 1 - k, k) for k in range(n + 1)), n
    assert sizes[26] == 77520


# SHA-256 of repr((n, peak, sorted(up.items()))) over antichain_sweep(26),
# recorded while the augmenting searches went through a generic matcher
SWEEP_SHA256 = "1e10d4d118e11088ff87ce9b8e175480938bff23486c7b9783a0a335fb051458"


def test_sweep_chain_partitions_are_pinned(monkeypatch):
    # the search order decides which maximum matching each level pair gets,
    # and so every chain partition the sweep yields
    monkeypatch.setattr(sperner, "MAX_POSET_LENGTH", 26)
    digest = hashlib.sha256()
    for n, peak, up in sperner.antichain_sweep(26):
        digest.update(repr((n, peak, sorted(up.items()))).encode())
    assert digest.hexdigest() == SWEEP_SHA256


def test_antichain_size_is_the_largest_binomial_level():
    for n in range(1, 21):
        assert max_antichain(n).size == max(math.comb(n + 1 - k, k) for k in range(n + 1)), n


def test_certificate_check_fires(monkeypatch):
    # a level pair's fill that takes back the link it gave string 0b1 when
    # 0b1 started free in the smaller level
    fill_pair = sperner._fill_pair

    def one_short(up, lower, upper, full):
        was_free = 0b1 in lower and 0b1 not in up and len(lower) <= len(upper)
        added = fill_pair(up, lower, upper, full)
        if was_free and up.pop(0b1, None) is not None:
            added -= 1
        return added

    monkeypatch.setattr(sperner, "_fill_pair", one_short)
    with pytest.raises(AssertionError, match="rank level 1 has 1 strings left free"):
        max_antichain(5)
    with pytest.raises(AssertionError, match="left free"):
        minimum_chain_cover(5)


def test_antichain_check_rejects_mixed_weights_and_duplicates():
    sperner._verify_antichain([0b00101, 0b01001, 0b10010])  # one level: accepted
    with pytest.raises(AssertionError):
        sperner._verify_antichain([0b00101, 0b00001])  # 00001 < 00101
    with pytest.raises(AssertionError):
        sperner._verify_antichain([0b01010, 0b00001])  # incomparable, but two weights
    with pytest.raises(AssertionError):
        sperner._verify_antichain([0b00101, 0b01001, 0b00101])


def test_oracle_agrees_with_matching():
    for n in range(1, 9):
        assert max_antichain_oracle(n) == max_antichain(n).size, n


def test_oracle_validation():
    with pytest.raises(ValueError, match=r"n must be in \[1, 10\], got 11$"):
        max_antichain_oracle(11)


def test_antichain_not_decreasing():
    # empirical observation over the computed range
    values = [max_antichain(n).size for n in range(1, 15)]
    assert values == sorted(values)


def test_projection_bounds():
    for n in range(2, 15):
        rep = projection_bound_check(n)
        assert rep.ok, n
        assert rep.antichain_size == ANTICHAIN_MAX[n]
        assert rep.fib_prev == fibonacci_count(n - 1)
        assert rep.antichain_size <= rep.fib_prev
        assert 3 * rep.fib_prev <= 2 * rep.fib_n
    # the ratio bound is tight at n = 2: f_1 = 2 equals (2/3) f_2
    rep2 = projection_bound_check(2)
    assert 3 * rep2.fib_prev == 2 * rep2.fib_n
    with pytest.raises(ValueError):
        projection_bound_check(1)
    with pytest.raises(ValueError):
        projection_bound_check(21)
