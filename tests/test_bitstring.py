"""String primitives: literal handling, the relations, and their invariants."""

import random

import pytest

from skewlab.bitstring import (
    BitString,
    Family,
    LengthMismatchError,
    gamma,
    gamma_bits,
    influence,
    influence_bits,
    skewincident,
    skewincident_bits,
    submasks,
    support,
    weight,
)

B = BitString.from_string


def influence_by_scan(x: BitString) -> BitString:
    """Definitional oracle: position j is set iff a neighbor of j is set."""
    out = 0
    for j in range(1, x.length + 1):
        left = j > 1 and x.get(j - 1) == 1
        right = j < x.length and x.get(j + 1) == 1
        if left or right:
            out |= 1 << (x.length - j)
    return BitString(x.length, out)


def skewincident_by_scan(x: BitString, y: BitString) -> bool:
    """Definitional oracle: scan positions for a shared 1 in adjacent slots."""
    return any(
        (x.get(i) == 1 and y.get(i + 1) == 1) or (x.get(i + 1) == 1 and y.get(i) == 1)
        for i in range(1, x.length)
    )


def test_literal_round_trip():
    for lit in ("0", "1", "0110", "1" * 64, "0" * 64, "10" * 16):
        assert str(B(lit)) == lit


def test_literal_positions():
    x = B("110")
    assert (x.get(1), x.get(2), x.get(3)) == (1, 1, 0)
    for position in (0, 4):
        with pytest.raises(ValueError, match=rf"position {position} out of \[1, 3\]"):
            x.get(position)


def test_bad_literals():
    for lit in ("", "012", "abc", "1 0"):
        with pytest.raises(ValueError):
            B(lit)


def test_length_and_bits_validation():
    with pytest.raises(ValueError):
        BitString(0, 0)
    with pytest.raises(ValueError):
        BitString(65, 0)
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(ValueError):
        BitString(3, -1)


def test_weight_examples():
    assert weight(B("000")) == 0
    assert weight(B("111")) == 3
    assert weight(B("0101")) == 2


def test_support():
    assert support(B("0101")) == {2, 4}
    assert support(B("000")) == frozenset()
    assert len(support(B("1" * 10))) == weight(B("1" * 10))


def test_influence_examples():
    assert str(influence(B("010"))) == "101"
    assert str(influence(B("000"))) == "000"
    assert str(influence(B("100"))) == "010"


def test_influence_matches_scan_oracle():
    for n in range(1, 11):
        for bits in range(1 << n):
            x = BitString(n, bits)
            assert influence(x) == influence_by_scan(x), str(x)


def test_gamma_examples():
    assert gamma(B("000")) == 0
    assert gamma(B("111")) == 6
    assert gamma(B("110")) == 5


def test_gamma_range():
    for bits in range(1 << 6):
        assert 0 <= gamma(BitString(6, bits)) <= 12


def test_skewincident_examples():
    assert skewincident(B("10"), B("01")) is True
    assert skewincident(B("10"), B("10")) is False
    assert skewincident(B("11"), B("11")) is True
    assert skewincident(B("1"), B("1")) is False  # length 1: never


def test_skewincident_matches_scan_oracle():
    for n in range(1, 7):
        for xb in range(1 << n):
            for yb in range(1 << n):
                x, y = BitString(n, xb), BitString(n, yb)
                assert skewincident(x, y) == skewincident_by_scan(x, y)


def test_length_mismatch_errors():
    with pytest.raises(LengthMismatchError, match="incompatible operands: lengths 2 and 3"):
        skewincident(B("10"), B("100"))


def test_characterization_and_symmetry_exhaustive():
    """For every pair up to n = 12: skewincidence holds iff the support of
    either string meets the influence of the other, the relation is
    symmetric, and a gamma sum above 2n forces the relation."""
    for n in range(1, 13):
        size = 1 << n
        infl = [influence_bits(x, n) for x in range(size)]
        g = [x.bit_count() + infl[x].bit_count() for x in range(size)]
        two_n = 2 * n
        for x in range(size):
            fx = infl[x]
            for y in range(x, size):
                s = skewincident_bits(x, y)
                assert s == (x & infl[y] != 0)
                assert s == (y & fx != 0)
                if g[x] + g[y] > two_n:
                    assert s, (n, x, y)


def test_characterization_random_full_width():
    rng = random.Random(20260808)
    n = 64
    for _ in range(1_000_000):
        x = rng.getrandbits(n)
        y = rng.getrandbits(n)
        s = skewincident_bits(x, y)
        assert s == (x & influence_bits(y, n) != 0)
        assert s == (y & influence_bits(x, n) != 0)
        assert s == skewincident_bits(y, x)


def reverse(x: BitString) -> BitString:
    """The string with its positions read right to left."""
    return B(str(x)[::-1])


def test_reversal_invariance():
    for n in range(1, 9):
        for xb in range(1 << n):
            x = BitString(n, xb)
            assert gamma(reverse(x)) == gamma(x)
    rng = random.Random(7)
    for _ in range(2000):
        x = BitString(64, rng.getrandbits(64))
        y = BitString(64, rng.getrandbits(64))
        assert gamma(reverse(x)) == gamma(x)
        assert skewincident(reverse(x), reverse(y)) == skewincident(x, y)


def test_one_bit_flip_sensitivity():
    """A single flip moves gamma by at most 3; from n = 3 on the bound is
    attained (000 -> 010 moves it from 0 to 3). At n = 2 the maximum is 2."""
    for n in range(2, 13):
        top = 0
        for xb in range(1 << n):
            gx = gamma_bits(xb, n)
            for i in range(n):
                d = abs(gamma_bits(xb ^ (1 << i), n) - gx)
                if d > top:
                    top = d
        assert top <= 3
        assert top == (3 if n >= 3 else 2), n


def test_family_validation():
    fam = Family(2, (0b01, 0b10))
    assert len(fam) == 2
    assert B("01") in fam
    assert B("11") not in fam and B("001") not in fam and 0b01 not in fam
    assert [str(m) for m in fam] == ["01", "10"]
    assert fam.sorted_members() == [B("01"), B("10")]
    with pytest.raises(ValueError):
        Family(1, (0b01, 0b10))  # 0b10 does not fit in one position
    with pytest.raises(ValueError):
        Family(0, ())


def test_family_masks_must_be_strictly_ascending():
    assert Family(3, ()).masks == ()
    assert Family(3, (0, 7)).masks == (0, 7)
    for masks in ((0b10, 0b01), (0b01, 0b01), (-1, 0b01), (-1,), (8,)):
        with pytest.raises(ValueError, match="strictly ascending"):
            Family(3, masks)


def test_family_from_literals():
    fam = Family.from_literals(["10", "01", "01"])
    assert len(fam) == 2 and fam.length == 2
    with pytest.raises(ValueError):
        Family.from_literals([])
    assert len(Family.from_literals([], length=4)) == 0
    assert Family.from_literals(["11", "00", "10"]).masks == (0b00, 0b10, 0b11)
    with pytest.raises(ValueError, match="member 011 has length 3, family has 2"):
        Family.from_literals(["10", "011"])
    with pytest.raises(ValueError, match="member 10 has length 2, family has 3"):
        Family.from_literals(["10"], length=3)


def test_submasks_ascend_from_low():
    """Every submask of ``free`` at least ``low``, ascending, including for
    a ``low`` with bits outside ``free`` or above every submask."""
    for free in range(64):
        subs = [y for y in range(64) if y & ~free == 0]
        for low in range(70):
            assert list(submasks(free, low)) == [y for y in subs if y >= low], (free, low)
    assert list(submasks(0)) == [0]


def test_submasks_are_the_non_skewincident_strings():
    for n in range(1, 8):
        full = (1 << n) - 1
        for x in range(1 << n):
            expected = [y for y in range(1 << n) if not skewincident_bits(x, y)]
            assert list(submasks(full & ~influence_bits(x, n))) == expected, (n, x)
