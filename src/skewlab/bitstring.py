"""Fixed-length binary strings and the elementary relations on them.

A string of length n (1 <= n <= 64) fits in one machine word. In the
literal form ("0110") the first character is position 1; internally
position i sits at bit (n - i), so the integer ``bits`` of two strings of
equal length compares exactly like their literals compare lexicographically.

The raw-integer kernels (``influence_bits`` and friends) are shared by the
counting and search modules, which iterate over millions of strings and
cannot afford object wrappers. For the same reason a ``Family`` is its
members' masks in one ascending tuple; a member becomes a ``BitString``
only when it is handed out.
"""

from __future__ import annotations

from collections.abc import Iterator

from .record import Record

MAX_LENGTH = 64


class LengthMismatchError(ValueError):
    """Raised when two strings of different lengths are combined."""


def influence_bits(bits: int, n: int) -> int:
    """Raw-integer influence: bit j is set iff ``bits`` has a set neighbor."""
    return ((bits << 1) | (bits >> 1)) & ((1 << n) - 1)


def gamma_bits(bits: int, n: int) -> int:
    """Raw-integer gamma: weight of the string plus weight of its influence."""
    return bits.bit_count() + influence_bits(bits, n).bit_count()


def skewincident_bits(x: int, y: int) -> bool:
    """Raw-integer skewincidence test for two equal-length strings."""
    return (((x >> 1) & y) | (x & (y >> 1))) != 0


def submasks(free: int, low: int = 0) -> Iterator[int]:
    """The submasks of ``free`` that are at least ``low``, ascending.

    The strings not skewincident with x are exactly the submasks of the
    complement of infl(x), so walking them replaces a scan over all pairs.
    A ``low`` with bits outside ``free`` starts after the largest submask
    that shares its bits above the highest such bit.
    """
    stray = low & ~free
    if stray:
        below = (1 << stray.bit_length()) - 1
        low = (((low | below) & free) - free) & free
        if not low:
            return
    y = low
    while True:
        yield y
        y = (y - free) & free  # the next submask above y; 0 after the last
        if not y:
            return


class BitString(Record):
    """An immutable binary word of fixed length."""

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int) -> None:
        if not 1 <= length <= MAX_LENGTH:
            raise ValueError(f"length must be in [1, {MAX_LENGTH}], got {length}")
        if not 0 <= bits < 1 << length:
            raise ValueError(f"bits 0b{bits:b} out of range for length {length}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, literal: str) -> BitString:
        """Parse a literal such as "0110"; the first character is position 1."""
        if not literal or literal.strip("01"):
            raise ValueError(f"not a binary literal: {literal!r}")
        return cls(len(literal), int(literal, 2))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")

    def get(self, position: int) -> int:
        """Bit value at a 1-based position."""
        if not 1 <= position <= self.length:
            raise ValueError(f"position {position} out of [1, {self.length}]")
        return self.bits >> (self.length - position) & 1


def weight(x: BitString) -> int:
    """Number of set positions."""
    return x.bits.bit_count()


def support(x: BitString) -> frozenset[int]:
    """Set of 1-based positions carrying a 1."""
    return frozenset(i for i in range(1, x.length + 1) if x.get(i))


def influence(x: BitString) -> BitString:
    """String with a 1 wherever ``x`` has a 1 in an adjacent position.

    Position j of the result is set iff position j-1 or j+1 of ``x`` is set;
    out-of-range neighbors count as 0.
    """
    return BitString(x.length, influence_bits(x.bits, x.length))


def gamma(x: BitString) -> int:
    """weight(x) + weight(influence(x)); ranges over [0, 2n]."""
    return gamma_bits(x.bits, x.length)


def skewincident(x: BitString, y: BitString) -> bool:
    """True iff some position i has x_i = y_{i+1} = 1 or x_{i+1} = y_i = 1.

    Symmetric in its arguments; always false for length-1 strings.
    """
    if x.length != y.length:
        raise LengthMismatchError(
            f"incompatible operands: lengths {x.length} and {y.length}"
        )
    return skewincident_bits(x.bits, y.bits)


class Family(Record):
    """A set of distinct binary strings of one common length, held as the
    ascending tuple of their masks."""

    __slots__ = ("length", "masks")

    def __init__(self, length: int, masks: tuple[int, ...]) -> None:
        if not 1 <= length <= MAX_LENGTH:
            raise ValueError(f"length must be in [1, {MAX_LENGTH}], got {length}")
        bounds = (-1,) + masks + (1 << length,)
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"masks must be strictly ascending in [0, 2^{length})")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_literals(cls, literals: list[str], length: int | None = None) -> Family:
        members = [BitString.from_string(s) for s in literals]
        if length is None:
            if not members:
                raise ValueError("cannot infer length of an empty family")
            length = members[0].length
        for m in members:
            if m.length != length:
                raise ValueError(f"member {m} has length {m.length}, family has {length}")
        return cls(length, tuple(sorted({m.bits for m in members})))

    def sorted_members(self) -> list[BitString]:
        """Members in lexicographic order."""
        return [BitString(self.length, m) for m in self.masks]

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, item: object) -> bool:
        return (isinstance(item, BitString) and item.length == self.length
                and item.bits in self.masks)

    def __iter__(self) -> Iterator[BitString]:
        return iter(self.sorted_members())
