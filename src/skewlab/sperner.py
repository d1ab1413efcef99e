"""Exact maximum antichains inside the no-adjacent-ones strings.

The poset is graded by weight: rank level k holds the strings with k set
bits, and x covers the strings that are x with one set bit cleared. The
primary route matches each pair of adjacent levels along cover edges,
upward below the peak (the largest level, the lower weight on ties) and
downward from the peak on. When every such matching saturates the level it
starts from, following matched edges glues the strings into chains that
each pass through exactly one peak string, so there are as many chains as
the peak has strings. An antichain meets every chain at most once, so no
antichain is larger; the peak itself is an antichain, so both are optimal.
That saturation is the certificate, checked on every call (Engel, *Sperner
Theory*, 1997, on normalized matchings). An independent oracle solves the
same question as a maximum clique of the incomparability relation.

Strings stay the integer masks of ``fibonacci_masks`` throughout; only the
returned witnesses and chains become ``BitString``s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitstring import BitString
from .constructions import fibonacci_masks
from .counting import fibonacci_count
from .solver import CliqueInstance, hopcroft_karp, max_clique

MAX_POSET_LENGTH = 20
ORACLE_MAX_LENGTH = 10


def _checked_masks(n: int, cap: int) -> list[int]:
    if not 1 <= n <= cap:
        raise ValueError(f"n must be in [1, {cap}], got {n}")
    return fibonacci_masks(n)


def _chain_links(n: int) -> tuple[list[int], dict[int, int]]:
    """The largest rank level of the length-n poset (ascending masks; the
    lowest weight on ties), and each string's successor in a chain partition
    with one chain through every string of that level.

    The links are one maximum matching along cover edges per pair of
    adjacent levels: upward from the lower level below the peak, downward
    from the upper level from the peak on. Raises AssertionError unless
    each matching saturates the level it starts from.
    """
    levels: list[list[int]] = [[] for _ in range((n + 1) // 2 + 1)]
    for b in _checked_masks(n, MAX_POSET_LENGTH):
        levels[b.bit_count()].append(b)
    index = {b: i for level in levels for i, b in enumerate(level)}
    peak = max(range(len(levels)), key=lambda k: len(levels[k]))
    full = (1 << n) - 1
    up: dict[int, int] = {}
    for k in range(len(levels) - 1):
        upward = k < peak
        left, right = (levels[k], levels[k + 1]) if upward else (levels[k + 1], levels[k])
        adj = []  # adj[i]: positions in ``right`` of the strings one bit from left[i]
        for b in left:
            covers = []
            rest = full & ~(b | b << 1 | b >> 1) if upward else b  # bits to set or clear
            while rest:
                low = rest & -rest
                covers.append(index[b ^ low])
                rest ^= low
            adj.append(covers)
        # edgeless left vertices up to the size of ``right``: one index range for both sides
        match = hopcroft_karp(adj + [[]] * (len(right) - len(left)))[0][:len(left)]
        if -1 in match:
            raise AssertionError(
                f"rank level {k if upward else k + 1} has {match.count(-1)} strings"
                f" left free by its matching with level {k + 1 if upward else k}"
            )
        matched = map(right.__getitem__, match)
        up.update(zip(left, matched) if upward else zip(matched, left))
    return levels[peak], up


@dataclass(frozen=True)
class AntichainResult:
    """Maximum antichain size and a verified witness."""

    n: int
    size: int
    witness: tuple[BitString, ...]


def _verify_antichain(bits: list[int]) -> None:
    """Raise unless the members are distinct and share one weight. That makes
    them pairwise incomparable, since a strict submask has fewer set bits."""
    if len(set(bits)) != len(bits) or len({b.bit_count() for b in bits}) > 1:
        raise AssertionError("witness is not a set of distinct strings of one weight")


def max_antichain(n: int) -> AntichainResult:
    """Exact maximum antichain of the dominance order on the length-n
    no-adjacent-ones strings.

    The witness and size are the largest rank level, the lowest weight when
    levels tie, in lexicographic order. Its optimality is certified by the
    level matchings: each must saturate the level it starts from, so that
    the glued chains are as many as the level's strings and bound every
    antichain; anything else raises. The witness is also re-checked to be
    distinct strings of one weight before it is returned.
    """
    level, _ = _chain_links(n)
    _verify_antichain(level)
    return AntichainResult(n, len(level), tuple(BitString(n, b) for b in level))


def minimum_chain_cover(n: int) -> list[list[BitString]]:
    """Partition of the length-n poset into the fewest chains, each listed in
    ascending dominance order: the certified level matchings glued into one
    chain through each string of the largest level, so their number equals
    the maximum antichain."""
    _, up = _chain_links(n)
    reached = set(up.values())
    chains = []
    for b in fibonacci_masks(n):
        if b in reached:
            continue  # not a chain bottom: its chain reaches it from below
        chain = [b]
        while chain[-1] in up:
            chain.append(up[chain[-1]])
        chains.append([BitString(n, x) for x in chain])
    return chains


def max_antichain_oracle(n: int) -> int:
    """Independent route: maximum clique of the incomparability relation."""
    bits = _checked_masks(n, ORACLE_MAX_LENGTH)

    def incomparable(i: int, j: int) -> bool:
        a, b = bits[i], bits[j]
        return a & ~b != 0 and b & ~a != 0

    return max_clique(CliqueInstance.from_relation(len(bits), incomparable)).size


@dataclass(frozen=True)
class ProjectionReport:
    """Bound checks tying the antichain maximum to the shorter length."""

    n: int
    antichain_size: int
    fib_prev: int
    fib_n: int
    antichain_fits_prev: bool       # m_n <= f_{n-1}
    ratio_bound_holds: bool         # 3 f_{n-1} <= 2 f_n, exact integers
    projections_distinct: bool
    projections_valid: bool

    @property
    def ok(self) -> bool:
        return (
            self.antichain_fits_prev
            and self.ratio_bound_holds
            and self.projections_distinct
            and self.projections_valid
        )


def projection_bound_check(n: int) -> ProjectionReport:
    """Check m_n <= f_{n-1} <= (2/3) f_n and the mechanism behind the first
    bound: dropping the last coordinate of a maximum antichain leaves
    distinct strings that still avoid adjacent 1s."""
    if not 2 <= n <= MAX_POSET_LENGTH:
        raise ValueError(f"n must be in [2, {MAX_POSET_LENGTH}], got {n}")
    result = max_antichain(n)
    f_prev = fibonacci_count(n - 1)
    f_n = fibonacci_count(n)
    projections = [w.bits >> 1 for w in result.witness]
    return ProjectionReport(
        n=n,
        antichain_size=result.size,
        fib_prev=f_prev,
        fib_n=f_n,
        antichain_fits_prev=result.size <= f_prev,
        ratio_bound_holds=3 * f_prev <= 2 * f_n,
        projections_distinct=len(set(projections)) == len(projections),
        projections_valid=all(p & (p >> 1) == 0 for p in projections),
    )
