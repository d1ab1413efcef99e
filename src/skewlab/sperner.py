"""Exact maximum antichains inside the no-adjacent-ones strings.

The primary route is one maximum bipartite matching over cover edges: x is
joined to each string that x covers, that is x with one set bit cleared.
Following matched edges glues the strings into (number of strings) -
(matching size) chains that partition the poset, each step adding one bit.
An antichain meets every chain at most once, so no antichain is larger than
that count; the largest rank level (strings of one weight) is an antichain,
and when its size equals the chain count, both are optimal. That equality is
the certificate, checked on every call. An independent oracle solves the
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


def _cover_matching(bits: list[int]) -> tuple[list[int], list[int]]:
    """Maximum matching over cover edges: left copy u connects to right copy
    v iff bits[v] is bits[u] with one set bit cleared, adjacency listed by
    the cleared bit, low first; returns (match_of_left, match_of_right)."""
    index = {b: i for i, b in enumerate(bits)}
    return hopcroft_karp(
        [[index[b & ~(1 << j)] for j in range(b.bit_length()) if b >> j & 1] for b in bits]
    )


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

    Size is the number of chains glued from the cover-edge matching. The
    witness is the largest rank level, the lowest weight when levels tie,
    in lexicographic order. The chains bound every antichain from above and
    the level is an antichain, so a level as large as the chain count
    certifies both as optimal; anything else raises. The witness is also
    re-checked to be distinct strings of one weight before it is returned.
    """
    bits = _checked_masks(n, MAX_POSET_LENGTH)
    _, match_right = _cover_matching(bits)
    size = match_right.count(-1)  # one chain per string no larger one is matched to
    levels: list[list[int]] = [[] for _ in range(n + 1)]
    for b in bits:
        levels[b.bit_count()].append(b)
    level = max(levels, key=len)
    if len(level) != size:
        raise AssertionError(
            f"{size} chains but the largest rank level has {len(level)} elements"
        )
    _verify_antichain(level)
    return AntichainResult(n, size, tuple(BitString(n, b) for b in level))


def minimum_chain_cover(n: int) -> list[list[BitString]]:
    """Partition of the length-n poset into the fewest chains, each listed in
    ascending dominance order; their number equals the maximum antichain."""
    bits = _checked_masks(n, MAX_POSET_LENGTH)
    match_left, match_right = _cover_matching(bits)
    chains = []
    for start in range(len(bits)):
        if match_right[start] != -1:
            continue  # not a chain top: something dominates it within its chain
        chain = []
        u = start
        while u != -1:
            chain.append(BitString(n, bits[u]))
            u = match_left[u]
        chain.reverse()
        chains.append(chain)
    chains.sort(key=lambda c: c[0].bits)
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
