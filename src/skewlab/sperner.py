"""Exact maximum antichains inside the no-adjacent-ones strings.

The poset is graded by weight: rank level k holds the strings with k set
bits, and x covers the strings that are x with one set bit cleared. The
levels are unimodal, and the primary route matches each pair of adjacent
levels along cover edges so that the smaller level of the pair is covered.
Following matched edges then glues the strings into as many chains as the
strings outnumber the links, which is the size of the peak (the largest
level, the lower weight on ties). An antichain meets every chain at most
once, so no antichain is larger; the peak itself is an antichain, so both
are optimal. Those link counts are the certificate, checked at every
length (Engel, *Sperner Theory*, 1997, on normalized matchings).

One sweep certifies every length up to n. The length-n strings are the
length-(n-1) ones and the length-(n-2) ones with the top bit 2^(n-1) set,
so the matchings of length n start as the union of those two lengths'
matchings, the second with the top bit set on both ends (one level up).
Only a pair of levels whose inherited links fall short of its smaller level
is extended, by ``_fill_pair``'s depth-first augmenting paths from its free
strings, which walk the bits of each string's cover neighbours, read off
its mask; the searches of a round share the strings they reach.

Strings stay the integer masks of ``fibonacci_masks`` throughout; only the
members of a returned witness become ``BitString``s.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import zip_longest

from .bitstring import BitString
from .counting import fibonacci_count
from .record import Record

MAX_POSET_LENGTH = 20


def _check_length(n: int) -> None:
    if not 1 <= n <= MAX_POSET_LENGTH:
        raise ValueError(f"n must be in [1, {MAX_POSET_LENGTH}], got {n}")


def _fill_pair(up: dict[int, int], lower: list[int], upper: list[int], full: int) -> int:
    """Augment the links ``up`` between two adjacent levels to a maximum
    matching from the free strings of the smaller level (the lower on ties);
    returns the number of links added. Neighbours set one more bit of
    ``full`` (upward) or clear a bit, the highest first: the top bit crosses
    to the other half of the strings, where the recursion leaves the free
    partners.

    The augmenting paths are searched depth-first, and the searches of one
    round share the strings they reach: a failed search's strings reach no
    free partner while the matching stays the same. A round retries the
    strings the last one left free, until one adds no link.
    """
    upward = len(lower) <= len(upper)
    matched = {up[a]: a for a in lower if a in up}  # upper string: its lower partner
    if upward:
        mate, free = matched, [a for a in lower if a not in up]
    else:
        mate, free = up, [b for b in upper if b not in matched]
    total = len(free)
    while True:
        seen: set[int] = set()
        left = []
        for s in free:
            # frames: a string on the path, the bits of its untried neighbours, the string it came by
            stack = [[s, full & ~(s | s << 1 | s >> 1) if upward else s, None]]
            while stack:
                frame = stack[-1]
                if not frame[1]:
                    stack.pop()
                    continue
                bit = 1 << frame[1].bit_length() - 1
                frame[1] ^= bit
                v = frame[0] ^ bit
                if v in seen:
                    continue
                seen.add(v)
                w = mate.get(v)
                if w is None:  # flip the path: each string reached takes the one before it
                    for (a, _, _), (_, _, b) in zip(stack, stack[1:] + [(None, None, v)]):
                        mate[b] = a
                        if upward:
                            up[a] = b
                    break
                stack.append([w, full & ~(w | w << 1 | w >> 1) if upward else w, v])
            else:
                left.append(s)
        if len(left) == len(free):
            break
        free = left
    return total - len(free)


def _next_length(n: int, older: tuple, newer: tuple) -> tuple:
    """``(levels, up, links)`` of length n from those of lengths n - 2 and
    n - 1: the weight-k strings ascending, each string's successor, and the
    link count of each pair of adjacent levels. Raises AssertionError unless
    each pair's links cover its smaller level and the strings outnumber all
    links by the largest level's size.
    """
    top = 1 << (n - 1)
    (levels2, up2, links2), (levels1, up1, links1) = older, newer
    levels = [low + [top | b for b in high]
              for low, high in zip_longest(levels1, [[]] + levels2, fillvalue=[])]
    links = [a + b for a, b in zip_longest(links1, [0] + links2, fillvalue=0)]
    up = dict(up1)
    up.update({top | a: top | b for a, b in up2.items()})
    for k, count in enumerate(links):
        lower, upper = levels[k], levels[k + 1]
        need = min(len(lower), len(upper))
        if count < need:
            count = links[k] = count + _fill_pair(up, lower, upper, 2 * top - 1)
        if count < need:
            small = k if len(lower) <= len(upper) else k + 1
            raise AssertionError(
                f"rank level {small} has {need - count} strings left free"
                f" by its matching with level {2 * k + 1 - small}"
            )
    if sum(map(len, levels)) - len(up) != max(map(len, levels)):
        raise AssertionError(f"the links of length {n} leave more chains than the largest level")
    return levels, up, links


def antichain_sweep(max_n: int) -> Iterator[tuple[int, list[int], dict[int, int]]]:
    """Yield ``(n, peak, up)`` for n = 1..max_n, each certified by
    ``_next_length`` before it is yielded: ``peak`` is the largest rank level
    (ascending masks; the lower weight on ties), and ``up`` maps each string
    to its successor in a chain partition with one chain through every
    string of ``peak``. Only the two latest lengths are held.
    """
    _check_length(max_n)
    older = newer = ([[0]], {}, [])  # the empty string stands for lengths -1 and 0
    for n in range(1, max_n + 1):
        older, newer = newer, _next_length(n, older, newer)
        levels, up, _ = newer
        yield n, max(levels, key=len), up


def antichain_sizes(lo: int, hi: int) -> list[int]:
    """The certified maxima m_n for n = lo..hi, read off one sweep; [] when
    lo > hi. Either end outside [1, MAX_POSET_LENGTH] raises ValueError."""
    if lo > hi:
        return []
    _check_length(lo)
    return [len(level) for n, level, _ in antichain_sweep(hi) if n >= lo]


class AntichainResult(Record):
    """Maximum antichain size and a verified witness."""

    __slots__ = ("n", "size", "witness")


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
    level matchings of every length up to n: each must cover the smaller of
    its two levels, so that the glued chains are as many as the level's
    strings and bound every antichain; anything else raises. The witness is
    also re-checked to be distinct strings of one weight before it is
    returned.
    """
    _, level, _ = deque(antichain_sweep(n), maxlen=1).pop()
    _verify_antichain(level)
    return AntichainResult(n, len(level), tuple(BitString(n, b) for b in level))


class ProjectionReport(Record):
    """Bound checks tying the antichain maximum to the shorter length:
    ``antichain_fits_prev`` is m_n <= f_{n-1} and ``ratio_bound_holds`` is
    3 f_{n-1} <= 2 f_n, both in exact integers."""

    __slots__ = ("n", "antichain_size", "fib_prev", "fib_n", "antichain_fits_prev",
                 "ratio_bound_holds", "projections_distinct", "projections_valid")

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
