"""Materialized string families: the high-gamma construction, the
no-adjacent-ones family and their checks."""

from __future__ import annotations

from .bitstring import BitString, Family, gamma_bits, influence_bits, skewincident_bits, submasks

MAX_ENUMERATION_LENGTH = 24
MAX_DISJOINTNESS_LENGTH = 12


def _check_enumeration_length(n: int) -> None:
    if not 1 <= n <= MAX_ENUMERATION_LENGTH:
        raise ValueError(f"n must be in [1, {MAX_ENUMERATION_LENGTH}], got {n}")


def enumerate_C(n: int) -> Family:
    """All length-n strings whose gamma exceeds n.

    Any two distinct members are skewincident: each contributes more than n
    to the combined weight of supports and influences, which forces the
    support of one to meet the influence of the other.
    """
    _check_enumeration_length(n)
    return Family(n, tuple(x for x in range(1 << n) if gamma_bits(x, n) > n))


def fibonacci_masks(n: int) -> list[int]:
    """The length-n masks with no two adjacent 1s, ascending.

    By the Fibonacci recursion: the masks of length k are those of length
    k-1 followed by 2^(k-1) plus each mask of length k-2, so f_n masks are
    built without scanning all 2^n and come out already in order.
    """
    shorter, masks = [0], [0, 1]
    for k in range(2, n + 1):
        top = 1 << k - 1
        shorter, masks = masks, masks + [top | m for m in shorter]
    return masks


def enumerate_fibonacci(n: int) -> Family:
    """All length-n strings with no two adjacent 1s."""
    _check_enumeration_length(n)
    return Family(n, tuple(fibonacci_masks(n)))


def verify_pairwise_skewincident(
    family: Family,
) -> tuple[BitString, BitString] | None:
    """None if every pair of distinct members is skewincident, else the
    lexicographically first violating pair.

    Self-pairs are not required to be skewincident; empty and singleton
    families pass vacuously. A later member y breaks the pair with x iff y
    is a submask of ``free``, the complement of infl(x). So the submasks of
    ``free`` are walked in ascending order against the member set, unless
    there are more of them than later members, which are then scanned: a
    family of high-gamma strings, with few free bits each, costs about
    linear time instead of one test per pair.
    """
    n, masks = family.length, family.masks
    members = set(masks)
    full = (1 << n) - 1
    for i, x in enumerate(masks):
        free = full & ~influence_bits(x, n)
        if 1 << free.bit_count() <= len(masks) - i - 1:
            for y in submasks(free, x + 1):
                if y in members:
                    return BitString(n, x), BitString(n, y)
        else:
            for y in masks[i + 1:]:
                if y & free == y:
                    return BitString(n, x), BitString(n, y)
    return None


def disjointness_counterexample(n: int) -> tuple[BitString, BitString] | None:
    """The first pair x <= y of length-n strings (by value) that breaks the
    disjointness argument, that a gamma sum above 2n forces skewincidence,
    or None when it holds on every pair.

    Only a pair that is not skewincident can break it, so for each x only
    the submasks y >= x of the complement of infl(x), the strings not
    skewincident with x, are visited, in the order of the full pair scan.
    """
    if not 1 <= n <= MAX_DISJOINTNESS_LENGTH:
        raise ValueError(f"n must be in [1, {MAX_DISJOINTNESS_LENGTH}], got {n}")
    g = [gamma_bits(x, n) for x in range(1 << n)]
    full = (1 << n) - 1
    for x in range(1 << n):
        for y in submasks(full & ~influence_bits(x, n), x):
            if g[x] + g[y] > 2 * n and not skewincident_bits(x, y):
                return BitString(n, x), BitString(n, y)
    return None

