"""Materialized string families: the high-gamma construction, the
no-adjacent-ones family, greedy maximal extensions, and (de)serialization."""

from __future__ import annotations

import json

from .bitstring import (
    BitString,
    Family,
    LengthMismatchError,
    gamma,
    gamma_bits,
    influence_bits,
    skewincident_bits,
    submasks,
)

MAX_ENUMERATION_LENGTH = 24
MAX_DISJOINTNESS_LENGTH = 12


class NotPairwiseSkewincidentError(ValueError):
    """Input family violates pairwise skewincidence; carries the first bad pair."""

    def __init__(self, pair: tuple[BitString, BitString]):
        self.pair = pair
        super().__init__(f"family is not pairwise skewincident: ({pair[0]}, {pair[1]})")


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


def _gamma_sum_implication(x: int, y: int, gamma_sum: int, n: int) -> bool:
    """The disjointness argument on raw bits: gamma sum > 2n forces skewincidence."""
    return gamma_sum <= 2 * n or skewincident_bits(x, y)


def verify_disjointness_argument(x: BitString, y: BitString) -> bool:
    """Check on one pair: if gamma(x) + gamma(y) > 2n then x, y are skewincident.

    Vacuously true when the gamma sum does not exceed 2n.
    """
    if x.length != y.length:
        raise LengthMismatchError(
            f"incompatible operands: lengths {x.length} and {y.length}"
        )
    return _gamma_sum_implication(x.bits, y.bits, gamma(x) + gamma(y), x.length)


def disjointness_counterexample(n: int) -> tuple[BitString, BitString] | None:
    """The first pair x <= y of length-n strings (by value) that breaks the
    disjointness argument, or None when it holds on every pair.

    Only a pair that is not skewincident can break it, so for each x only
    the submasks y >= x of the complement of infl(x) are visited, in the
    order of the full pair scan.
    """
    if not 1 <= n <= MAX_DISJOINTNESS_LENGTH:
        raise ValueError(f"n must be in [1, {MAX_DISJOINTNESS_LENGTH}], got {n}")
    g = [gamma_bits(x, n) for x in range(1 << n)]
    full = (1 << n) - 1
    for x in range(1 << n):
        for y in submasks(full & ~influence_bits(x, n), x):
            if not _gamma_sum_implication(x, y, g[x] + g[y], n):
                return BitString(n, x), BitString(n, y)
    return None


def greedy_maximal_extension(family: Family) -> Family:
    """Grow a pairwise-skewincident family to a maximal one.

    Repeatedly adds the lexicographically smallest missing string that is
    skewincident with every current member; one ascending pass suffices
    because adding members never makes a previously rejected string viable.
    """
    violation = verify_pairwise_skewincident(family)
    if violation is not None:
        raise NotPairwiseSkewincidentError(violation)
    n = family.length
    _check_enumeration_length(n)
    members = set(family.masks)
    infl = [influence_bits(b, n) for b in family.masks]
    for cand in range(1 << n):
        if cand in members:
            continue
        if all(cand & f for f in infl):
            members.add(cand)
            infl.append(influence_bits(cand, n))
    return Family(n, tuple(sorted(members)))


def family_to_lines(family: Family) -> str:
    """Newline-delimited literals in lexicographic order, trailing newline."""
    n = family.length
    return "".join(f"{m:0{n}b}\n" for m in family.masks)


def family_from_lines(text: str, length: int | None = None) -> Family:
    """Inverse of family_to_lines; ``length`` is required for an empty text."""
    literals = [line for line in text.splitlines() if line.strip()]
    if not literals and length is None:
        raise ValueError("cannot infer length of an empty family")
    return Family.from_literals(literals, length)


def family_to_json(family: Family) -> str:
    """JSON array of literals in lexicographic order."""
    n = family.length
    return json.dumps([f"{m:0{n}b}" for m in family.masks])


def family_from_json(text: str, length: int | None = None) -> Family:
    """Inverse of family_to_json; ``length`` is required for an empty array."""
    literals = json.loads(text)
    if not isinstance(literals, list) or not all(isinstance(s, str) for s in literals):
        raise ValueError("expected a JSON array of binary literals")
    if not literals and length is None:
        raise ValueError("cannot infer length of an empty family")
    return Family.from_literals(literals, length)
