"""Second routes and certificates that the tests hold the package against.

Each answers, by a simpler method, a question that a ``skewlab`` engine
answers: dense relation rows complemented into the unrelated graph, and a
subset scan, for the clique engine, a clique of the
incomparability relation for the antichain maximum, the chain partition
behind the Sperner certificate, a greedy maximal extension of a pairwise
skewincident family, the disjointness argument one pair at a time, and the
SplitMix64 stream one draw at a time.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Sequence

from skewlab.bitstring import (
    BitString,
    Family,
    LengthMismatchError,
    gamma,
    influence_bits,
    skewincident_bits,
)
from skewlab.constructions import (
    _check_enumeration_length,
    fibonacci_masks,
    verify_pairwise_skewincident,
)
from skewlab.record import Record
from skewlab.solver import MAX_ELEMENTS, ExtremalResult, _bits, _timed_family, _union
from skewlab.sperner import antichain_sweep

ORACLE_MAX_LENGTH = 10

_MASK64 = (1 << 64) - 1


class CliqueInstance(Record):
    """A symmetric relation over element indices, as bitset adjacency rows.

    Symmetry (bit j of rows[i] iff bit i of rows[j]) is a precondition that
    is not checked here; ``max_clique`` checks it on every unrelated pair as
    it builds the complement and raises ValueError when it fails.
    """

    __slots__ = ("count", "rows")

    def __init__(self, count: int, rows: tuple[int, ...]) -> None:
        if not 1 <= count <= MAX_ELEMENTS:
            raise ValueError(f"element count must be in [1, {MAX_ELEMENTS}], got {count}")
        if len(rows) != count:
            raise ValueError("rows length must equal element count")
        for i, row in enumerate(rows):
            if row >> count or row >> i & 1:
                raise ValueError(f"row {i} holds itself or an index outside [0, {count})")
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_neighborhoods(cls, nbrs: Sequence[int], codes: Sequence[int]) -> CliqueInstance:
        """Relate distinct elements a and b iff codes[b] meets the union of
        nbrs[v] over the vertices v of codes[a].

        nbrs[v] is the neighborhood bitset of vertex v in an undirected
        graph, which makes the relation symmetric. Rows are ORs of
        per-vertex element sets: O(elements x vertices) big-int operations
        instead of one predicate call per pair.
        """
        holders = [0] * len(nbrs)  # holders[w]: the elements whose code holds w
        for e, code in enumerate(codes):
            for w in _bits(code):
                holders[w] |= 1 << e
        reach = [_union(holders[w] for w in _bits(nb)) for nb in nbrs]
        rows = [_union(reach[v] for v in _bits(code)) & ~(1 << e) for e, code in enumerate(codes)]
        return cls(len(codes), tuple(rows))


def complement_graph(instance: CliqueInstance) -> tuple[list[int], list[int], list[bool]]:
    """The unrelated graph H of the rows, in the engine's labels: descending
    relation degree, ties by index, every element kept. Each element's
    unrelated elements are read off its complemented row; one of them
    relating back to it means the rows are not symmetric, which raises
    ValueError."""
    count, rows = instance.count, instance.rows
    order = sorted(range(count), key=lambda v: (-rows[v].bit_count(), v))
    pos = sorted(range(count), key=order.__getitem__)  # the inverse permutation
    full = (1 << count) - 1
    unrelated_rows = []
    for v in order:
        unrelated = list(_bits(full & ~(rows[v] | 1 << v)))
        if any(rows[w] >> v & 1 for w in unrelated):
            raise ValueError(f"relation is not symmetric: row {v} misses an element relating to it")
        unrelated_rows.append(_union(1 << pos[w] for w in unrelated))
    return pos, unrelated_rows, [True] * count


def max_clique(instance: CliqueInstance) -> ExtremalResult:
    """Exact maximum set of pairwise-related elements, the lexicographically
    first one, found by the package's engine in the complement of the rows:
    the second route for the mapping families, whose H the package reads
    off per-position products instead."""
    return _timed_family(complement_graph, instance)


def instance_from_relation(count: int, relation: Callable[[int, int], bool]) -> CliqueInstance:
    """Build from a symmetric predicate; relation(i, i) is never consulted."""
    if not 1 <= count <= MAX_ELEMENTS:
        raise ValueError(f"element count must be in [1, {MAX_ELEMENTS}], got {count}")
    rows = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if relation(i, j):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return CliqueInstance(count, tuple(rows))


def enumerate_max_clique(instance: CliqueInstance) -> ExtremalResult:
    """Scan all 2^count subsets with an incremental is-clique table. Usable
    up to 20 elements; witness is the optimum with the smallest subset
    bitmask."""
    if instance.count > 20:
        raise ValueError(f"enumeration is capped at 20 elements, got {instance.count}")
    t0 = time.perf_counter()
    rows, count = instance.rows, instance.count
    is_clique = bytearray(1 << count)
    is_clique[0] = 1
    best_size = 0
    best_mask = 0
    for s in range(1, 1 << count):
        low = s & -s
        rest = s ^ low
        if is_clique[rest] and rows[low.bit_length() - 1] & rest == rest:
            is_clique[s] = 1
            pc = s.bit_count()
            if pc > best_size:
                best_size = pc
                best_mask = s
    witness = [i for i in range(count) if best_mask >> i & 1]
    elapsed = (time.perf_counter() - t0) * 1000.0
    return ExtremalResult(best_size, witness, elapsed)


def max_antichain_oracle(n: int) -> int:
    """Maximum clique of the incomparability relation on the length-n
    no-adjacent-ones strings."""
    if not 1 <= n <= ORACLE_MAX_LENGTH:
        raise ValueError(f"n must be in [1, {ORACLE_MAX_LENGTH}], got {n}")
    bits = fibonacci_masks(n)

    def incomparable(i: int, j: int) -> bool:
        a, b = bits[i], bits[j]
        return a & ~b != 0 and b & ~a != 0

    return max_clique(instance_from_relation(len(bits), incomparable)).size


def minimum_chain_cover(n: int) -> list[list[BitString]]:
    """Partition of the length-n poset into the fewest chains, each listed in
    ascending dominance order: the certified level matchings glued into one
    chain through each string of the largest level, so their number equals
    the maximum antichain."""
    _, _, up = deque(antichain_sweep(n), maxlen=1).pop()
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


class NotPairwiseSkewincidentError(ValueError):
    """Input family violates pairwise skewincidence; carries the first bad pair."""

    def __init__(self, pair: tuple[BitString, BitString]):
        self.pair = pair
        super().__init__(f"family is not pairwise skewincident: ({pair[0]}, {pair[1]})")


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


def verify_disjointness_argument(x: BitString, y: BitString) -> bool:
    """Check on one pair: if gamma(x) + gamma(y) > 2n then x, y are skewincident.

    Vacuously true when the gamma sum does not exceed 2n.
    """
    if x.length != y.length:
        raise LengthMismatchError(
            f"incompatible operands: lengths {x.length} and {y.length}"
        )
    return gamma(x) + gamma(y) <= 2 * x.length or skewincident_bits(x.bits, y.bits)


class SplitMix64:
    """SplitMix64 generator: 64-bit state, fixed odd increment, avalanche mix.

    Deterministic for a given seed in [0, 2^64), the same seeds that
    ``monte_carlo_tail`` accepts. The step is

        state += 0x9E3779B97F4A7C15
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    with all arithmetic modulo 2^64.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        # a seed is the 64-bit state; reducing it would give two seeds one stream
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        self._state = seed

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)
