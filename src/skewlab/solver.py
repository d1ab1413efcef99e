"""Exact maximum-clique engine and the extremal quantities built on it.

Every extremal question here is a maximum clique over one relation: each
element has a code (a vertex set of some graph), and two distinct elements
are related when one's code meets the neighborhood of the other's. Only the
graph and the codes differ: the path P_n with every subset as a code gives
pairwise-skewincident strings; g with every subset gives pairwise-neighbor
subset families; the product F x G with one-hot (position, value) codes
gives pairwise-attractive mappings. Self-relation never matters: families
are constrained on distinct pairs.

There is one engine, ``_family``, and it works in the relation's
complement, the unrelated graph H, held as one bit row per element. One
builder, ``_unrelated_mappings``, feeds it: a mapping's H-neighbours are
the product, over positions, of the values that no value at a related
position is adjacent to, and subset families are mappings into the skew
alphabet. The size search leaves out every mapping that raising one value
replaces without loss. The size comes from the vertex-cover LP of H (a
maximum matching on H's bipartite double cover, whose last round gives the
Koenig cover, then an exact search of the Nemhauser-Trotter kernel);
greedy cliques of H cover every element and bound any family by their
number; and the lexicographically first witness is decided step by step by
counting live classes, repairing a carried optimum, or else an iterative
branch-and-bound search. Every search reads H's own rows, and one greedy
H-clique cover, ``_clique_cover``, gives both the root classes and the
search's colour bound. One augmenting-path matcher, ``max_matching``,
serves both this and the Sperner sweep's level matchings.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from collections.abc import Callable, Iterable, Iterator, Sequence

from .bitstring import BitString
from .graphs import Graph, Partition, as_partition, path, skew_alphabet
from .record import Record

MAX_ELEMENTS = 4096
# H holds one 2^n-bit row per vertex subset: 2 MB of rows at 12 vertices
MAX_SUBSET_VERTICES = 12
EXACT_M_DEFAULT_CAP = 8


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, as an ascending list, walked from
    the top: clearing the top bit shrinks the mask and needs no full-width negation."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _union(bitsets: Iterable[int]) -> int:
    return functools.reduce(operator.or_, bitsets, 0)


class ExtremalResult(Record):
    """Size and witness of an exact extremal computation by the
    branch-and-bound engine."""

    __slots__ = ("size", "witness", "elapsed_ms")


def _greedy_clique(rows: Sequence[int], cand: int, need: int) -> int:
    """A family inside candidate set ``cand``, no two members adjacent in H,
    grown by repeatedly taking the lowest candidate left until it has
    ``need`` members or none is left; a mask."""
    family = have = 0
    while have < need and cand:
        low = cand & -cand
        family |= low
        have += 1
        cand &= ~(rows[low.bit_length() - 1] | low)
    return family


def _search(rows: Sequence[int], p: int, floor: int, stop: int) -> list[int] | None:
    """The largest family inside candidate set ``p``, no two members adjacent
    in H, with more than ``floor`` members, or None; returns as soon as a
    family reaches ``stop`` members.

    Frames are [candidates, their ``_clique_cover``]. A frame branches on the
    highest vertex of its last class, removed from its candidates first, and
    ends when the family plus the number of classes left cannot beat the
    floor; every family that does beat it raises the floor."""
    best = None
    family: list[int] = []
    stack = [[p, _clique_cover(rows, p)]]
    while stack:
        frame = stack[-1]
        p, classes = frame
        if len(family) + len(classes) <= floor:
            stack.pop()
            if stack:
                family.pop()
            continue
        v = classes[-1].bit_length() - 1
        classes[-1] ^= 1 << v
        if not classes[-1]:
            classes.pop()
        frame[0] = p = p ^ 1 << v
        family.append(v)
        if len(family) > floor:
            best, floor = family.copy(), len(family)
            if floor >= stop:
                return best
        sub = p & ~rows[v]
        if sub:
            stack.append([sub, _clique_cover(rows, sub)])
        else:
            family.pop()
    return best


def augment(start: int, neighbours: Callable[[int, set[int]], Iterable[int]],
            mate: dict[int, int], seen: set[int]) -> bool:
    """Extend a bipartite matching along an augmenting path from the free
    left vertex ``start``, searched depth-first in ``neighbours`` order;
    ``mate`` maps each matched right vertex to its left partner and is
    rewritten along the path. False if no path avoids ``seen``, which
    gathers the right vertices reached; ``neighbours(u, seen)`` may skip it."""
    stack = [(start, iter(neighbours(start, seen)), None)]
    while stack:  # frames: a left vertex on the path, its untried edges, the right vertex it came by
        for v in stack[-1][1]:
            if v not in seen:
                seen.add(v)
                w = mate.get(v)
                if w is None:  # flip the path: each right vertex takes the left vertex before it
                    for (a, _, _), (_, _, b) in zip(stack, stack[1:] + [(None, None, v)]):
                        mate[b] = a
                    return True
                stack.append((w, iter(neighbours(w, seen)), v))
                break
        else:
            stack.pop()
    return False


def max_matching(free: list[int], neighbours: Callable[[int, set[int]], Iterable[int]],
                 mate: dict[int, int]) -> tuple[list[int], set[int]]:
    """Grow the matching ``mate`` (right vertex: left partner) to a maximum
    one by augmenting paths from the free left vertices ``free``.

    Searches share their reached right vertices in rounds, since a failed
    search's vertices reach no free right vertex while the matching stays
    the same; a round retries the vertices the last one left free, until one
    adds nothing; each round's reached set starts empty. Returns the left
    vertices still free and that last round's reached set, which is then
    every right vertex that an alternating path from them reaches.
    """
    while True:
        seen: set[int] = set()
        left = [s for s in free if not augment(s, neighbours, mate, seen)]
        if len(left) == len(free):
            return left, seen
        free = left


def _unrelated_mappings(f_graph: Graph, g_graph: Graph,
                        n: int) -> tuple[list[int], list[int], list[bool]]:
    """The unrelated graph H on the mappings [n] -> V(g), indexed with
    position 1 as the most significant digit: b ~ a iff each b_j lies in
    A_j(a), the values adjacent to no a_i with i ~F j, so a's H-neighbours
    are the product of the A_j(a). It is the one builder of H: subsets are
    mappings into the skew alphabet (``_subset_family``).

    Labels ascend by H-degree, ties by index, which is the order of
    descending relation degree. Returns (pos, rows, kept): each mapping's
    label, and per label the mask of its H-neighbours other than itself and
    whether the size search needs it. A mapping a in its own product is not
    kept when some position j has a free value w > a_j with N(a_j) inside
    N(w): raising a_j to w gives a larger mapping unrelated to a and related
    to all a is related to, so raising ends in an optimum of kept mappings.
    Each distinct product's row is the OR, over the cached index offsets of
    its high half of positions, of a cached partial row of the low half;
    the mappings inside it clear their own bit.
    """
    gv = g_graph.vertex_count
    values = (1 << gv) - 1
    nbrs = [g_graph.neighbors(u) for u in range(gv)]
    up = [_union(1 << w for w in range(u + 1, gv) if not nbrs[u] & ~nbrs[w]) for u in range(gv)]
    # forbid[a]: bit j*gv + u when some a_i with i ~F j is adjacent to u; raises[a]: up[a_j] at j
    forbid, codes, raises = [0], [0], [0]
    for i in range(n):
        spread = [sum(nbrs[u] << j * gv for j in range(n) if f_graph.adjacent(i, j))
                  for u in range(gv)]
        forbid = [f | s for f in forbid for s in spread]
        codes = [c | 1 << i * gv + u for c in codes for u in range(gv)]
        raises = [r | up[u] << i * gv for r in raises for u in range(gv)]

    @functools.cache
    def offsets(f: int, positions: range) -> list[int]:
        """The index offsets of the values free in f at ``positions``, ascending."""
        out = [0]
        for j in positions:
            steps = [u * gv ** (n - 1 - j) for u in _bits(~f >> j * gv & values)]
            out = [o + step for o in out for step in steps]
        return out

    high, low = range(n // 2), range(n // 2, n)
    split = (1 << n // 2 * gv) - 1  # the forbidden bits of the high half
    groups: dict[int, list[int]] = {}  # the mappings of each product
    for a, f in enumerate(forbid):
        groups.setdefault(f, []).append(a)
    own = [not c & f for c, f in zip(codes, forbid)]  # a lies in its own product
    degree = {f: len(offsets(f & split, high)) * len(offsets(f & ~split, low)) for f in groups}
    order = sorted(range(len(forbid)), key=lambda a: degree[forbid[a]] - own[a])  # ties by index
    pos = sorted(range(len(forbid)), key=order.__getitem__)  # the inverse permutation

    @functools.cache
    def part(h: int, fl: int) -> int:
        """The labels of the mappings at high offset h whose low half is free in fl."""
        out = 0
        for l in offsets(fl, low):
            out |= 1 << pos[h + l]
        return out

    rows = [0] * len(forbid)
    for f, members in groups.items():
        row, fl = 0, f & ~split
        for h in offsets(f & split, high):
            row |= part(h, fl)
        for a in members:
            rows[pos[a]] = row ^ own[a] << pos[a]
    kept = [not own[a] or not raises[a] & ~forbid[a] for a in order]
    return pos, rows, kept


def _clique_cover(rows: Sequence[int], rest: int) -> list[int]:
    """Greedy H-cliques covering the candidate set ``rest``, as masks: each
    grows from the lowest uncovered candidate by repeatedly taking the lowest
    one adjacent in H to all so far. A family takes at most one member of
    each, so their number bounds its size: the engine's root classes, and
    the colour bound of every ``_search`` frame."""
    classes = []
    while rest:
        avail, members = rest, 0
        while avail:
            low = avail & -avail
            members |= low
            avail &= rows[low.bit_length() - 1]
        rest ^= members
        classes.append(members)
    return classes


def _row_neighbours(rows: Sequence[int], keep: int) -> Callable[[int, set[int]], Iterator[int]]:
    """``max_matching`` neighbours of u: the bits of ``rows[u] & keep`` that
    the round has not reached, highest first. A mask mirrors the reached set
    ``seen`` and resets when it is empty, so a dense row costs one big-int
    operation per vertex reached."""
    avail = keep

    def neighbours(u: int, seen: set[int]) -> Iterator[int]:
        nonlocal avail
        avail = avail if seen else keep
        while top := (rows[u] & avail).bit_length():  # no row held while suspended
            avail ^= 1 << top - 1
            yield top - 1

    return neighbours


def _cover_family(rows: Sequence[int], kept: Sequence[bool]) -> int:
    """A largest pairwise-related family, as a mask of H's vertices, from the
    vertex-cover LP of H.

    Only the ``kept`` vertices are searched: the matcher reads each row
    through the kept mask, so the others get no edges. Raising a value of a
    left-out element (see ``_unrelated_mappings``) ends in an optimum of the
    same size that only has kept elements; for subsets this is the shifting
    lemma, which keeps the subsets meeting N(x) or with x | N(x) everything.
    The last round of ``max_matching`` on H's double cover, which adds
    nothing, reaches from the free left copies the right copies in a Koenig
    cover; a left copy is reached when it is free or its partner is, and is
    in the cover when it is not. LP value 0 means the left copy is reached
    and the right one is not. By Nemhauser-Trotter those vertices plus a
    largest family inside the half-integral kernel are optimal; half the
    kernel bounds that family, which stops its search.
    """
    keep = 0
    for v in itertools.compress(range(len(kept)), kept):
        keep |= 1 << v
    mate: dict[int, int] = {}
    _, reached = max_matching([u for u, row in enumerate(rows) if kept[u] and row],
                              _row_neighbours(rows, keep), mate)
    full = (1 << len(rows)) - 1
    unreached = right = 0
    for v in mate.keys() - reached:
        unreached |= 1 << mate[v]
    for v in reached:
        right |= 1 << v
    left = full ^ unreached  # the reached left copies
    zero = left & ~right & keep
    kernel = full & ~(left ^ right)
    half = kernel.bit_count() // 2
    family = _greedy_clique(rows, kernel, half)
    if family.bit_count() < half:
        found = _search(rows, kernel, family.bit_count(), half)
        if found is not None:
            family = _union(1 << v for v in found)
    return zero | family


def _repair(rows: Sequence[int], known: int, hit: int, cand: int, need: int) -> int:
    """A family of up to ``need`` members inside ``cand``, grown from the
    carried optimum ``known``: its members outside ``hit`` stay, and
    ``_greedy_clique`` adds the lowest vertices related to all members so
    far, taken from the H-neighbours of the dropped ones. No other candidate
    can join, since the optimum ``known`` leaves none related to all of its
    members."""
    dropped = known & hit
    family = known ^ dropped
    freed = cand & _union(rows[d] for d in _bits(dropped))
    avail = _union(1 << w for w in _bits(freed) if not rows[w] & family)
    return family | _greedy_clique(rows, avail, need - family.bit_count())


def _family(pos: Sequence[int], rows: Sequence[int],
            kept: Sequence[bool]) -> tuple[int, list[int]]:
    """Size and lexicographically first witness of a largest family: a set
    of element indices, no two of them adjacent in the unrelated graph H.

    Element x has label pos[x]; rows[v] is the mask of label v's
    H-neighbours, other than v, and kept[v] whether the size search needs
    it. The size comes from ``_cover_family``. The witness is the
    lexicographically first optimum: elements are committed in ascending
    index order whenever a completion to that size still exists. A largest
    family is carried along, with a count of live candidates in each class
    of ``_clique_cover``, the greedy H-clique cover that also bounds the
    exact search on H's rows. Committing x drops x and its H-neighbours
    among the candidates. When x is not in the carried family, the
    completion is refuted if fewer than the needed number of classes stay
    live, else repaired from the carried family, and only if both fail
    decided by an exact search.
    """
    count = len(pos)
    p = (1 << count) - 1  # candidates, in new labels
    classes = _clique_cover(rows, p)
    colour = [0] * count
    for c, members in enumerate(classes):
        for v in _bits(members):
            colour[v] = c
    live = [members.bit_count() for members in classes]
    live_classes = len(classes)
    known = _cover_family(rows, kept)  # a carried optimum's members beyond the witness
    size = known.bit_count()
    witness: list[int] = []
    for x in range(count):
        if len(witness) == size:
            break
        v = pos[x]
        if not p >> v & 1:
            continue
        hit = rows[v] & p  # what committing x drops with it
        cand = p ^ hit ^ 1 << v
        need = size - len(witness) - 1
        dropped = [v, *_bits(hit)] if hit else [v]
        emptied = 0
        for w in dropped:
            live[colour[w]] -= 1
            emptied += live[colour[w]] == 0
        if known >> v & 1:
            known ^= 1 << v
        else:
            completion = None
            if live_classes - emptied >= need:
                completion = _repair(rows, known, hit, cand, need)
                if completion.bit_count() < need:
                    found = _search(rows, cand, need - 1, need)
                    completion = None if found is None else _union(1 << w for w in found)
            if completion is None:
                for w in dropped[1:]:
                    live[colour[w]] += 1
                live_classes -= live[colour[v]] == 0
                p ^= 1 << v
                continue
            known = completion
        witness.append(x)
        p = cand
        live_classes -= emptied
    wmask = 0
    for x in witness:
        wmask |= 1 << pos[x]
    if len(witness) != size or any(rows[pos[x]] & wmask for x in witness):
        raise AssertionError(f"witness of {len(witness)} is not a family of {size}")
    for members in filter(lambda c: c & c - 1, classes):  # one vertex is always a clique
        if any((rows[v] | 1 << v) & members != members for v in _bits(members)):
            raise AssertionError("a greedy class is not a clique of H")
    return size, witness


def _timed_family(build: Callable[..., tuple], *args: object) -> ExtremalResult:
    """``_family`` on the unrelated graph that ``build(*args)`` returns; the
    elapsed time covers both the build and the search."""
    t0 = time.perf_counter()
    size, witness = _family(*build(*args))
    elapsed = (time.perf_counter() - t0) * 1000.0
    return ExtremalResult(size, witness, elapsed)


def _subset_family(g: Graph) -> ExtremalResult:
    """``_timed_family`` on g's vertex subsets as mappings into the skew
    alphabet, whose positions are g's vertices in reverse order, so that a
    mapping's index is the subset's mask with vertex 0 least significant."""
    last = g.vertex_count - 1
    positions = Graph(last + 1, ((last - u, last - v) for u, v in g.edges()))
    return _timed_family(_unrelated_mappings, positions, skew_alphabet(), last + 1)


def _relabel(result: ExtremalResult, label: Callable[[int], object]) -> ExtremalResult:
    """The same result with each witness element replaced by its label."""
    return ExtremalResult(result.size, list(map(label, result.witness)), result.elapsed_ms)


def exact_M(n: int, override_cap: bool = False) -> ExtremalResult:
    """Largest family of length-n strings, any two distinct ones skewincident.

    Capped at n = 8 (256 strings) unless ``override_cap`` is set; the hard
    limit of n = 12 bounds the unrelated graph H, which holds one 2^n-bit
    row per string.
    """
    cap = MAX_SUBSET_VERTICES if override_cap else EXACT_M_DEFAULT_CAP
    if not 1 <= n <= cap:
        hint = "" if override_cap or n < 1 else (
            f" (pass override_cap=True or --override-cap for n up to {MAX_SUBSET_VERTICES})"
        )
        raise ValueError(f"n must be in [1, {cap}], got {n}{hint}")
    return _relabel(_subset_family(path(n)), functools.partial(BitString, n))


def check_subset_vertices(count: int) -> None:
    """Refuse a graph too large for ``exact_MG``, whose unrelated graph holds
    one 2^count-bit row per subset."""
    if count > MAX_SUBSET_VERTICES:
        raise ValueError(f"vertex count must be <= {MAX_SUBSET_VERTICES}, got {count}")


def exact_MG(g: Graph) -> ExtremalResult:
    """Largest family of distinct vertex subsets of g, any two of which
    contain a pair of adjacent vertices.

    Elements are all subsets, indexed by bitmask with vertex 0 least
    significant; the witness lists subsets as sorted vertex tuples.
    """
    check_subset_vertices(g.vertex_count)
    return _relabel(_subset_family(g), lambda mask: tuple(_bits(mask)))


def multipartite_M(p: Partition | Sequence[int]) -> int:
    """Closed form for the neighbor-family maximum of a complete multipartite
    graph with the given part sizes: 2^(sum) - sum of 2^size + 2r - 1."""
    part = as_partition(p)
    return (1 << part.total) - sum(1 << s for s in part.parts) + 2 * len(part) - 1


def exact_attractive(f_graph: Graph, g_graph: Graph, n: int) -> ExtremalResult:
    """Largest set of mappings [n] -> V(g_graph), any two of which send some
    f_graph-adjacent pair of positions (loops allowed) to g_graph-adjacent
    values.

    Positions 1..n use the first n vertices of f_graph. Elements are all
    |V(g)|^n mappings, ordered with position 1 as the most significant digit;
    the witness lists mappings as value tuples. ``_unrelated_mappings``
    reads the unrelated graph H off per-position products of free values,
    and the elapsed time covers that build.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if f_graph.vertex_count < n:
        raise ValueError(
            f"position graph has {f_graph.vertex_count} vertices, need at least {n}"
        )
    count = g_graph.vertex_count ** n
    if count > MAX_ELEMENTS:
        raise ValueError(f"|V(g)|^n = {count} exceeds the cap of {MAX_ELEMENTS}")
    maps = list(itertools.product(range(g_graph.vertex_count), repeat=n))
    return _relabel(_timed_family(_unrelated_mappings, f_graph, g_graph, n), maps.__getitem__)
