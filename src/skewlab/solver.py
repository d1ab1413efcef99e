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
maximum matching on H's bipartite double cover, seeded greedily, whose
alternating reach from the free vertices, one breadth-first search over the
rows, gives the Koenig cover, then an exact search of the Nemhauser-Trotter
kernel); greedy cliques of H cover every element and bound any family by
their number; and the lexicographically first witness is decided step by
step by counting live classes, repairing a carried optimum, or else an
iterative branch-and-bound search. Every search reads H's own rows, and one
greedy H-clique cover, ``_clique_cover``, gives both the root classes and
the search's colour bound.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from collections.abc import Callable, Iterable, Sequence

from .bitstring import BitString
from .graphs import Graph, Partition, as_partition, path, skew_alphabet
from .record import Record

# elements per instance; H holds a row of that many bits per element, 2 MB in all
MAX_ELEMENTS = 4096
MAX_SUBSET_VERTICES = MAX_ELEMENTS.bit_length() - 1  # exact_M's override ceiling, 12
EXACT_M_DEFAULT_CAP = 8


def check_elements(values: int, positions: int) -> None:
    """Refuse the values^positions mappings (subsets: 2^vertices) past
    ``MAX_ELEMENTS``, before any of them is built."""
    if values ** positions > MAX_ELEMENTS:
        raise ValueError(f"{values}^{positions} elements exceed the cap of {MAX_ELEMENTS}")


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


def _search(rows: Sequence[int], p: int, floor: int, stop: int) -> int | None:
    """The largest family inside candidate set ``p``, no two members adjacent
    in H, with more than ``floor`` members, as a mask, or None; returns as
    soon as a family reaches ``stop`` members.

    Frames are [candidates, their ``_clique_cover``, the vertex bit that
    opened the frame]. A frame branches on the highest vertex of its last
    class, removed from its candidates first, and ends when the family plus
    the number of classes left cannot beat the floor; every family that
    does beat it raises the floor."""
    best = None
    family = size = 0
    stack = [[p, _clique_cover(rows, p), 0]]
    while stack:
        frame = stack[-1]
        p, classes, _ = frame
        if size + len(classes) <= floor:
            family ^= stack.pop()[2]  # the root's bit is 0, and popping it ends the search
            size -= 1
            continue
        v = classes[-1].bit_length() - 1
        classes[-1] ^= 1 << v
        if not classes[-1]:
            classes.pop()
        frame[0] = p = p ^ 1 << v
        family |= 1 << v
        size += 1
        if size > floor:
            best, floor = family, size
            if floor >= stop:
                return best
        sub = p & ~rows[v]
        if sub:
            stack.append([sub, _clique_cover(rows, sub), 1 << v])
        else:
            family ^= 1 << v
            size -= 1
    return best


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


def _cover_family(rows: Sequence[int], kept: Sequence[bool]) -> int:
    """A largest pairwise-related family, as a mask of H's vertices, from the
    vertex-cover LP of H.

    Only the ``kept`` vertices are searched: each row is read through the
    kept mask, so the others get no edges. Raising a value of a left-out
    element (see ``_unrelated_mappings``) ends in an optimum of the same size
    that only has kept elements; for subsets this is the shifting lemma,
    which keeps the subsets meeting N(x) or with x | N(x) everything. The
    matching on H's double cover starts from a greedy one, each left copy
    taking the highest free right copy in its row. A breadth-first search
    from the left copies left free then expands each reached left copy once,
    by one AND of its row with the right copies not yet reached, and records
    the left copy each right copy came from; meeting a free right copy, it
    flips that augmenting path and searches again. The search that meets
    none reaches the right copies of a Koenig cover; a left copy is reached
    when it is free or its partner is, and is in the cover when it is not.
    That reach is the same for every maximum matching (Dulmage-Mendelsohn),
    so the seed changes none of what follows. LP value 0 means the left copy
    is reached and the right one is not. By Nemhauser-Trotter those vertices
    plus a largest family inside the half-integral kernel are optimal; half
    the kernel bounds that family, which stops its search.
    """
    keep = 0
    for v in itertools.compress(range(len(kept)), kept):
        keep |= 1 << v
    mate: dict[int, int] = {}  # each matched right copy: its left partner
    free, avail = [], keep  # the left copies left free, the right copies left free
    for u in itertools.compress(range(len(rows)), kept):
        if rows[u]:
            if top := (rows[u] & avail).bit_length():
                avail ^= 1 << top - 1
                mate[top - 1] = u
            else:
                free.append(u)
    while True:
        came: dict[int, int] = {}  # each reached right copy: the left copy it came from
        queue, unreached = free.copy(), keep
        for u in queue:
            new = rows[u] & unreached
            unreached ^= new
            if new & avail:
                break
            while new:
                v = new.bit_length() - 1
                new ^= 1 << v
                came[v] = u
                queue.append(mate[v])
        else:
            break
        v = (new & avail).bit_length() - 1  # flip the path from the free right copy v back
        avail ^= 1 << v
        partner = {w: r for r, w in mate.items()}
        while u in partner:
            mate[v], v = u, partner[u]
            u = came[v]
        mate[v] = u
        free.remove(u)
    full = (1 << len(rows)) - 1
    left = full  # the reached left copies: all but the partners of unreached right copies
    for v in mate.keys() - came.keys():
        left ^= 1 << mate[v]
    right = keep ^ unreached
    zero = left & ~right & keep
    kernel = full & ~(left ^ right)
    half = kernel.bit_count() // 2
    family = _greedy_clique(rows, kernel, half)
    if family.bit_count() < half:
        family = _search(rows, kernel, family.bit_count(), half) or family
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
    exact search on H's rows; one walk of the classes, before the pass,
    colours their members and checks that each is an H-clique. Committing x
    drops x and its H-neighbours among the candidates. When x is not in the
    carried family, the completion is refuted if fewer than the needed
    number of classes can stay live, else repaired from the carried family,
    and only if that fails decided by an exact search. The carried family's
    members lie in distinct classes, and those outside x's H-neighbours keep
    theirs live, so reading only the carried members that x drops bounds
    the live classes from above, and the reading stops as soon as that
    bound falls short. The live counts change once, when x is committed or
    refuted.
    """
    count = len(pos)
    p = (1 << count) - 1  # candidates, in new labels
    classes = _clique_cover(rows, p)
    colour = [0] * count
    live = [1] * len(classes)  # each class's members among the candidates
    for c, members in enumerate(classes):
        if not members & members - 1:  # one vertex is always a clique
            colour[members.bit_length() - 1] = c
            continue
        vertices = _bits(members)
        live[c] = len(vertices)
        for v in vertices:
            colour[v] = c
            if (rows[v] | 1 << v) & members != members:
                raise AssertionError("a greedy class is not a clique of H")
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
        if known >> v & 1:
            known ^= 1 << v
        else:
            # known's need + 1 members lie in distinct live classes, and spare live
            # classes hold none of them; a dropped member's class dies unless it still
            # meets cand, and once more than spare + 1 have died, fewer than need
            # classes stay live: x is refuted without reading the rest
            spare = live_classes - need - 1
            dead, lost = 0, known & hit
            while lost and dead <= spare + 1:
                k = lost.bit_length() - 1
                lost ^= 1 << k
                c = colour[k]
                dead += live[c] == 1 or not classes[c] & cand
            completion = None
            if dead <= spare + 1:
                completion = _repair(rows, known, hit, cand, need)
                if completion.bit_count() < need:
                    completion = _search(rows, cand, need - 1, need)
            if completion is None:
                live[colour[v]] -= 1
                live_classes -= not live[colour[v]]
                p ^= 1 << v
                continue
            known = completion
        for w in (v, *_bits(hit)):
            live[colour[w]] -= 1
            live_classes -= not live[colour[w]]
        witness.append(x)
        p = cand
    wmask = 0
    for x in witness:
        wmask |= 1 << pos[x]
    if len(witness) != size or any(rows[pos[x]] & wmask for x in witness):
        raise AssertionError(f"witness of {len(witness)} is not a family of {size}")
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
    limit of n = 12, 2^n = ``MAX_ELEMENTS`` strings, bounds the unrelated
    graph H, which holds one 2^n-bit row per string.
    """
    cap = MAX_SUBSET_VERTICES if override_cap else EXACT_M_DEFAULT_CAP
    if not 1 <= n <= cap:
        hint = "" if override_cap or n < 1 else (
            f" (pass override_cap=True or --override-cap for n up to {MAX_SUBSET_VERTICES})"
        )
        raise ValueError(f"n must be in [1, {cap}], got {n}{hint}")
    return _relabel(_subset_family(path(n)), functools.partial(BitString, n))


def exact_MG(g: Graph) -> ExtremalResult:
    """Largest family of distinct vertex subsets of g, any two of which
    contain a pair of adjacent vertices.

    Elements are all subsets, indexed by bitmask with vertex 0 least
    significant; the witness lists subsets as sorted vertex tuples.
    """
    check_elements(2, g.vertex_count)
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
    check_elements(g_graph.vertex_count, n)
    maps = list(itertools.product(range(g_graph.vertex_count), repeat=n))
    return _relabel(_timed_family(_unrelated_mappings, f_graph, g_graph, n), maps.__getitem__)
