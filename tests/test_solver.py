"""Exact search engine and the extremal quantities built on it."""

import hashlib
import itertools
import json
import random
import sys

import pytest

from skewlab import solver
from skewlab.bitstring import Family, influence_bits, skewincident, skewincident_bits
from skewlab.constructions import verify_pairwise_skewincident
from skewlab.counting import fibonacci_count
from skewlab.graphs import Graph, all_loops, complete_multipartite, path, skew_alphabet
from skewlab.cli import main
from skewlab.solver import exact_M, exact_MG, exact_attractive, multipartite_M
from skewlab.report import sandwich_check
from oracles import (
    CliqueInstance,
    complement_graph,
    enumerate_max_clique,
    instance_from_relation,
    max_clique,
    row_matching,
    unseeded_cover_family,
)
from tables import ATTRACTIVE_WITNESS_SHA256, MAX_FAMILY, MAX_FAMILY_WITNESS_3


def random_instance(count: int, density: float, seed: int) -> CliqueInstance:
    rng = random.Random(seed)
    rows = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return CliqueInstance(count, tuple(rows))


def all_maximum_cliques(instance: CliqueInstance) -> list[list[int]]:
    """Brute force every subset with an is-clique table (a subset is a clique
    iff it is without its lowest member and that member relates to the rest);
    return all cliques of maximum size."""
    rows = instance.rows
    is_clique = bytearray(1 << instance.count)
    is_clique[0] = 1
    best = 0
    found: list[int] = []
    for mask in range(1, 1 << instance.count):
        low = mask & -mask
        rest = mask ^ low
        if is_clique[rest] and rows[low.bit_length() - 1] & rest == rest:
            is_clique[mask] = 1
            if mask.bit_count() > best:
                best = mask.bit_count()
                found = [mask]
            elif mask.bit_count() == best:
                found.append(mask)
    return [[i for i in range(instance.count) if mask >> i & 1] for mask in found]


def test_triangle_edgeless_cycle():
    triangle = instance_from_relation(3, lambda i, j: True)
    assert max_clique(triangle).size == 3
    edgeless = instance_from_relation(5, lambda i, j: False)
    res = max_clique(edgeless)
    assert res.size == 1 and res.witness == [0]
    cycle5 = instance_from_relation(5, lambda i, j: (i - j) % 5 in (1, 4))
    res = max_clique(cycle5)
    assert res.size == 2 and res.witness == [0, 1]


def test_instance_validation():
    with pytest.raises(ValueError):
        CliqueInstance(0, ())
    with pytest.raises(ValueError):
        CliqueInstance(2, (0,))
    with pytest.raises(ValueError):
        CliqueInstance(2, (0b11, 0b11))  # self bits: greedy would never stop
    with pytest.raises(ValueError):
        CliqueInstance(2, (0b100, 0b001))  # index 2 is outside the instance
    with pytest.raises(ValueError, match="not symmetric"):
        max_clique(CliqueInstance(3, (0b110, 0, 0)))  # 0 relates to 1, 1 not to 0
    with pytest.raises(ValueError):
        instance_from_relation(5000, lambda i, j: False)
    with pytest.raises(ValueError):
        enumerate_max_clique(random_instance(21, 0.5, 0))


def test_engine_matches_enumeration_oracle():
    cases = [(8, d, s) for d in (0.2, 0.5, 0.8) for s in (1, 2)]
    cases += [(12, d, s) for d in (0.3, 0.6, 0.9) for s in (3, 4)]
    cases += [(16, 0.5, 5), (16, 0.85, 6), (18, 0.6, 7), (20, 0.55, 8)]
    for count, density, seed in cases:
        inst = random_instance(count, density, seed)
        fast = max_clique(inst)
        slow = enumerate_max_clique(inst)
        assert fast.size == slow.size, (count, density, seed)


def test_engine_matches_the_oracles_at_density_extremes():
    """Relations with 2-5% or 95-98% of pairs related, so that H is nearly
    complete or nearly empty: sizes against the subset scan, witnesses
    against the first of all maximum cliques."""
    cases = [(count, density, seed) for density in (0.02, 0.05, 0.95, 0.98)
             for count, seed in ((12, 31), (16, 32), (20, 33))]
    for count, density, seed in cases:
        inst = random_instance(count, density, seed)
        res = max_clique(inst)
        assert res.size == enumerate_max_clique(inst).size, (count, density, seed)
        assert res.witness == min(all_maximum_cliques(inst)), (count, density, seed)


def test_witness_is_valid_and_lex_first(monkeypatch):
    """The larger instances are ones where the witness pass answers a
    completion by growing what is left of the carried optimum, which the
    carried optimum alone would not answer."""
    grown = []
    repair = solver._repair

    def counted(rows, known, hit, cand, need):
        family = repair(rows, known, hit, cand, need)
        grown.append(family.bit_count() == need)
        return family

    monkeypatch.setattr(solver, "_repair", counted)
    small = [(9, 0.4, 11), (10, 0.6, 12), (11, 0.8, 13), (12, 0.5, 14)]
    large = [(16, 0.7, 17), (17, 0.8, 17), (18, 0.6, 15), (19, 0.8, 16), (20, 0.5, 15)]
    for count, density, seed in small + large:
        grown.clear()
        inst = random_instance(count, density, seed)
        res = max_clique(inst)
        assert len(res.witness) == res.size
        for a, b in itertools.combinations(res.witness, 2):
            assert inst.rows[a] >> b & 1
        optima = all_maximum_cliques(inst)
        assert res.size == len(optima[0])
        assert res.witness == min(optima)
        assert count < 16 or any(grown), (count, density, seed)


def test_determinism():
    inst = random_instance(14, 0.55, 99)
    first = max_clique(inst)
    for _ in range(3):
        again = max_clique(inst)
        assert (again.size, again.witness) == (first.size, first.witness)


def test_recursion_limit_untouched(monkeypatch):
    limit = sys.getrecursionlimit()

    def refuse(new_limit: int) -> None:
        raise AssertionError(f"setrecursionlimit({new_limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert exact_MG(all_loops(10)).size == 512  # 1,024 elements
    assert sys.getrecursionlimit() == limit


def test_search_work_is_pinned(monkeypatch):
    """The root cover's element count, then colorings made and vertices
    colored by the exact search, and repairs tried, for subset families and
    random relations; a kernel that greedy stops filling, a repair that stops
    sufficing, a refutation that stops deciding or a change to the search
    tree shows up here as a diff."""
    colored = []
    repairs = []
    cover = solver._clique_cover
    repair = solver._repair

    def counted(rows, rest: int):
        colored.append(rest.bit_count())
        return cover(rows, rest)

    def counted_repair(rows, known, hit, cand, need):
        repairs.append(need)
        return repair(rows, known, hit, cand, need)

    def attractive(arg):
        return exact_attractive(*arg)

    monkeypatch.setattr(solver, "_clique_cover", counted)
    monkeypatch.setattr(solver, "_repair", counted_repair)
    cases = [  # (extremal, argument, elements, repairs, search colorings, vertices colored)
        (exact_M, 6, 2 ** 6, 4, 0, 0),
        (exact_M, 8, 2 ** 8, 8, 0, 0),
        (exact_MG, complete_multipartite((2, 2, 2)), 2 ** 6, 3, 0, 0),
        (exact_MG, all_loops(10), 2 ** 10, 1, 0, 0),
        (exact_MG, path(9), 2 ** 9, 12, 0, 0),
        (exact_MG, path(10), 2 ** 10, 12, 0, 0),
        (max_clique, random_instance(60, 0.5, 1), 60, 5, 92, 1208),
        (max_clique, random_instance(80, 0.7, 2), 80, 8, 600, 14625),
        (max_clique, random_instance(120, 0.3, 3), 120, 5, 213, 3079),
        # root covers that are not tight: 115 classes against 105, 13 against 12
        (attractive, (path(5), all_loops(3), 5), 3 ** 5, 21, 3141, 440400),
        (attractive, (path(3), all_loops(4), 3), 4 ** 3, 2, 31, 918),
    ]
    for extremal, arg, elements, tried, colorings, vertices in cases:
        colored.clear()
        repairs.clear()
        extremal(arg)
        root, *search = colored
        assert (root, len(repairs), len(search), sum(search)) == (
            elements, tried, colorings, vertices), (extremal.__name__, arg)


def test_search_and_greedy_read_h_rows():
    """``_search`` and ``_greedy_clique`` on random H rows and candidate
    sets p, against the independence number alpha of H inside p, brute
    forced over every subset: the search finds nothing above a floor of
    alpha or more, else min(alpha, stop) members of p with no two adjacent
    in H; greedy takes at most ``need`` such members and stops short only
    when every candidate left is adjacent to one of them."""
    rng = random.Random(20)
    for _ in range(80):
        vertices = rng.randint(1, 14)
        rows = list(random_instance(vertices, rng.uniform(0.1, 0.9), rng.getrandbits(32)).rows)
        # alpha[s]: without s's lowest vertex v, or with v and none of its H-neighbours
        alpha = [0] * (1 << vertices)
        for s in range(1, 1 << vertices):
            low = s & -s
            alpha[s] = max(alpha[s ^ low], 1 + alpha[s & ~(rows[low.bit_length() - 1] | low)])
        for _ in range(10):
            p = rng.getrandbits(vertices)
            floor = rng.randint(0, vertices)
            stop = rng.randint(floor + 1, vertices + 1)
            found = solver._search(rows, p, floor, stop)
            if alpha[p] <= floor:
                assert found is None, (rows, p, floor)
            else:
                assert found.bit_count() == min(alpha[p], stop), (rows, p, floor)
                assert found & ~p == 0 and not any(rows[v] & found for v in solver._bits(found))
            need = rng.randint(0, vertices)
            family = solver._greedy_clique(rows, p, need)
            members = list(solver._bits(family))
            assert family & ~p == 0 and not any(rows[v] & family for v in members)
            assert len(members) == need or (len(members) < need and all(
                rows[v] & family for v in solver._bits(p & ~family))), (rows, p, need)


def subset_graph(g: Graph):
    """The unrelated graph H of g's vertex subsets, as (pos, rows, kept): the
    subsets are the mappings into the skew alphabet from g's vertices in
    reverse order, indexed by their masks."""
    last = g.vertex_count - 1
    positions = Graph(last + 1, [(last - u, last - v) for u, v in g.edges()])
    return solver._unrelated_mappings(positions, skew_alphabet(), last + 1)


def unrelated_rows(g: Graph) -> list[int]:
    """The rows of H, the unrelated graph of g's vertex subsets, relabelled
    back to subset indices."""
    pos, rows, _ = subset_graph(g)
    return relabel_rows(pos, rows)


def relabel_rows(pos: list[int], rows: list[int]) -> list[int]:
    """H's rows, given per label, as rows over element indices."""
    order = sorted(range(len(pos)), key=pos.__getitem__)
    return [sum(1 << order[w] for w in solver._bits(rows[pos[x]])) for x in range(len(pos))]


def complement_rows(instance: CliqueInstance) -> list[int]:
    everything = (1 << instance.count) - 1
    return [everything & ~(row | 1 << i) for i, row in enumerate(instance.rows)]


def test_bits_is_an_ascending_list():
    """``_bits`` against a plain scan of the bit positions on 0, on single
    bits and on random sparse and dense masks of up to 4,096 bits."""
    rng = random.Random(27)
    masks = [0] + [1 << i for i in (0, 1, 29, 30, 63, 64, 4095)]
    for _ in range(200):
        width = rng.randint(1, 4096)
        masks.append(rng.getrandbits(width))
        sparse = rng.sample(range(width), rng.randint(0, min(width, 100)))
        masks.append(sum(1 << i for i in sparse))
    for mask in masks:
        found = solver._bits(mask)
        assert type(found) is list
        assert found == [i for i in range(mask.bit_length()) if mask >> i & 1], mask


def test_family_check_reads_a_merged_root_class(monkeypatch):
    """The class check before the witness pass skips the walk of one-member
    classes, which are cliques, but still reads a class merged from two of
    them: two one-member root classes are never H-adjacent, or the greedy
    cover would have grown the first into the second."""
    h = subset_graph(path(6))
    cover = solver._clique_cover

    def merged(rows, rest):
        classes = cover(rows, rest)
        if rest == (1 << len(rows)) - 1:  # the root cover
            a, b = [c for c in classes if c.bit_count() == 1][:2]
            classes = [c for c in classes if c not in (a, b)] + [a | b]
        return classes

    monkeypatch.setattr(solver, "_clique_cover", merged)
    with pytest.raises(AssertionError, match="not a clique of H"):
        solver._family(*h)


def test_family_check_reads_a_swapped_witness_member():
    """The pass keeps its witness a family by construction, so the swap is
    made under it: from its second read on, ``pos`` gives the witness's first
    member the label of an H-neighbour of its second, and the closing check,
    which rereads the witness, refuses it."""
    pos, rows, kept = subset_graph(path(6))
    first, second = solver._family(pos, rows, kept)[1][:2]
    neighbour = rows[pos[second]].bit_length() - 1

    class Swapped(list):
        reads = 0

        def __getitem__(self, x):
            if x == first:
                self.reads += 1
                if self.reads > 1:
                    return neighbour
            return super().__getitem__(x)

    with pytest.raises(AssertionError, match="is not a family"):
        solver._family(Swapped(pos), rows, kept)


def test_exact_M_relation_is_skewincidence():
    """exact_M builds no relation; H, which it searches, is its complement."""
    for n in range(1, 9):
        instance = instance_from_relation(1 << n, skewincident_bits)
        assert unrelated_rows(path(n)) == complement_rows(instance), n


def test_exact_MG_relation_is_pairwise_neighbor():
    rng = random.Random(21)
    for trial in range(12):
        vertices = 1 + trial % 6
        pairs = [(u, v) for u in range(vertices) for v in range(u, vertices)]
        g = Graph(vertices, [e for e in pairs if rng.random() < 0.4])

        def neighbor_pair(a: int, b: int) -> bool:
            return any(
                g.adjacent(u, v)
                for u in range(vertices) if a >> u & 1
                for v in range(vertices) if b >> v & 1
            )

        instance = instance_from_relation(1 << vertices, neighbor_pair)
        assert unrelated_rows(g) == complement_rows(instance), g


def test_unrelated_graph_of_the_path_has_f_n_squared_pairs():
    """x and y are not skewincident iff both interleavings x1 y2 x3 ... and
    y1 x2 y3 ... have no adjacent ones, so H on P_n has f_n^2 ordered pairs,
    the f_n strings without adjacent ones as self-pairs included."""
    for n in range(1, 13):
        _, rows, _ = subset_graph(path(n))
        assert sum(row.bit_count() for row in rows) + fibonacci_count(n) == (
            fibonacci_count(n) ** 2), n


def mapping_graphs(n: int):
    """Every (F, G) pair of the attractive grid at n positions."""
    alphabets = (skew_alphabet(), path(3), complete_multipartite((1, 1)), Graph(3, []),
                 all_loops(2), complete_multipartite((2, 1)))
    return [(f_graph, g_graph) for f_graph in (path(n), all_loops(n), Graph(n, []))
            for g_graph in alphabets]


def attraction(f_graph: Graph, g_graph: Graph, n: int) -> CliqueInstance:
    """The attraction relation on the mappings [n] -> V(g), straight from
    its definition, one predicate call per pair."""
    maps = list(itertools.product(range(g_graph.vertex_count), repeat=n))
    fpairs = [(i, j) for i in range(n) for j in range(n) if f_graph.adjacent(i, j)]

    def attractive(ia: int, ib: int) -> bool:
        a, b = maps[ia], maps[ib]
        return any(g_graph.adjacent(a[i], b[j]) for i, j in fpairs)

    return instance_from_relation(len(maps), attractive)


def random_mapping_cases(rng: random.Random, count: int):
    """``count`` random (F, G, n) with loops and at most 256 mappings."""
    cases = []
    for _ in range(count):
        gv = rng.randint(1, 5)
        n = rng.choice([k for k in range(1, 9) if gv ** k <= 256])
        graphs = []
        for vertices in (n + rng.randint(0, 2), gv):
            pairs = [(u, v) for u in range(vertices) for v in range(u, vertices)]
            density = rng.uniform(0.1, 0.7)
            graphs.append(Graph(vertices, [e for e in pairs if rng.random() < density]))
        cases.append((*graphs, n))
    return cases


def test_exact_attractive_relation_is_attraction():
    """exact_attractive builds no relation; H, read off per-position
    products, is its complement, labelled by descending relation degree
    with ties by index."""
    for n in range(1, 5):
        for f_graph, g_graph in mapping_graphs(n):
            pos, h_rows, _ = solver._unrelated_mappings(f_graph, g_graph, n)
            order = sorted(range(len(pos)), key=pos.__getitem__)
            instance = attraction(f_graph, g_graph, n)
            rows = instance.rows
            assert order == sorted(range(len(rows)), key=lambda v: (-rows[v].bit_count(), v))
            assert relabel_rows(pos, h_rows) == complement_rows(instance), (n, f_graph, g_graph)


def raises(f_graph: Graph, g_graph: Graph, a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The mappings b that raise one value a_j to a w > a_j with N(a_j) inside
    N(w), both b and a lying in a's product (unrelated to a), from
    ``Graph.neighbors`` alone."""
    n = len(a)

    def unrelated(b: tuple[int, ...]) -> bool:
        return not any(f_graph.adjacent(i, j) and g_graph.neighbors(a[i]) >> b[j] & 1
                       for i in range(n) for j in range(n))

    if not unrelated(a):
        return []
    out = []
    for j in range(n):
        below = g_graph.neighbors(a[j])
        for w in range(a[j] + 1, g_graph.vertex_count):
            b = a[:j] + (w,) + a[j + 1:]
            if not below & ~g_graph.neighbors(w) and unrelated(b):
                out.append(b)
    return out


def test_kept_elements_follow_the_raise_rule():
    """The one builder leaves out of the size search exactly the elements
    with a raise inside their own product. For subsets that is the shifting
    rule: x is kept iff x meets N(x) or x | N(x) is everything."""
    rng = random.Random(23)
    graphs = [path(n) for n in range(1, 11)] + [all_loops(10), complete_multipartite((3, 3, 3))]
    for _ in range(30):
        vertices = rng.randint(1, 9)
        pairs = [(u, v) for u in range(vertices) for v in range(u, vertices)]
        graphs.append(Graph(vertices, [e for e in pairs if rng.random() < 0.4]))
    for g in graphs:
        pos, _, kept = subset_graph(g)
        full = (1 << g.vertex_count) - 1
        reach = [solver._union(g.neighbors(v) for v in solver._bits(x)) for x in range(full + 1)]
        assert [kept[pos[x]] for x in range(full + 1)] == [
            x & reach[x] != 0 or x | reach[x] == full for x in range(full + 1)], g
    cases = [(f_graph, g_graph, n) for n in range(1, 5) for f_graph, g_graph in mapping_graphs(n)]
    for f_graph, g_graph, n in cases + random_mapping_cases(random.Random(24), 40):
        pos, _, kept = solver._unrelated_mappings(f_graph, g_graph, n)
        maps = list(itertools.product(range(g_graph.vertex_count), repeat=n))
        assert [kept[pos[a]] for a in range(len(maps))] == [
            not raises(f_graph, g_graph, m) for m in maps], (f_graph, g_graph, n)


def dense_attractive(f_graph: Graph, g_graph: Graph, n: int):
    """The mapping-family optimum from ``max_clique`` on the dense rows of
    the product F x G with one-hot (position, value) codes: vertex
    i * |V(g)| + u means position i takes value u."""
    gv = g_graph.vertex_count
    nbrs = [sum(g_graph.neighbors(u) << j * gv for j in range(n) if f_graph.adjacent(i, j))
            for i in range(n) for u in range(gv)]
    maps = list(itertools.product(range(gv), repeat=n))
    codes = [sum(1 << i * gv + u for i, u in enumerate(m)) for m in maps]
    res = max_clique(CliqueInstance.from_neighborhoods(nbrs, codes))
    return res.size, [maps[a] for a in res.witness]


def test_attractive_matches_the_dense_route():
    """Size and witness of ``exact_attractive`` against ``max_clique`` on
    complemented dense relation rows: on the attractive grid for n <= 4, and
    on random position and value graphs with loops, at most 256 mappings."""
    cases = [(f_graph, g_graph, n) for n in range(1, 5) for f_graph, g_graph in mapping_graphs(n)]
    for f_graph, g_graph, n in cases + random_mapping_cases(random.Random(22), 40):
        res = exact_attractive(f_graph, g_graph, n)
        assert (res.size, res.witness) == dense_attractive(f_graph, g_graph, n), (
            f_graph, g_graph, n)


def test_attractive_bench_work_is_pinned():
    """The benchmark's attractive instance, path(7) positions on path(3)
    values: H's vertices and edges, and the family size."""
    _, rows, _ = solver._unrelated_mappings(path(7), path(3), 7)
    assert (len(rows), sum(row.bit_count() for row in rows) // 2) == (3 ** 7, 8256)
    assert exact_attractive(path(7), path(3), 7).size == 2052


def test_exact_M_values():
    for n, expected in MAX_FAMILY.items():
        assert exact_M(n, override_cap=n > 8).size == expected, n


def test_cover_bound_meets_the_frozen_values():
    """The upper-bound half of the vertex-cover route, independent of the
    clique engine: shifting leaves only the kept strings (two adjacent ones,
    or x | infl(x) everything), and a matching of size nu on the double
    cover of their non-skewincidence graph H bounds any family by
    |kept| - ceil(nu / 2). Built here from ``influence_bits`` alone."""
    for n, expected in MAX_FAMILY.items():
        full = (1 << n) - 1
        kept = [x for x in range(1 << n)
                if x & influence_bits(x, n) or x | influence_bits(x, n) == full]
        index = {x: i for i, x in enumerate(kept)}
        adj = []
        for x in kept:  # H-neighbours of x: the kept submasks y != x of full & ~infl(x)
            free = full & ~influence_bits(x, n)
            subs = itertools.accumulate(range(1 << free.bit_count()), lambda y, _: (y - free) & free)
            adj.append([index[y] for y in subs if y != x and y in index])
        nu = kuhn_matching_size(adj, len(kept))
        assert len(kept) - (nu + 1) // 2 == expected, n


def kuhn_matching_size(adj: list[list[int]], right: int) -> int:
    """Maximum matching size by one augmenting-path search per left vertex."""
    match = [-1] * right

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if match[v] == -1 or augment(match[v], seen):
                    match[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in range(len(adj)))


def alternating_reach(adj: list[list[int]], free: list[int], mate: dict[int, int]) -> set[int]:
    """Right vertices that alternating paths from the ``free`` left vertices
    reach, by breadth-first search over the matching ``mate``."""
    reached: set[int] = set()
    queue = list(free)
    for u in queue:
        for v in adj[u]:
            if v not in reached:
                reached.add(v)
                if v in mate:
                    queue.append(mate[v])
    return reached


def check_max_matching(adj: list[list[int]], right: int, mate: dict[int, int], trial: int) -> None:
    given = [u for u in range(len(adj)) if u not in mate.values()]
    rows = [sum(1 << v for v in vs) for vs in adj]
    free, reach = row_matching(rows, (1 << right) - 1, given, mate)
    assert all(v in adj[u] for v, u in mate.items()), trial
    assert len(set(mate.values())) == len(mate), trial
    assert len(mate) == kuhn_matching_size(adj, right), trial
    assert free == [u for u in given if u not in mate.values()], trial
    assert reach == sum(1 << v for v in alternating_reach(adj, free, mate)), trial


def test_max_matching_returns_free_vertices_and_their_reach():
    """A maximum matching from an empty or a valid partial start, the left
    vertices it leaves free (edgeless ones among them), and the right
    vertices alternating paths from those reach: the Koenig cover that
    ``unseeded_cover_family`` reads."""
    rng = random.Random(5)
    for trial in range(200):
        left, right = rng.randint(1, 12), rng.randint(1, 24)
        adj = [rng.sample(range(right), rng.randint(0, min(right, 4))) for _ in range(left)]
        check_max_matching(adj, right, {}, trial)
        partial: dict[int, int] = {}
        for u in rng.sample(range(left), left):
            open_edges = [v for v in adj[u] if v not in partial]
            if open_edges and rng.random() < 0.5:
                partial[rng.choice(open_edges)] = u
        check_max_matching(adj, right, partial, trial)
    assert row_matching([], 0, [], {}) == ([], 0)


def test_max_matching_on_dense_rows():
    """The matcher on random rows with 90-97% of pairs
    present, read through a random kept mask: the matching is maximum and
    the reach is the alternating one, as with plain neighbour lists."""
    rng = random.Random(6)
    count = 200
    for trial in range(6):
        density = rng.uniform(0.9, 0.97)
        rows = [sum(1 << v for v in range(count) if v != u and rng.random() < density)
                for u in range(count)]
        keep = sum(1 << v for v in range(count) if rng.random() < 0.9)
        adj = [list(solver._bits(row & keep)) for row in rows]
        mate: dict[int, int] = {}
        free, reach = row_matching(rows, keep, list(range(count)), mate)
        assert all(v in adj[u] for v, u in mate.items()), trial
        assert len(set(mate.values())) == len(mate) == kuhn_matching_size(adj, count), trial
        assert free == [u for u in range(count) if u not in mate.values()], trial
        assert reach == sum(1 << v for v in alternating_reach(adj, free, mate)), trial


def test_cover_family_does_not_depend_on_the_matching():
    """``_cover_family`` seeds its matching greedily, and ``row_matching``
    grown from every kept vertex that has a row gives the same family: the
    Koenig split is read off what alternating paths from the free left
    copies reach, which is the same for every maximum matching. On the
    subset families of path(1..10) and all_loops(10), the two nearly
    complete H instances, and 60 seeded random relations, some of their
    vertices left out of the size search."""
    graphs = [subset_graph(g) for g in [path(n) for n in range(1, 11)] + [all_loops(10)]]
    graphs += [solver._unrelated_mappings(path(n), g, n) for g, n in ((Graph(16, []), 3), (path(64), 2))]
    cases = [(rows, kept) for _, rows, kept in graphs]
    rng = random.Random(30)
    for _ in range(60):
        count = rng.randint(1, 60)
        _, rows, _ = complement_graph(random_instance(count, rng.uniform(0.02, 0.98), rng.getrandbits(32)))
        cases.append((rows, [rng.random() < 0.8 for _ in range(count)]))
    for case, (rows, kept) in enumerate(cases):
        assert solver._cover_family(rows, kept) == unseeded_cover_family(rows, kept), case


def test_exact_M_witness():
    res = exact_M(3)
    assert {str(w) for w in res.witness} == MAX_FAMILY_WITNESS_3
    for a, b in itertools.combinations(res.witness, 2):
        assert skewincident(a, b)
    res2 = exact_M(2)
    assert [str(w) for w in res2.witness] == ["01", "10", "11"]
    res1 = exact_M(1)
    assert res1.size == 1 and [str(w) for w in res1.witness] == ["0"]


# SHA-256 of the space-joined exact_M(n) witness, recorded when every
# completion of the witness pass was decided by a search; n = 12 recorded
# from the unseeded engine (size search from the greedy floor, then the
# repair-first witness pass)
EXACT_M_WITNESS_SHA256 = {
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "8147349b2360102cc67c7193fa4160e1077024716bca95cb9111388645d4970a",
    3: "09bf8e27d54f5df6f9f1278e89a6d993d4d9786cae182fe74a79e0523e038e0f",
    4: "e2b3de20e6fb00df2911c57f7fabfc34432c0c0ebf7ed8c798dccea3bd67c01b",
    5: "9b999ddea797c5b71c5e7874ed579bd405f15ba53291d39b91749c65ff724a2d",
    6: "dedb75cbb182e3cbe1c9792d37ecf58c1c1d81b86a0d572ad60d17e474d42789",
    7: "4895a1acac4e26784aaa9302e0e82eb6090c3b7ad2a7be68f51538f2e6f999f5",
    8: "47d03a3316c176502e57ce4c35a789fabc1a5674ba11112db3e82e13864494c2",
    9: "20d1b8c14d62108b96af9f78cb000d0426048452a5c090e1bcd0c78ce3e10e6b",
    10: "65d4db30602455faf087ab1518ea04292bda6df638ded129178e8417fcbdcde4",
    11: "9dc89aebb3bba7d2ed4c57fcd10eddcb514adb7e27ccaffe73b5a294c097a5c7",
    12: "8c3b76ea4d527a9bfcc8321c0d823f8c92d7eb434ea3eecc80a422bc82566a25",
}


def test_exact_M_witness_digests():
    for n, digest in EXACT_M_WITNESS_SHA256.items():
        witness = " ".join(str(w) for w in exact_M(n, override_cap=True).witness)
        assert hashlib.sha256(witness.encode()).hexdigest() == digest, n


def test_exact_M_cap_and_override():
    with pytest.raises(ValueError):
        exact_M(9)
    with pytest.raises(ValueError):
        exact_M(13, override_cap=True)
    res = exact_M(9, override_cap=True)
    assert res.size >= exact_M(8).size


def unseeded_subset_family(g: Graph):
    """The subset-family optimum from ``max_clique`` on the relation's dense
    rows, whose H is their complement, with no shifting."""
    nbrs = [g.neighbors(v) for v in range(g.vertex_count)]
    return max_clique(CliqueInstance.from_neighborhoods(nbrs, range(1 << g.vertex_count)))


def test_seeded_subset_family_matches_unseeded_engine():
    """Size and witness of ``exact_MG`` against ``max_clique`` on the same
    relation: two builds of H, one from per-position products with the
    raised subsets left out of the size search, one by complementing dense
    rows with every subset kept. On random graphs with loops, K_{3,3,3}, paths,
    all-loops and edgeless."""
    rng = random.Random(40)
    graphs = []
    for _ in range(40):
        vertices = rng.randint(2, 9)
        density = rng.uniform(0.15, 0.6)
        pairs = [(u, v) for u in range(vertices) for v in range(u, vertices)]
        graphs.append(Graph(vertices, [e for e in pairs if rng.random() < density]))
    graphs += [complete_multipartite((3, 3, 3)), all_loops(10), Graph(6, [])]
    graphs += [path(n) for n in range(1, 11)]
    for g in graphs:
        res = exact_MG(g)
        ref = unseeded_subset_family(g)
        assert res.size == ref.size, g
        assert res.witness == [tuple(solver._bits(m)) for m in ref.witness], g


def class_cover_certificate(g: Graph, size: int) -> None:
    """The upper certificate of the subset route, checked without it: its
    greedy classes partition all subsets, and any two distinct members of a
    class contain no adjacent pair, so a family takes at most one member of
    each; there are exactly ``size`` classes."""
    pos, rows, _ = subset_graph(g)
    order = sorted(range(len(pos)), key=pos.__getitem__)
    cover = solver._clique_cover(rows, (1 << len(rows)) - 1)
    classes = [[order[v] for v in solver._bits(c)] for c in cover]
    assert sorted(x for members in classes for x in members) == list(range(len(pos)))
    nbrs = [g.neighbors(v) for v in range(g.vertex_count)]
    for members in classes:
        for a, b in itertools.combinations(members, 2):
            assert not any(nbrs[u] & b for u in solver._bits(a)), (g, a, b)
    assert len(classes) == size, g


def test_class_cover_meets_the_size():
    for n in range(1, 13):
        class_cover_certificate(path(n), MAX_FAMILY[n])
    for g, size in ((path(9), 395), (all_loops(10), 512), (complete_multipartite((3, 3, 3)), 493)):
        class_cover_certificate(g, size)
        assert exact_MG(g).size == size


def test_forced_fallback_keeps_the_witnesses(monkeypatch):
    """With every repair giving up, each completion the class count does not
    refute goes to the exact search, and the witnesses stay the same; the
    search work on path(9) is pinned after the root cover."""
    expected = exact_MG(path(9)).witness
    repairs = []
    searches = []
    colored = []
    search = solver._search
    cover = solver._clique_cover

    def colour(rows, rest):
        colored.append(rest.bit_count())
        return cover(rows, rest)

    def give_up(rows, known, hit, cand, need):
        repairs.append(need)
        return 0

    def counted(rows, p, floor, stop):
        searches.append(stop)
        return search(rows, p, floor, stop)

    monkeypatch.setattr(solver, "_repair", give_up)
    monkeypatch.setattr(solver, "_search", counted)
    monkeypatch.setattr(solver, "_clique_cover", colour)
    for n in range(1, 10):
        repairs.clear()
        searches.clear()
        witness = " ".join(str(w) for w in exact_M(n, override_cap=True).witness)
        assert hashlib.sha256(witness.encode()).hexdigest() == EXACT_M_WITNESS_SHA256[n], n
        assert searches == [need for need in repairs if need], n
    repairs.clear()
    searches.clear()
    colored.clear()
    assert exact_MG(path(9)).witness == expected
    assert searches == [need for need in repairs if need] and len(searches) >= 12
    root, *search_colored = colored
    assert (root, len(search_colored), sum(search_colored)) == (2 ** 9, 4137, 694071)


def test_kernel_search_without_greedy(monkeypatch):
    """The Nemhauser-Trotter kernel's family, and every completion a repair
    no longer grows, comes from the exact search when greedy adds nothing,
    with the same sizes and witnesses."""
    graphs = [path(n) for n in range(1, 10)] + [complete_multipartite((2, 2, 2))]
    expected = [exact_MG(g) for g in graphs]
    monkeypatch.setattr(solver, "_greedy_clique", lambda rows, cand, need: 0)
    for g, ref in zip(graphs, expected):
        res = exact_MG(g)
        assert (res.size, res.witness) == (ref.size, ref.witness), g


def test_subset_route_beyond_the_cap():
    """M(13) and M(14) from the subset route with both certificates: the
    witness is pairwise skewincident, and as many greedy classes of
    pairwise non-skewincident strings cover all strings. exact_M stays
    capped at 12."""
    for n, size in ((13, 6826), (14, 13855)):
        res = solver._subset_family(path(n))
        assert res.size == len(res.witness) == size
        assert verify_pairwise_skewincident(Family(n, tuple(res.witness))) is None
        class_cover_certificate(path(n), size)


def test_exact_MG_small_graphs():
    assert exact_MG(complete_multipartite((1, 1))).size == 3
    assert exact_MG(complete_multipartite((1, 1, 1))).size == 7
    assert exact_MG(Graph(3, [])).size == 1  # no edges: singleton family


def test_exact_MG_equals_exact_M_on_paths():
    for n in range(1, 6):
        assert exact_MG(path(n)).size == exact_M(n).size, n


def test_exact_MG_witnesses_are_neighbor_subsets():
    g = complete_multipartite((2, 2))
    res = exact_MG(g)
    assert res.size == multipartite_M((2, 2)) == 11
    for a, b in itertools.combinations(res.witness, 2):
        assert any(g.adjacent(u, v) for u in a for v in b)


def test_exact_MG_cap():
    with pytest.raises(ValueError):
        exact_MG(path(13))


def test_multipartite_closed_form():
    assert multipartite_M((2, 2)) == 11
    assert multipartite_M((1, 1, 1)) == 7
    assert multipartite_M((1,)) == 1
    # the two-part closed form and the general display agree
    for m, n in itertools.product(range(1, 7), repeat=2):
        assert multipartite_M((m, n)) == (2 ** m - 1) * (2 ** n - 1) + 2


def test_multipartite_matches_search():
    parts_list = [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 2, 1), (4,)]
    for parts in parts_list:
        assert exact_MG(complete_multipartite(parts)).size == multipartite_M(parts), parts


def test_multipartite_witness_structure():
    """At most one chosen subset fits inside any single part."""
    for parts in ((2, 2), (3, 2), (2, 1, 1)):
        g = complete_multipartite(parts)
        res = exact_MG(g)
        start = 0
        for size in parts:
            block = set(range(start, start + size))
            inside = [w for w in res.witness if set(w) <= block]
            assert len(inside) <= 1, (parts, block)
            start += size


def test_attractive_reduces_to_skewincidence():
    """Mappings of the path to the skew alphabet are the strings, in the same
    order: their sizes and witnesses are the frozen skewincidence ones."""
    for n, size in MAX_FAMILY.items():
        res = exact_attractive(path(n), skew_alphabet(), n)
        witness = " ".join("".join(map(str, m)) for m in res.witness)
        assert (res.size, hashlib.sha256(witness.encode()).hexdigest()) == (
            size, EXACT_M_WITNESS_SHA256[n]), n


def test_attractive_witness_digests():
    graphs = {
        "path:7": path(7), "path:6": path(6), "path:3": path(3), "all-loops:5": all_loops(5),
        "multipartite:1,1,1": complete_multipartite((1, 1, 1)),
        "multipartite:2,1": complete_multipartite((2, 1)),
    }
    for (f_graph, g_graph, n), (size, digest) in ATTRACTIVE_WITNESS_SHA256.items():
        res = exact_attractive(graphs[f_graph], graphs[g_graph], n)
        witness = " ".join("".join(map(str, m)) for m in res.witness)
        assert (res.size, hashlib.sha256(witness.encode()).hexdigest()) == (size, digest), f_graph


def test_attractive_dense_unrelated_graphs_are_pinned():
    """Two instances where few pairs are related, so H is nearly complete:
    ``attractive --n 3 --alphabet-graph edgeless:16`` (no related pair) and
    ``attractive --n 2 --alphabet-graph path:64`` (about 6% of pairs related).
    Sizes and SHA-256 of the comma-joined witnesses; the witness is checked
    pairwise attractive from ``Graph.adjacent`` alone."""
    cases = (
        (Graph(16, []), 3, 1, "7c01691d53eb209bba1ea4ade72c86e6e85b6efbec920cc9ca5756e7c4e98c55"),
        (path(64), 2, 6, "f14da8a5d4e986323cba24637e2b9187e9cc2255b5bea908864131873f6c1ec5"),
    )
    for g_graph, n, size, digest in cases:
        res = exact_attractive(path(n), g_graph, n)
        witness = " ".join(",".join(map(str, m)) for m in res.witness)
        assert (res.size, hashlib.sha256(witness.encode()).hexdigest()) == (size, digest), g_graph
        for a, b in itertools.combinations(res.witness, 2):
            assert any(path(n).adjacent(i, j) and g_graph.adjacent(a[i], b[j])
                       for i in range(n) for j in range(n)), (a, b)


def test_attractive_all_loops_k2():
    k2 = complete_multipartite((1, 1))
    for n in range(1, 5):
        res = exact_attractive(all_loops(n), k2, n)
        assert res.size == 2 ** n, n
    # two distinct mappings always differ somewhere, so everything is related
    res = exact_attractive(all_loops(2), k2, 2)
    assert sorted(res.witness) == sorted(itertools.product((0, 1), repeat=2))


def test_attractive_edgeless_positions():
    assert exact_attractive(Graph(3, []), skew_alphabet(), 3).size == 1
    assert exact_attractive(Graph(2, []), complete_multipartite((1, 1)), 2).size == 1


def test_attractive_validation():
    with pytest.raises(ValueError):
        exact_attractive(path(2), skew_alphabet(), 3)  # too few positions
    with pytest.raises(ValueError):
        exact_attractive(path(13), complete_multipartite((6, 6)), 13)
    with pytest.raises(ValueError):
        exact_attractive(path(1), skew_alphabet(), 0)


def test_sandwich_reports():
    expected = {
        1: (0, 1, 1),
        2: (1, 3, 3),
        3: (3, 5, 6),
        4: (8, 11, 12),
        5: (17, 22, 25),
        6: (38, 46, 53),
    }
    for n, (lo, mid, hi) in expected.items():
        rep = sandwich_check(n)
        assert (rep.construction_size, rep.exact_size, rep.upper_bound) == (lo, mid, hi)
        assert rep.ok
    with pytest.raises(ValueError):
        sandwich_check(9)


def test_result_serialization(capsys):
    def payload(*argv: str) -> dict:
        assert main(list(argv) + ["--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    timed = payload("exact-m", "--n", "3", "--timing")
    assert timed["size"] == 5
    assert timed["method"] == "branch-and-bound"
    assert set(timed["witness"]) == MAX_FAMILY_WITNESS_3
    assert "elapsed_ms" in timed
    bare = payload("exact-m", "--n", "3")
    assert "elapsed_ms" not in bare
    sub = payload("graph-m", "--graph", "path:2")
    assert all(isinstance(w, list) for w in sub["witness"])
