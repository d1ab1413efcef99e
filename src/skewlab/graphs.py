"""Finite undirected graphs with loops, and the generators the searches need."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .record import Record

MAX_VERTICES = 4096


class Partition(Record):
    """Sizes of the parts of a complete multipartite graph."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        if len(parts) < 1:
            raise ValueError("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"every part must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def as_partition(p: Partition | Sequence[int]) -> Partition:
    """Coerce a plain sequence of part sizes into a validated Partition."""
    return p if isinstance(p, Partition) else Partition(tuple(p))


class Graph:
    """Undirected graph on vertices 0..vertex_count-1; loops allowed.

    Adjacency is stored as one bitset per vertex. Instances are never
    mutated after construction, so they are safe to share across callers.
    """

    __slots__ = ("vertex_count", "_rows")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        # checked before ``edges`` is read: the generators below pass their edges
        # lazily, so an oversized graph is refused before any edge exists
        if not 1 <= vertex_count <= MAX_VERTICES:
            raise ValueError(f"vertex_count must be in [1, {MAX_VERTICES}], got {vertex_count}")
        self.vertex_count = vertex_count
        rows = [0] * vertex_count
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._rows = rows

    def adjacent(self, u: int, v: int) -> bool:
        return self._rows[u] >> v & 1 == 1

    def neighbors(self, u: int) -> int:
        """Neighborhood of u as a bitset (includes u itself for a loop)."""
        return self._rows[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u <= v; a loop appears as (u, u)."""
        out = []
        for u in range(self.vertex_count):
            row = self._rows[u] >> u
            v = u
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self._rows == other._rows

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, edges={self.edges()!r})"

    @staticmethod
    def from_text(text: str) -> Graph:
        """Parse a vertex count line, then one "u v" line per edge; blank lines
        are skipped, and malformed or out-of-range input is rejected."""
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty graph text")
        try:
            count = int(lines[0])
        except ValueError:
            raise ValueError(f"bad vertex count line: {lines[0]!r}") from None
        edges = []
        for line in lines[1:]:
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(f"bad edge line: {line!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ValueError(f"bad edge line: {line!r}") from None
            edges.append((u, v))
        return Graph(count, edges)


def path(n: int) -> Graph:
    """Path on n vertices: edges (i, i+1), no loops."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def complete_multipartite(p: Partition | Sequence[int]) -> Graph:
    """Complete multipartite graph; vertices grouped into consecutive blocks
    of the given part sizes, adjacent iff they lie in different parts. Each
    part's vertices share one row, every vertex outside the part, so no edge
    is listed: an oversized graph is refused, and a large one built, at once."""
    part = as_partition(p)
    g = Graph(part.total)
    full = (1 << part.total) - 1
    g._rows = []
    start = 0
    for size in part.parts:
        g._rows += [full ^ (1 << start + size) - (1 << start)] * size
        start += size
    return g


def all_loops(n: int) -> Graph:
    """n vertices whose only edges are a loop at every vertex."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Graph(n, ((u, u) for u in range(n)))


def skew_alphabet() -> Graph:
    """Two vertices 0 and 1 with a loop at vertex 1 as the only edge."""
    return Graph(2, [(1, 1)])
