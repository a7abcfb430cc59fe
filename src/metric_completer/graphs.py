"""Edge-labelled graphs with partial integer distances.

Also the brute-force searches used to certify results on small instances:
one backtracking search for homomorphisms, automorphisms and partial
automorphisms, and the extension-property verifier built on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, FormatError, PreconditionError, RangeError
from .params import Params, TriangleStatus, classify_triangle, fork_families


class EdgeLabelledGraph:
    """A finite vertex set with a symmetric partial distance function.

    Vertices are the integers 0..vertex_count-1.  Each unordered pair either
    carries a positive integer distance or is a non-edge.  Instances are
    treated as immutable: every algorithm builds a new graph instead of
    mutating one in place.
    """

    __slots__ = ("vertex_count", "edges", "_hash")

    def __init__(self, vertex_count: int, edges=()):
        if type(vertex_count) is not int or vertex_count < 0:
            raise FormatError(f"bad vertex count {vertex_count!r}")
        normalized: dict[tuple[int, int], int] = {}
        for u, v, d in edges:
            if not all(type(x) is int for x in (u, v, d)):
                raise FormatError(f"bad edge ({u!r}, {v!r}, {d!r})")
            if u == v:
                raise FormatError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise FormatError(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
            if d < 1:
                raise FormatError(f"non-positive distance {d} on edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if normalized.get(key, d) != d:
                raise FormatError(f"conflicting distances on edge {key}")
            normalized[key] = d
        self.vertex_count = vertex_count
        self.edges = normalized  # treat as read-only
        self._hash = None

    def distance(self, u: int, v: int) -> int | None:
        """The distance between u and v, 0 on the diagonal, None when unset."""
        if u == v:
            return 0
        return self.edges.get((u, v) if u < v else (v, u))

    def pairs(self):
        return itertools.combinations(range(self.vertex_count), 2)

    def non_edges(self) -> list[tuple[int, int]]:
        return [p for p in self.pairs() if p not in self.edges]

    def is_complete(self) -> bool:
        n = self.vertex_count
        return len(self.edges) == n * (n - 1) // 2

    def matrix(self) -> list[list[int]]:
        """Dense distance matrix with 0 for both the diagonal and non-edges."""
        n = self.vertex_count
        m = [[0] * n for _ in range(n)]
        for (u, v), d in self.edges.items():
            m[u][v] = m[v][u] = d
        return m

    def induced(self, vertices) -> "EdgeLabelledGraph":
        """The induced subgraph on ``vertices``, reindexed in the given order."""
        verts = list(vertices)
        index = {v: i for i, v in enumerate(verts)}
        if len(index) != len(verts):
            raise FormatError("repeated vertex in induced subgraph")
        triples = []
        for x, y in itertools.combinations(verts, 2):
            d = self.distance(x, y)
            if d is not None:
                triples.append((index[x], index[y], d))
        return EdgeLabelledGraph(len(verts), triples)

    def __eq__(self, other):
        if not isinstance(other, EdgeLabelledGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vertex_count, frozenset(self.edges.items())))
        return self._hash

    def __repr__(self):
        return f"EdgeLabelledGraph({self.vertex_count}, {sorted(self.edges.items())})"


def build_graph(vertex_count: int, edge_list, params: Params) -> EdgeLabelledGraph:
    """Validated construction from (u, v, distance) triples."""
    g = EdgeLabelledGraph(vertex_count, edge_list)
    for (u, v), d in g.edges.items():
        if d > params.delta:
            raise RangeError(f"distance {d} on edge ({u}, {v}) exceeds {params.delta}")
    return g


def cycle_graph(labels) -> EdgeLabelledGraph:
    """The cycle whose consecutive edges carry the given labels."""
    seq = tuple(labels)
    if len(seq) < 3:
        raise RangeError("a cycle needs at least 3 labels")
    n = len(seq)
    return EdgeLabelledGraph(n, [(i, (i + 1) % n, seq[i]) for i in range(n)])


def canonical_cycle(labels) -> tuple[int, ...]:
    """The smallest label sequence over all rotations and both orientations."""
    seq = tuple(labels)
    if len(seq) < 3:
        raise RangeError("a cycle needs at least 3 labels")
    candidates = []
    for variant in (seq, seq[::-1]):
        for i in range(len(variant)):
            candidates.append(variant[i:] + variant[:i])
    return min(candidates)


@dataclass(frozen=True)
class TriangleViolation:
    vertices: tuple[int, int, int]
    distances: tuple[int, int, int]  # ascending
    status: TriangleStatus

    def describe(self) -> str:
        sides = ",".join(str(d) for d in self.distances)
        verts = ",".join(str(v) for v in self.vertices)
        return f"{self.status.value} {sides} (vertices {verts})"


def violations(
    g: EdgeLabelledGraph, params: Params, matrix: list[list[int]] | None = None
) -> list[TriangleViolation]:
    """All forbidden triangles among fully specified triples, in scan order:
    (i, j, k) ascending with i < j < k.

    Each edge (i, j) walks the rows ``matrix[i][j+1:]`` and
    ``matrix[j][j+1:]`` against ForkFamilies.bad, where an index of 0 reads
    None.  ``matrix`` is ``g.matrix()``, passed by a caller that has built it
    already.  A label above delta misses the table; the graph is then walked
    triangle by triangle through classify_triangle, which raises RangeError
    only in a fully specified triangle.
    """
    dist = g.matrix() if matrix is None else matrix
    bad = fork_families(None, params).bad
    n = g.vertex_count
    out = []
    try:
        for i in range(n - 2):
            row_i = dist[i]
            for j in range(i + 1, n - 1):
                a = row_i[j]
                if not a:
                    continue
                row_j = dist[j]
                bad_a = bad[a]
                for k in range(j + 1, n):
                    status = bad_a[row_i[k]][row_j[k]]
                    if status is not None:
                        sides = tuple(sorted((a, row_i[k], row_j[k])))
                        out.append(TriangleViolation((i, j, k), sides, status))
    except IndexError:  # a label above delta
        out = []
        for i, j, k in itertools.combinations(range(n), 3):
            sides = (dist[i][j], dist[i][k], dist[j][k])
            if all(sides):
                status = classify_triangle(*sides, params)
                if status is not TriangleStatus.ALLOWED:
                    out.append(TriangleViolation((i, j, k), tuple(sorted(sides)), status))
    return out


def _distance_maps(source: EdgeLabelledGraph, target: EdgeLabelledGraph, embed: bool):
    """Yield, as image tuples in lexicographic order, every map of ``source``
    into ``target`` that preserves each defined distance, by backtracking.

    With ``embed`` non-edges must map to non-edges too; as distinct vertices
    are never at distance 0, that also makes the map injective.
    """
    n = source.vertex_count
    m = target.vertex_count
    rows = [[target.distance(x, y) for y in range(m)] for x in range(m)]
    constraints = [
        [(j, d) for j in range(i) if (d := source.distance(j, i)) is not None or embed]
        for i in range(n)
    ]
    images = [0] * n

    def extend(i: int):
        if i == n:
            yield tuple(images)
            return
        checks = constraints[i]
        for candidate in range(m):
            row = rows[candidate]
            for j, d in checks:  # a plain loop: all() over a generator is ~3x slower
                if row[images[j]] != d:
                    break
            else:
                images[i] = candidate
                yield from extend(i + 1)

    return extend(0)


def find_homomorphism(source: EdgeLabelledGraph, target: EdgeLabelledGraph):
    """A map preserving every defined distance, by backtracking; None if none.

    The map may identify vertices of ``source`` as long as no edge collapses.
    Returns the first map in lexicographic image order.
    """
    return next(_distance_maps(source, target, embed=False), None)


def automorphisms(g: EdgeLabelledGraph, max_vertices: int = 9) -> list[tuple[int, ...]]:
    """All distance-preserving vertex bijections, in lexicographic order.

    Non-edges must map to non-edges, so this is exact for partial graphs too.
    """
    if g.vertex_count > max_vertices:
        raise CapacityError(f"automorphism search capped at {max_vertices} vertices")
    return list(_distance_maps(g, g, embed=True))


def is_partial_automorphism(g: EdgeLabelledGraph, mapping: dict[int, int]) -> bool:
    """True when ``mapping`` is an isomorphism between the induced subgraphs
    on its domain and on its range."""
    items = sorted(mapping.items())
    values = [fv for _, fv in items]
    if len(set(values)) != len(values):
        return False
    for v in list(mapping) + values:
        if not 0 <= v < g.vertex_count:
            return False
    for (x, fx), (y, fy) in itertools.combinations(items, 2):
        if g.distance(x, y) != g.distance(fx, fy):
            return False
    return True


def partial_automorphisms(g: EdgeLabelledGraph, max_vertices: int = 5):
    """Every partial automorphism, ordered by domain and then by images.

    Each domain's maps are the embeddings of its induced subgraph into ``g``.
    Includes the empty map and all singleton maps.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise CapacityError(f"partial automorphism search capped at {max_vertices} vertices")
    return [
        dict(zip(dom, images))
        for size in range(n + 1)
        for dom in itertools.combinations(range(n), size)
        for images in _distance_maps(g.induced(dom), g, embed=True)
    ]


@dataclass(frozen=True)
class EppaReport:
    holds: bool
    checked: int
    failing: tuple[tuple[int, int], ...] | None = None

    def describe(self) -> str:
        if self.holds:
            return f"holds ({self.checked} partial automorphisms extend)"
        pairs = " ".join(f"{x}->{y}" for x, y in self.failing)
        return f"fails at partial automorphism {{{pairs}}}"


def verify_eppa_witness(
    small: EdgeLabelledGraph,
    big: EdgeLabelledGraph,
    inclusion=None,
    max_small: int = 5,
    max_big: int = 9,
) -> EppaReport:
    """Check that every partial automorphism of ``small`` extends to a full
    automorphism of ``big``.

    ``small`` must sit inside ``big`` as an induced subgraph via ``inclusion``
    (vertex i of small is vertex inclusion[i] of big; identity by default).
    Reports the first partial automorphism without an extension.
    """
    if inclusion is None:
        inclusion = tuple(range(small.vertex_count))
    else:
        inclusion = tuple(inclusion)
    if len(inclusion) != small.vertex_count:
        raise PreconditionError("inclusion map must cover every vertex of the subgraph")
    if len(set(inclusion)) != len(inclusion) or any(
        not 0 <= x < big.vertex_count for x in inclusion
    ):
        raise PreconditionError("inclusion map must embed vertices injectively")
    for x, y in itertools.combinations(range(small.vertex_count), 2):
        if small.distance(x, y) != big.distance(inclusion[x], inclusion[y]):
            raise PreconditionError("subgraph is not induced under the inclusion map")

    auts = automorphisms(big, max_vertices=max_big)
    checked = 0
    for pmap in partial_automorphisms(small, max_vertices=max_small):
        checked += 1
        wanted = [(inclusion[x], inclusion[fx]) for x, fx in sorted(pmap.items())]
        if not any(all(aut[src] == dst for src, dst in wanted) for aut in auts):
            return EppaReport(False, checked, tuple(sorted(pmap.items())))
    return EppaReport(True, checked)


def parse_graph(text: str) -> tuple[Params, EdgeLabelledGraph]:
    """Parse the line-based graph format; see format_graph for the layout.

    Edge lines may come in any order; blank lines and '#' comments are
    ignored.
    """
    param_values = None
    vertex_count = None
    triples = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0], fields[1:]
        try:
            values = [int(x) for x in args]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field in {line!r}")
        if keyword == "params":
            if param_values is not None:
                raise FormatError(f"line {lineno}: repeated params line")
            if len(values) != 3:
                raise FormatError(f"line {lineno}: params needs delta k c")
            param_values = values
        elif keyword == "vertices":
            if vertex_count is not None:
                raise FormatError(f"line {lineno}: repeated vertices line")
            if len(values) != 1:
                raise FormatError(f"line {lineno}: vertices needs one count")
            vertex_count = values[0]
        elif keyword == "edge":
            if len(values) != 3:
                raise FormatError(f"line {lineno}: edge needs u v d")
            triples.append(tuple(values))
        else:
            raise FormatError(f"line {lineno}: unknown keyword {keyword!r}")
    if param_values is None:
        raise FormatError("missing params line")
    if vertex_count is None:
        raise FormatError("missing vertices line")
    params = Params(*param_values)
    return params, build_graph(vertex_count, triples, params)


def format_graph(params: Params, g: EdgeLabelledGraph) -> str:
    """Write a graph in the line-based text format, edges sorted by pair."""
    lines = [
        f"params {params.delta} {params.k} {params.c}",
        f"vertices {g.vertex_count}",
    ]
    for (u, v), d in sorted(g.edges.items()):
        lines.append(f"edge {u} {v} {d}")
    return "\n".join(lines) + "\n"
