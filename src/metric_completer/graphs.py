"""Edge-labelled graphs with partial integer distances.

Also the brute-force searches used to certify results on small instances:
one backtracking search for homomorphisms, automorphisms and partial
automorphisms, and the extension-property verifier built on them.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import CapacityError, FormatError, PreconditionError, RangeError
from .params import Params, TriangleStatus, _check_distance, _triangle_table


MAX_VERTICES = 1000  # the most vertices EdgeLabelledGraph.matrix() builds for


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
            if type(u) is not int or type(v) is not int or type(d) is not int:
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

    @classmethod
    def _trusted(cls, vertex_count: int, edges: dict[tuple[int, int], int]):
        """A graph that takes ``edges`` as its own without checking it.

        For the package's own results only: ``edges`` must already be what
        __init__ would build, keys (u, v) with 0 <= u < v < vertex_count and
        positive int labels, and no one may change it afterwards.
        """
        g = object.__new__(cls)
        g.vertex_count = vertex_count
        g.edges = edges
        g._hash = None
        return g

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
        """Dense distance matrix with 0 for both the diagonal and non-edges;
        more than MAX_VERTICES vertices raise CapacityError before it exists."""
        n = self.vertex_count
        if n > MAX_VERTICES:
            raise CapacityError(f"{n} vertices exceed the engine's cap of {MAX_VERTICES}")
        m = [[0] * n for _ in range(n)]
        for (u, v), d in self.edges.items():
            m[u][v] = m[v][u] = d
        return m

    def induced(self, vertices) -> "EdgeLabelledGraph":
        """The induced subgraph on ``vertices``, reindexed in the given order.

        The first vertex that is not an int in 0..vertex_count-1 raises
        FormatError, as does a repeated one.
        """
        verts = list(vertices)
        n = self.vertex_count
        for v in verts:
            if type(v) is not int or not 0 <= v < n:
                raise FormatError(f"vertex {v!r} outside 0..{n - 1}")
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
    """Validated construction from (u, v, distance) triples: the graph's own
    checks first, then each label against delta, the first offender in edge
    order named."""
    g = EdgeLabelledGraph(vertex_count, edge_list)
    if max(g.edges.values(), default=0) > params.delta:
        for (u, v), d in g.edges.items():
            if d > params.delta:
                raise RangeError(f"distance {d} on edge ({u}, {v}) exceeds {params.delta}")
    return g


def cycle_graph(labels) -> EdgeLabelledGraph:
    """The cycle whose consecutive edges carry the given labels.

    Edge i joins i and (i + 1) % n.
    """
    seq = tuple(labels)
    n = len(seq)
    if n < 3:
        raise RangeError("a cycle needs at least 3 labels")
    return EdgeLabelledGraph(n, [(i, (i + 1) % n, d) for i, d in enumerate(seq)])


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


# From this many vertices on, violations() walks bitsets (_walk) instead of
# running the row scan.  The walk builds bitsets and masks of up to delta^2
# third sides, which on small graphs costs more than the triangles it skips.
# At (6, 2, 15) (Python 3.11, shared 2-core VM, best of 5) the walk overtook
# the row scan, on inputs with no forbidden triangle, near 20 vertices on
# labelled trees, 36 on graphs of average degree 3, 56 at degree 8 and 64
# with every pair set; with half the pairs set it still took 1.09 times the
# row scan's time at 96.  On the engine's completed graphs it overtook it
# below 16 vertices on trees and near 20 at average degree 3.  32 sits
# among these crossovers.
BITSET_MIN_VERTICES = 32


class ViolationView(Sequence):
    """The forbidden triangles of one scan, found again on each pass.

    A view holds the scan's inputs, not its results, and the first
    triangle, which violations() scans for before it builds the view; a
    graph with none gets the one empty view, which is never scanned again.
    So the truth value and ``[0]`` cost nothing more.  Iterating runs the
    scan afresh, in the same order, and yields one TriangleViolation at a
    time, so a caller that streams the triangles holds one at a time.
    ``len()`` and any other index rescan.  A view equals a list, tuple or
    view with the same triangles in the same order.

    The scan reads its matrix (and bitsets) as it runs, so nobody may change
    them once the view is built.
    """

    __slots__ = ("_scan", "_args", "_first")

    def __init__(self, scan, args, first):
        self._scan = scan  # a generator function of args
        self._args = args
        self._first = first  # its first triangle, None for the empty view

    def __iter__(self):
        if self._first is None:
            return iter(())
        return self._scan(*self._args)

    def __bool__(self):
        return self._first is not None

    def __len__(self):
        return sum(1 for _ in self)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index == 0 and self._first is not None:
            return self._first
        if index < 0:
            index += len(self)
        if index >= 0:
            for found in itertools.islice(self, index, None):
                return found
        raise IndexError("violation index out of range")

    # one pass each, where Sequence's own would index, and so rescan, per item
    def __reversed__(self):
        return reversed(list(self))

    def index(self, value, *bounds):
        return list(self).index(value, *bounds)

    def __eq__(self, other):
        if not isinstance(other, (ViolationView, list, tuple)):
            return NotImplemented
        end = object()
        return all(a == b for a, b in itertools.zip_longest(self, other, fillvalue=end))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        head = [repr(v) for v in itertools.islice(self, 4)]
        if len(head) == 4:
            head[3] = "..."
        return f"ViolationView([{', '.join(head)}])"


_NO_VIOLATIONS = ViolationView(None, (), None)


def violations(
    g: EdgeLabelledGraph,
    params: Params,
    matrix: list[list[int]] | None = None,
    bits: list[list[int] | None] | None = None,
) -> ViolationView:
    """All forbidden triangles among fully specified triples, in scan order:
    (i, j, k) ascending with i < j < k, as a lazy ViolationView.

    ``matrix`` is ``g.matrix()``, which refuses more than MAX_VERTICES
    vertices, passed by a caller that has built it already; a label is read
    from it, and an index of 0 reads None in the class's table of forbidden
    triangles (params._triangle_table).  This is the library's one check
    that each label lies in 1..delta: without
    ``bits``, a label above delta raises RangeError from this call, before
    any scan, wherever it sits.

    ``matrix`` and ``bits`` may instead be the engine's: the distance matrix
    and per-label bitsets of the complete graph that complete_magic built
    from ``g`` after this check passed on ``g``, so its labels are not
    checked again.  Bit v of ``bits[d][u]`` is set when u and v are at
    distance d, for d in 1..delta.  One entry may be None; its rows are then
    the pairs no other label holds.

    Below BITSET_MIN_VERTICES vertices each edge (i, j) walks the rows
    ``matrix[i][j+1:]`` and ``matrix[j][j+1:]`` (_row_scan).  From there on
    one walk reads per-label bitsets (_walk), set up in one place from
    ``bits`` or from ones first built from ``g.edges``.  It skips the pairs
    no forbidden triangle can need: without a None entry the holes, as a
    free label m = 0; with one, of a label m with every triangle (m, m, x)
    allowed, as at the engine's magic distance, the pairs at m with no
    third vertex off m on both sides, and for any other m none.  Both scans
    yield the same triangles in the same order.
    """
    n = g.vertex_count
    dist = g.matrix() if matrix is None else matrix
    bad, forbidden = _triangle_table(params)
    if bits is None:
        top = max(g.edges.values(), default=1)
        if top > params.delta:
            _check_distance(top, params.delta)
    if n < BITSET_MIN_VERTICES:
        scan, args = _row_scan, (dist, bad)
    else:
        if bits is None:
            bits = [[0] * n for _ in forbidden]
            for (u, v), d in g.edges.items():
                bits[d][u] |= 1 << v
                bits[d][v] |= 1 << u
        rows = list(bits)
        m = rows.index(None, 1) if None in rows[1:] else 0
        near = [1 << u for u in range(n)]  # bit v: v == u or (u, v) not at m
        for d in range(1, len(rows)):
            if d != m:
                near = [t | x for t, x in zip(near, rows[d])]
        if m:
            full = (1 << n) - 1
            rows[m] = [full ^ t for t in near]
            if any(s is not None for s in bad[m][m]):
                near = [full] * n  # a forbidden (m, m, x): every pair counts
        scan, args = _walk, (dist, near, rows, bad, forbidden, not m)
    first = next(scan(*args), None)
    return _NO_VIOLATIONS if first is None else ViolationView(scan, args, first)


def _row_scan(dist, bad):
    """Yield the forbidden triangles of ``dist`` for violations(), row by row."""
    n = len(dist)
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
                    yield TriangleViolation((i, j, k), sides, status)


def _masks(forbidden_a, mine):
    """``(c, G[a][c])`` for each c with ``G[a][c]`` not 0, where ``G[a][c]``
    is the OR of ``mine[b]`` over the b that ``forbidden_a``, the class's
    ``forbidden[a]``, lists for c (see _walk)."""
    pairs = []
    for c, bs in forbidden_a:
        g = 0
        for b in bs:
            g |= mine[b]
        if g:
            pairs.append((c, g))
    return pairs


def _walk(dist, near, bits, bad, forbidden, hole):
    """Yield what _row_scan yields, in its order, from per-label bitsets.

    Bit v of ``bits[d][u]`` is set when (u, v) has label d, and of
    ``near[u]`` when its label is not the free one: the hole when ``hole``
    is true, else a label m whose triangles (m, m, x) are all allowed.  A
    forbidden triangle has no side at a hole and at most one at m.  Row i
    ORs, over each k > i + 1 in ``near[i]``, the bits below k of
    ``near[k]``; bit j of that ``reach`` is set when some k > j has (i, k)
    and (j, k) near.  So row i visits the pairs (i, j > i) in
    ``near[i] & reach`` for the hole and ``near[i] | reach`` for m, and no
    other pair closes a forbidden triangle with a k > j.

    Triangle (i, j, k) with sides a = ij, b = ik, c = jk is forbidden when
    ``bad[a][b][c]`` is not None.  So for row i and label a, the mask
    ``G[a][c]`` (_masks), the OR of ``bits[b][i]`` over the b that
    ``forbidden[a]`` lists for c, holds every k that closes such a triangle
    with a j at distance c from k, and a pair (i, j) of label a meets one
    exactly where ``bits[c][j] & G[a][c]`` has a bit k > j.  Row i builds
    the masks of label a when a pair first needs them; set bits are listed
    ascending, which keeps the row scan's order.
    """
    n = len(dist)
    columns = list(zip([0] * n, *bits[1:]))  # columns[u][c] is bits[c][u]
    below = [x & ((1 << k) - 1) for k, x in enumerate(near)]
    for i, near_i in enumerate(near):
        reach = 0
        right = near_i >> (i + 2)
        while right:
            low = right & -right
            right ^= low
            reach |= below[low.bit_length() + i + 1]
        right = (near_i & reach if hole else near_i | reach) >> (i + 1)
        row_i = dist[i]
        mine = columns[i]
        masks = {}
        while right:
            low = right & -right
            right ^= low
            j = low.bit_length() + i
            a = row_i[j]
            pairs = masks.get(a)
            if pairs is None:
                pairs = masks[a] = _masks(forbidden[a], mine)
            column = columns[j]
            hits = 0
            for c, g in pairs:
                hits |= column[c] & g
            hits >>= j + 1
            while hits:
                low = hits & -hits
                hits ^= low
                k = low.bit_length() + j
                b, c = row_i[k], dist[j][k]
                yield TriangleViolation((i, j, k), tuple(sorted((a, b, c))), bad[a][b][c])


def _distance_maps(source: EdgeLabelledGraph, target: EdgeLabelledGraph, embed: bool):
    """Yield, as image tuples in lexicographic order, every map of ``source``
    into ``target`` that preserves each defined distance, by backtracking.

    With ``embed`` non-edges must map to non-edges too; as distinct vertices
    are never at distance 0, that also makes the map injective.

    The search is one loop over a position i: ``images[i]`` is the
    candidate vertex i is tried at, -1 before its first, and candidates are
    tried in ascending order, each against the vertices j < i it must keep
    its distance to.
    """
    n = source.vertex_count
    m = target.vertex_count
    rows = [[None] * m for _ in range(m)]  # rows[x][y] is target.distance(x, y)
    for x in range(m):
        rows[x][x] = 0
    for (x, y), d in target.edges.items():
        rows[x][y] = rows[y][x] = d
    # vertex i keeps its distance d to each j < i: its edges, and with embed
    # its non-edges too, at None
    keep = [dict.fromkeys(range(i)) if embed else {} for i in range(n)]
    for (j, i), d in source.edges.items():
        keep[i][j] = d
    constraints = [list(c.items()) for c in keep]
    images = [-1] * n
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(images)
            i -= 1
            continue
        checks = constraints[i]
        candidate = images[i]
        while True:
            candidate += 1
            if candidate == m:
                images[i] = -1
                i -= 1
                break
            row = rows[candidate]
            for j, d in checks:  # a plain loop: all() over a generator is ~3x slower
                if row[images[j]] != d:
                    break
            else:
                images[i] = candidate
                i += 1
                break


def find_homomorphism(source: EdgeLabelledGraph, target: EdgeLabelledGraph):
    """A map preserving every defined distance, by backtracking; None if none.

    The map may identify vertices of ``source`` as long as no edge collapses.
    Returns the first map in lexicographic image order.
    """
    return next(_distance_maps(source, target, embed=False), None)


# The most vertices automorphisms and partial_automorphisms search.
MAX_AUTOMORPHISM_VERTICES = 9
MAX_PARTIAL_AUTOMORPHISM_VERTICES = 5


def automorphisms(g: EdgeLabelledGraph) -> list[tuple[int, ...]]:
    """All distance-preserving vertex bijections, in lexicographic order.

    Non-edges must map to non-edges, so this is exact for partial graphs too.
    """
    if g.vertex_count > MAX_AUTOMORPHISM_VERTICES:
        raise CapacityError(
            f"automorphism search capped at {MAX_AUTOMORPHISM_VERTICES} vertices"
        )
    return list(_distance_maps(g, g, embed=True))


def is_partial_automorphism(g: EdgeLabelledGraph, mapping: dict[int, int]) -> bool:
    """True when ``mapping`` is an isomorphism between the induced subgraphs
    on its domain and on its range."""
    values = list(mapping.values())
    for v in list(mapping) + values:
        if type(v) is not int or not 0 <= v < g.vertex_count:
            return False
    if len(set(values)) != len(values):
        return False
    for (x, fx), (y, fy) in itertools.combinations(mapping.items(), 2):
        if g.distance(x, y) != g.distance(fx, fy):
            return False
    return True


def partial_automorphisms(g: EdgeLabelledGraph):
    """Every partial automorphism, ordered by domain and then by images.

    Each domain's maps are the embeddings of its induced subgraph into ``g``.
    Includes the empty map and all singleton maps.
    """
    n = g.vertex_count
    if n > MAX_PARTIAL_AUTOMORPHISM_VERTICES:
        raise CapacityError(
            "partial automorphism search capped at "
            f"{MAX_PARTIAL_AUTOMORPHISM_VERTICES} vertices"
        )
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

    auts = automorphisms(big)
    checked = 0
    for pmap in partial_automorphisms(small):
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
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[:line.index("#")]
        fields = line.split()
        if not fields:
            continue
        keyword = fields[0]
        try:
            values = tuple(map(int, fields[1:]))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field in {line.strip()!r}")
        if keyword == "edge":
            if len(values) != 3:
                raise FormatError(f"line {lineno}: edge needs u v d")
            triples.append(values)
        elif keyword == "params":
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
