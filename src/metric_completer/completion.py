"""The magic completion engine, a bounded shortest-path baseline, and an
exhaustive completion oracle for cross-checking both."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import CapacityError, PreconditionError
from .graphs import EdgeLabelledGraph, TriangleViolation, violations
from .params import Family, Params, _check_distance, _triangle_table, fork_families


class CompletionStatus(Enum):
    COMPLETED = "completed"
    FAILED = "failed"


# read once: on Python 3.11 an enum member lookup costs more than deciding the status
_COMPLETED = CompletionStatus.COMPLETED
_FAILED = CompletionStatus.FAILED


class TraceStep(NamedTuple):
    """One inserted distance.  A tuple of its fields, so a step equals the
    plain tuple of the same values; the engine and CompletionTrace build it
    with tuple.__new__."""

    rank: int
    distance: int
    u: int
    v: int
    witness: int | None
    fork: tuple[int, int] | None
    family: Family

    def describe(self) -> str:
        if self.family is Family.FINAL:
            return f"final: ({self.u},{self.v}) = {self.distance}"
        if self.family is Family.PATH:
            return f"step {self.rank}: ({self.u},{self.v}) = {self.distance}"
        a, b = self.fork
        return (
            f"rank {self.rank}: ({self.u},{self.v}) = {self.distance} "
            f"witness {self.witness} fork ({a},{b}) {self.family.value}"
        )


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits as 0/1 bytes


class CompletionTrace:
    """The steps a completion inserted, in order, and the graph it finished.

    ``CompletionTrace(listed_steps, fill, dist, graph=None)``: the steps kept
    one by one; ``fill``, which is None or ``(rank, magic, opened)``, with
    bit v of ``opened[u]`` set for each pair (u, v) that took ``magic`` at
    ``rank`` after them, in row-major order; the final distance matrix, 0
    for a pair with no distance; and the final graph, when the producer
    holds it.  Nobody may change them afterwards.  ``steps`` and
    ``final_graph`` are built on first access.  The writers read
    listed_steps, final_rows(), edge_rows() and vertex_count, and the
    back-trace distance(), none of which builds the whole of ``steps`` or
    ``final_graph``.
    """

    __slots__ = ("listed_steps", "_fill", "_dist", "_steps", "_graph")

    def __init__(self, listed_steps, fill, dist, graph=None):
        self.listed_steps = tuple(listed_steps)
        self._fill = fill
        self._dist = dist
        self._graph = graph
        self._steps = None

    def final_rows(self):
        """Yield ``(rank, distance, u, flags)`` for each row u of the
        magic-filled pairs (u, v) that follow listed_steps: byte v of
        ``flags`` is 1 for each such pair and 0 otherwise, and ``flags`` ends
        at the row's last such v, so that ``itertools.compress(seq, flags)``
        picks ``seq[v]`` of each v in ascending order; a trace with no fill
        has none."""
        if self._fill is None:
            return
        rank, magic, opened = self._fill
        for u, bits in enumerate(opened):
            if bits:
                # bin() lists bit 0 last; reversed, byte v is 1 when bit v is
                yield rank, magic, u, bin(bits)[:1:-1].encode().translate(_BIT_BYTES)

    def edge_rows(self):
        """Yield ``(u, vs, ds)`` for each vertex u with an edge (u, v) of
        final_graph with v > u: the edges (u, vs[i], ds[i]) in sorted order."""
        dist = self._dist
        n = len(dist)
        for u, row in enumerate(dist):
            vs, ds = range(u + 1, n), row[u + 1:]
            if 0 in ds:  # the non-edges of a partial graph
                vs = [v for v, d in zip(vs, ds) if d]
                ds = [d for d in ds if d]
            if ds:
                yield u, vs, ds

    def distance(self, u: int, v: int) -> int | None:
        """final_graph.distance(u, v), read without building final_graph."""
        d = self._dist[u][v]
        return d if d or u == v else None

    @property
    def vertex_count(self) -> int:
        """final_graph.vertex_count, read without building final_graph."""
        return len(self._dist)

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        if self._steps is None:
            new, final = tuple.__new__, Family.FINAL
            self._steps = self.listed_steps + tuple(
                new(TraceStep, (rank, magic, u, v, None, None, final))
                for rank, magic, u, flags in self.final_rows()
                for v in itertools.compress(itertools.count(), flags)
            )
        return self._steps

    @property
    def final_graph(self) -> EdgeLabelledGraph:
        if self._graph is None:
            dist = self._dist
            edges = {}
            for pair in itertools.combinations(range(len(dist)), 2):
                u, v = pair
                if dist[u][v]:
                    edges[pair] = dist[u][v]
            self._graph = EdgeLabelledGraph._trusted(len(dist), edges)
        return self._graph

    def __eq__(self, other):
        if not isinstance(other, CompletionTrace):
            return NotImplemented
        return self.steps == other.steps and self.final_graph == other.final_graph

    def __hash__(self):
        return hash((self.steps, self.final_graph))

    def __repr__(self):
        return f"CompletionTrace(steps={self.steps!r}, final_graph={self.final_graph!r})"


@dataclass(frozen=True)
class CompletionResult:
    """A completion's trace and the forbidden triangles of its final graph,
    a ViolationView from the library; it failed exactly when there is one."""

    trace: CompletionTrace
    violations: Sequence[TriangleViolation]

    @property
    def status(self) -> CompletionStatus:
        return _FAILED if self.violations else _COMPLETED


def complete_magic(
    g: EdgeLabelledGraph, params: Params, magic: int | None = None
) -> CompletionResult:
    """Complete ``g`` by inserting distances rank by rank around ``magic``.

    Each rank carries one distance (see time_function).  At a rank, every
    non-edge with a witness vertex whose two distances form a fork of that
    distance's family receives the distance, in row-major order; the witness
    is the lowest such vertex.  Pairs still open after the last rank receive
    the magic distance.  The result is Failed exactly when the finished graph
    contains a forbidden triangle, and an input that already contains one
    fails immediately.  Defaults to the maximum magic distance when ``magic``
    is omitted.  A graph of more than graphs.MAX_VERTICES vertices raises
    CapacityError from g.matrix(), before anything is allocated, and a
    label above delta raises RangeError from the input's check by
    violations, before anything is filled.

    The engine keeps one bitset per label and vertex: bit v of ``N[d][u]`` is
    set when the distance from u to v is d, and bit v > u of ``N[0][u]`` when
    the pair (u, v) is open.  The witnesses of an open pair (u, v) at rank x
    are the set bits of the OR over forks (a, b) of family(x) of
    ``N[a][u] & N[b][v]``.  No fork of a family has the family's distance as
    an arm, so a pair filled earlier in the rank is never a witness, and
    ``N[x]`` is updated in place.

    The result keeps what the engine computed: its trace holds the rank
    steps, built as each pair is filled, the open bitsets left after the
    last rank and the final matrix (see CompletionTrace), and its
    violations are a ViolationView over that matrix and these bitsets,
    which scans only up to the first forbidden triangle to decide the
    status.  Every triangle (magic, magic, x) is allowed, so from
    BITSET_MIN_VERTICES vertices on that check walks a pair at magic only
    when some third vertex is off magic on both sides.
    """
    families = fork_families(magic, params)
    magic = families.magic
    n = g.vertex_count
    dist = g.matrix()
    initial = violations(g, params, dist)
    if initial:
        return CompletionResult(CompletionTrace((), None, dist, g), initial)

    # the engine's own matrix, with every pair at magic to start: the ranks
    # read only labelled pairs, and the pairs still open after the last keep it
    dist = [[magic] * n for _ in range(n)]
    N = [[0] * n for _ in range(params.delta + 1)]
    opened = N[0] = [((1 << n) - 1) ^ ((2 << u) - 1) for u in range(n)]
    for u in range(n):
        dist[u][u] = 0
    for (u, v), d in g.edges.items():
        dist[u][v] = dist[v][u] = d
        N[d][u] |= 1 << v
        N[d][v] |= 1 << u
        opened[u] ^= 1 << v
    new, tag = tuple.__new__, families.tag
    steps: list[TraceStep] = []
    for rank, x, fam in families.schedule:
        Nx = N[x]
        for u in range(n):
            if not opened[u]:
                continue
            reach = 0  # bit v: a path u -a- w -b- v for some fork (a, b)
            for a, b in fam:
                arms = N[a][u]
                Nb = N[b]
                while arms:
                    low = arms & -arms
                    arms ^= low
                    reach |= Nb[low.bit_length() - 1]
            filled = reach & opened[u]
            if not filled:
                continue
            opened[u] ^= filled
            Nx[u] |= filled
            row_u = dist[u]
            while filled:
                low = filled & -filled
                filled ^= low
                v = low.bit_length() - 1
                h = 0
                for a, b in fam:
                    h |= N[a][u] & N[b][v]
                w = (h & -h).bit_length() - 1
                fork = (row_u[w], dist[w][v])
                steps.append(new(TraceStep, (rank, x, u, v, w, fork, tag[fork])))
                row_u[v] = dist[v][u] = x
                Nx[v] |= 1 << u

    trace = CompletionTrace(steps, (2 * params.delta + 1, magic, opened), dist)
    N[magic] = None  # it lacks the pairs left open; violations derives it
    return CompletionResult(trace, violations(g, params, dist, N))


def _decide_cycles(cycles, params: Params, magic: int) -> int:
    """Which of ``cycles`` complete_magic fails on, as a mask over lanes.

    ``cycles`` is a list of label sequences of one length, each label in
    1..delta; bit L of the result is set when ``cycle_graph(cycles[L])``
    fails.  Every cycle runs the same rank schedule, so they are decided
    together, bit-sliced: bit L of ``D[u][v][d]`` is set when pair (u, v) of
    cycle L carries d, and bit L of ``opened[p]`` when chord p is still open.
    No fork of a family has the family's distance as an arm, so the pairs a
    rank fills never serve as witnesses within that rank, and the rank can
    fill each open pair on every lane at once.  A cycle of 4 or more has no
    input triangle, and that of a 3-cycle is still there for the final check,
    so the engine's check of the input needs no counterpart.
    """
    if not cycles:
        return 0
    families = fork_families(magic, params)
    delta = params.delta
    n = len(cycles[0])
    full = (1 << len(cycles)) - 1
    D = [[None] * n for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        D[u][v] = D[v][u] = [0] * (delta + 1)
    digits = ["0"] * (delta + 1)  # str.translate table: label -> one bit digit
    for i, column in enumerate(zip(*reversed(cycles))):
        # one character per lane, last lane first, so int(..., 2) puts lane L at bit L
        text = "".join(map(chr, column))
        masks = D[i][(i + 1) % n]
        for d in set(column):
            digits[d] = "1"
            masks[d] = int(text.translate(digits), 2)
            digits[d] = "0"
    # the pairs that are not cycle edges, open on every lane
    chords = [(u, v) for u, v in itertools.combinations(range(n), 2) if 1 < v - u < n - 1]
    opened = [full] * len(chords)
    for _, x, fam in families.schedule:
        for p, (u, v) in enumerate(chords):
            if not opened[p]:
                continue
            reach = 0  # lanes with a path u -a- w -b- v for some fork (a, b)
            for w in range(n):
                if w != u and w != v:
                    Duw, Dwv = D[u][w], D[w][v]
                    for a, b in fam:
                        reach |= Duw[a] & Dwv[b]
            filled = reach & opened[p]
            if filled:
                D[u][v][x] |= filled
                opened[p] ^= filled

    for (u, v), lanes in zip(chords, opened):
        D[u][v][magic] |= lanes

    forbidden = _triangle_table(params)[1]
    failed = 0
    for i, j, k in itertools.combinations(range(n), 3):
        Dij, Dik, Djk = D[i][j], D[i][k], D[j][k]
        for a in range(1, delta + 1):
            lanes = Dij[a]
            if not lanes:
                continue
            for c, bs in forbidden[a]:
                hits = lanes & Djk[c]
                if hits:
                    third = 0
                    for b in bs:
                        third |= Dik[b]
                    failed |= hits & third
    return failed


def shortest_path_completion(g: EdgeLabelledGraph, params: Params) -> CompletionResult:
    """Fill every non-edge with its path distance capped at delta.

    Disconnected pairs get delta.  Existing edges are kept as they are.  A
    graph of more than graphs.MAX_VERTICES vertices raises CapacityError
    from g.matrix(), before anything is allocated, and then a label above
    delta RangeError, before the pass.
    """
    n = g.vertex_count
    delta = params.delta
    dist = [[d or delta for d in row] for row in g.matrix()]
    _check_distance(max(g.edges.values(), default=1), delta)
    # Floyd's pass: no entry exceeds delta, so a leg at delta shortens nothing
    for i in range(n):
        dist[i][i] = 0
    for w in range(n):
        row_w = dist[w]
        for u in range(n):
            duw = dist[u][w]
            if duw >= delta:
                continue
            row_u = dist[u]
            for v in range(n):
                alt = duw + row_w[v]
                if alt < row_u[v]:
                    row_u[v] = alt
    steps = []
    for u, v in itertools.combinations(range(n), 2):
        d = g.edges.get((u, v))
        if d is None:
            d = dist[u][v]
            steps.append(TraceStep(d, d, u, v, None, None, Family.PATH))
        else:  # the pass may have shortened it; the input's label stays
            dist[u][v] = dist[v][u] = d
    steps.sort(key=lambda s: s.rank)  # stable: pair order within a rank
    trace = CompletionTrace(steps, None, dist)
    return CompletionResult(trace, violations(trace.final_graph, params, dist))


def _count_over_budget(base: int, exponent: int, budget: int) -> str | None:
    """``base ** exponent`` as text when it exceeds ``budget``, else None.

    A count that may pass 64 bits is written ``base^exponent``.  As base >= 2,
    such a count is over budget once exponent >= budget.bit_length(), and the
    power is not built then.
    """
    if exponent * base.bit_length() <= 64:
        count = base**exponent
        return str(count) if count > budget else None
    over = exponent >= budget.bit_length() or base**exponent > budget
    return f"{base}^{exponent}" if over else None


def oracle_completions(g: EdgeLabelledGraph, params: Params, budget: int = 10**8):
    """Yield every completion of ``g`` in the class, depth first.

    The holes are counted, and the budget checked on ``delta**holes``, before
    any is listed; then g.matrix() refuses more than graphs.MAX_VERTICES
    vertices, and the input's check by violations a label above delta.  The
    holes are taken column by column from the distance matrix, so each new
    vertex is fully connected before the next one starts, and each is tried
    with the values 1..delta in ascending order.  A completion is ``g``'s
    edges followed by the holes in that order.

    The search is one loop over a position i: ``values[i]`` is the value
    hole i holds, 0 before its first.  A hole is open, 0 in the matrix,
    while its next value is chosen, and so are the holes after it; an index
    of 0 reads None in the triangle table, so the check runs over the two
    whole rows of the hole's ends.
    """
    delta = params.delta
    n = g.vertex_count
    holes = n * (n - 1) // 2 - len(g.edges)
    count = _count_over_budget(delta, holes, budget) if holes else None
    if count is not None:
        raise CapacityError(
            f"{holes} unset pairs mean {count} assignments, "
            f"over the budget of {budget}"
        )
    dist = g.matrix()
    if violations(g, params, dist):
        return
    pairs = [(u, v) for v in range(n) for u in range(v) if not dist[u][v]]
    bad = _triangle_table(params)[0]
    values = [0] * holes
    i = 0
    while i >= 0:
        if i == holes:
            edges = dict(g.edges)
            edges.update(zip(pairs, values))
            yield EdgeLabelledGraph._trusted(n, edges)
            i -= 1
            continue
        u, v = pairs[i]
        row_u = dist[u]
        row_v = dist[v]
        row_u[v] = row_v[u] = 0
        val = values[i]
        while val < delta:
            val += 1
            for a, b in zip(row_u, row_v):
                if bad[a][b][val] is not None:
                    break
            else:
                values[i] = row_u[v] = row_v[u] = val
                i += 1
                break
        else:
            values[i] = 0
            i -= 1


def oracle_complete(
    g: EdgeLabelledGraph, params: Params, budget: int = 10**8
) -> EdgeLabelledGraph | None:
    """The first completion found by exhaustive search, or None."""
    return next(oracle_completions(g, params, budget), None)


@dataclass(frozen=True)
class SandwichReport:
    holds: bool
    pair: tuple[int, int] | None = None
    engine_value: int | None = None
    other_value: int | None = None


def check_sandwich(
    g: EdgeLabelledGraph,
    magic_result: CompletionResult,
    other: EdgeLabelledGraph,
) -> SandwichReport:
    """Verify the engine's completion sits between magic and any other one.

    Pair by pair, with d the engine's value and d' the other completion's,
    either d' >= d >= magic or d' <= d <= magic must hold, with magic the
    distance of the trace's magic fill.  Reports the first offending pair.
    A result that failed, or whose trace has no magic fill, as the
    baseline's has not, is refused.
    """
    fill = magic_result.trace._fill
    if fill is None or magic_result.status is not CompletionStatus.COMPLETED:
        raise PreconditionError("engine result is not a completion")
    magic = fill[1]
    final = magic_result.trace.final_graph
    if other.vertex_count != g.vertex_count or not other.is_complete():
        raise PreconditionError("other completion must be complete on the same vertices")
    for pair, d in g.edges.items():
        if other.edges.get(pair) != d:
            raise PreconditionError(f"other completion changes input edge {pair}")
    for u, v in g.pairs():
        dv = final.distance(u, v)
        ov = other.distance(u, v)
        if not (ov >= dv >= magic or ov <= dv <= magic):
            return SandwichReport(False, (u, v), dv, ov)
    return SandwichReport(True)
