"""The magic completion engine, a bounded shortest-path baseline, and an
exhaustive completion oracle for cross-checking both."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from enum import Enum

from .errors import CapacityError, PreconditionError
from .graphs import EdgeLabelledGraph, TriangleViolation, violations
from .params import (
    Params,
    TriangleStatus,
    _status_table,
    classify_triangle,
    fork_families,
)


class CompletionStatus(Enum):
    COMPLETED = "completed"
    FAILED = "failed"


class Family(Enum):
    SUM = "F+"
    DIFF = "F-"
    CAP = "FC"
    FINAL = "FinalM"
    PATH = "SP"


@dataclass(frozen=True)
class TraceStep:
    rank: int
    distance: int
    u: int
    v: int
    witness: int | None
    fork: tuple[int, int] | None
    family: Family

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "distance": self.distance,
            "u": self.u,
            "v": self.v,
            "witness": self.witness,
            "fork": list(self.fork) if self.fork is not None else None,
            "family": self.family.value,
        }

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


@dataclass(frozen=True)
class CompletionTrace:
    steps: tuple[TraceStep, ...]
    final_graph: EdgeLabelledGraph

    def as_json(self) -> str:
        return json.dumps([step.as_dict() for step in self.steps])


@dataclass(frozen=True)
class CompletionResult:
    status: CompletionStatus
    trace: CompletionTrace
    violations: tuple[TriangleViolation, ...]


def _family_tag(a: int, b: int, x: int, params: Params) -> Family:
    if a + b == x:
        return Family.SUM
    if abs(a - b) == x:
        return Family.DIFF
    assert params.c - 1 - a - b == x, "fork does not generate this distance"
    return Family.CAP


MAX_VERTICES = 1000


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
    is omitted.  A graph of more than MAX_VERTICES vertices raises
    CapacityError before anything is allocated.

    The engine keeps one bitset per label and vertex: bit v of ``N[d][u]`` is
    set when the distance from u to v is d, and bit v > u of ``N[0][u]`` when
    the pair (u, v) is open.  The witnesses of an open pair (u, v) at rank x
    are the set bits of the OR over forks (a, b) of family(x) of
    ``N[a][u] & N[b][v]``.  No fork of a family has the family's distance as
    an arm, so a pair filled earlier in the rank is never a witness, and
    ``N[x]`` is updated in place.
    """
    families = fork_families(magic, params)
    magic = families.magic
    n = g.vertex_count
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceed the engine's cap of {MAX_VERTICES}")
    for (u, v), d in g.edges.items():
        if d > params.delta:
            raise PreconditionError(
                f"edge ({u}, {v}) carries {d}, beyond delta={params.delta}"
            )

    dist = g.matrix()
    initial = violations(g, params, dist)
    if initial:
        return CompletionResult(
            CompletionStatus.FAILED, CompletionTrace((), g), tuple(initial)
        )

    N = [[0] * n for _ in range(params.delta + 1)]
    opened = N[0] = [((1 << n) - 1) ^ ((2 << u) - 1) for u in range(n)]
    for (u, v), d in g.edges.items():
        N[d][u] |= 1 << v
        N[d][v] |= 1 << u
        opened[u] ^= 1 << v
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
                a = row_u[w]
                b = dist[w][v]
                row_u[v] = dist[v][u] = x
                Nx[v] |= 1 << u
                steps.append(
                    TraceStep(rank, x, u, v, w, (a, b), _family_tag(a, b, x, params))
                )

    final_rank = 2 * params.delta + 1
    triples = []
    for u in range(n):
        row_u = dist[u]
        for v in range(u + 1, n):
            d = row_u[v]
            if not d:
                d = row_u[v] = dist[v][u] = magic
                steps.append(TraceStep(final_rank, magic, u, v, None, None, Family.FINAL))
            triples.append((u, v, d))

    final = EdgeLabelledGraph(n, triples)
    viol = violations(final, params, dist)
    status = CompletionStatus.COMPLETED if not viol else CompletionStatus.FAILED
    return CompletionResult(status, CompletionTrace(tuple(steps), final), tuple(viol))


def shortest_path_completion(g: EdgeLabelledGraph, params: Params) -> CompletionResult:
    """Fill every non-edge with its path distance capped at delta.

    Disconnected pairs get delta.  Existing edges are kept as they are.
    """
    n = g.vertex_count
    big = float("inf")
    dist = [[big] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (u, v), d in g.edges.items():
        dist[u][v] = dist[v][u] = d
    for w in range(n):
        row_w = dist[w]
        for u in range(n):
            duw = dist[u][w]
            if duw is big:
                continue
            row_u = dist[u]
            for v in range(n):
                alt = duw + row_w[v]
                if alt < row_u[v]:
                    row_u[v] = alt
    steps = []
    triples = []
    for u, v in itertools.combinations(range(n), 2):
        d = g.distance(u, v)
        if d is None:
            d = int(min(dist[u][v], params.delta))
            steps.append(TraceStep(d, d, u, v, None, None, Family.PATH))
        triples.append((u, v, d))
    steps.sort(key=lambda s: (s.rank, s.u, s.v))
    final = EdgeLabelledGraph(n, triples)
    viol = violations(final, params)
    status = CompletionStatus.COMPLETED if not viol else CompletionStatus.FAILED
    return CompletionResult(status, CompletionTrace(tuple(steps), final), tuple(viol))


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


def _completion_values(g: EdgeLabelledGraph, params: Params, budget: int):
    """Yield (pairs, values) for every completion of ``g``, depth first.

    ``pairs`` is the fixed tuple of unset pairs, grouped so that each new
    vertex is fully connected before the next one starts; ``values`` is
    reused between yields and must be copied by consumers that keep it.
    """
    delta = params.delta
    pairs = tuple(sorted(g.non_edges(), key=lambda p: (p[1], p[0])))
    count = _count_over_budget(delta, len(pairs), budget) if pairs else None
    if count is not None:
        raise CapacityError(
            f"{len(pairs)} unset pairs mean {count} assignments, "
            f"over the budget of {budget}"
        )
    n = g.vertex_count
    dist = g.matrix()
    if violations(g, params, dist):
        return
    status_of = _status_table(params)
    allowed = TriangleStatus.ALLOWED
    values = [0] * len(pairs)

    def search(i: int):
        if i == len(pairs):
            yield pairs, values
            return
        u, v = pairs[i]
        row_u = dist[u]
        row_v = dist[v]
        for val in range(1, delta + 1):
            ok = True
            for w in range(n):
                if w == u or w == v:
                    continue
                a = row_u[w]
                b = row_v[w]
                if not (a and b):
                    continue
                try:
                    status = status_of[a][b][val]
                except IndexError:  # a label above delta
                    status = classify_triangle(a, b, val, params)
                if status is not allowed:
                    ok = False
                    break
            if ok:
                row_u[v] = row_v[u] = val
                values[i] = val
                yield from search(i + 1)
                row_u[v] = row_v[u] = 0
        return

    yield from search(0)


def oracle_completions(g: EdgeLabelledGraph, params: Params, budget: int = 10**8):
    """Yield every completion of ``g`` in the class, in a fixed search order."""
    n = g.vertex_count
    base = list(g.edges.items())
    for pairs, values in _completion_values(g, params, budget):
        triples = [(u, v, d) for (u, v), d in base]
        triples.extend((u, v, d) for (u, v), d in zip(pairs, values))
        yield EdgeLabelledGraph(n, triples)


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
    magic: int,
) -> SandwichReport:
    """Verify the engine's completion sits between magic and any other one.

    Pair by pair, with d the engine's value and d' the other completion's,
    either d' >= d >= magic or d' <= d <= magic must hold.  Reports the first
    offending pair.
    """
    if magic_result.status is not CompletionStatus.COMPLETED:
        raise PreconditionError("engine result is not a completion")
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
