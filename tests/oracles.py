"""Slow reference implementations that the tests compare the library against.

Nothing in the package calls these; they recompute a library result the
direct way, one classify_triangle call or one completion at a time.
"""

import itertools

from metric_completer import (
    CompletionResult,
    CompletionStatus,
    CompletionTrace,
    EdgeLabelledGraph,
    Family,
    Params,
    PreconditionError,
    TraceStep,
    TriangleStatus,
    TriangleViolation,
    classify_triangle,
    fork_families,
)
from metric_completer.completion import _completion_values, _family_tag


def magic_oracle(params: Params) -> tuple[int, ...]:
    """Magic distances computed the slow way, by sweeping classify_triangle."""
    allowed = TriangleStatus.ALLOWED
    return tuple(
        a
        for a in range(1, params.delta + 1)
        if all(
            classify_triangle(a, a, b, params) is allowed
            for b in range(1, params.delta + 1)
        )
    )


def families_oracle(magic: int, params: Params) -> dict[int, frozenset]:
    """The paper's fork families, read off their generating rules.

    Below magic a distance x is produced by its sum forks (a + b = x) and
    its cap forks (c - 1 - a - b = x), above magic by its difference forks
    (|a - b| = x).  One entry per distance other than magic, empty ones kept.
    """
    span = range(1, params.delta + 1)
    pairs = list(itertools.product(span, repeat=2))
    out = {}
    for x in span:
        if x < magic:
            out[x] = frozenset(
                (a, b) for a, b in pairs if a + b == x or params.c - 1 - a - b == x
            )
        elif x > magic:
            out[x] = frozenset((a, b) for a, b in pairs if abs(a - b) == x)
    return out


def automorphisms_oracle(g: EdgeLabelledGraph) -> list[tuple[int, ...]]:
    """Every vertex permutation that preserves each distance and non-edge,
    found by scanning all permutations in lexicographic order."""
    n = g.vertex_count
    pairs = list(itertools.combinations(range(n), 2))
    dist = g.distance
    return [
        perm
        for perm in itertools.permutations(range(n))
        if all(dist(perm[u], perm[v]) == dist(u, v) for u, v in pairs)
    ]


def violations_oracle(g: EdgeLabelledGraph, params: Params) -> list[TriangleViolation]:
    """The forbidden triangles of ``g``, one classify_triangle call per fully
    specified triple, in the scan order of ``violations``."""
    out = []
    for i, j, k in itertools.combinations(range(g.vertex_count), 3):
        sides = (g.distance(i, j), g.distance(i, k), g.distance(j, k))
        if None in sides:
            continue
        status = classify_triangle(*sides, params)
        if status is not TriangleStatus.ALLOWED:
            out.append(TriangleViolation((i, j, k), tuple(sorted(sides)), status))
    return out


def complete_magic_oracle(
    g: EdgeLabelledGraph, params: Params, magic: int | None = None
) -> CompletionResult:
    """complete_magic the direct way: at each rank, scan every open pair in
    row-major order and every vertex as its witness, filling the pair at the
    first witness whose two distances form a fork of the rank's family.  Both
    triangle checks go through violations_oracle.
    """
    families = fork_families(magic, params)
    magic = families.magic
    for (u, v), d in g.edges.items():
        if d > params.delta:
            raise PreconditionError(
                f"edge ({u}, {v}) carries {d}, beyond delta={params.delta}"
            )

    initial = violations_oracle(g, params)
    if initial:
        return CompletionResult(
            CompletionStatus.FAILED, CompletionTrace((), g), tuple(initial)
        )

    n = g.vertex_count
    dist = g.matrix()
    steps = []
    for rank, x, fam in families.schedule:
        for u in range(n):
            row_u = dist[u]
            for v in range(u + 1, n):
                if row_u[v]:
                    continue
                for w in range(n):
                    if w == u or w == v:
                        continue
                    a = row_u[w]
                    b = dist[w][v]
                    if a and b and (a, b) in fam:
                        row_u[v] = dist[v][u] = x
                        steps.append(
                            TraceStep(rank, x, u, v, w, (a, b), _family_tag(a, b, x, params))
                        )
                        break

    final_rank = 2 * params.delta + 1
    for u in range(n):
        for v in range(u + 1, n):
            if not dist[u][v]:
                dist[u][v] = dist[v][u] = magic
                steps.append(TraceStep(final_rank, magic, u, v, None, None, Family.FINAL))

    final = EdgeLabelledGraph(
        n, [(u, v, dist[u][v]) for u in range(n) for v in range(u + 1, n)]
    )
    viol = violations_oracle(final, params)
    status = CompletionStatus.COMPLETED if not viol else CompletionStatus.FAILED
    return CompletionResult(status, CompletionTrace(tuple(steps), final), tuple(viol))


def oracle_value_ranges(g: EdgeLabelledGraph, params: Params, budget: int = 10**8):
    """Exhaust all completions, tracking each unset pair's extreme values.

    Returns (count, ranges) where ranges maps each unset pair to the
    (smallest, largest) value it takes over all completions; count is the
    number of completions.
    """
    count = 0
    lows: list[int] | None = None
    highs: list[int] | None = None
    kept_pairs = None
    for pairs, values in _completion_values(g, params, budget):
        kept_pairs = pairs
        if lows is None:
            lows = list(values)
            highs = list(values)
        else:
            for i, val in enumerate(values):
                if val < lows[i]:
                    lows[i] = val
                elif val > highs[i]:
                    highs[i] = val
        count += 1
    if count == 0:
        return 0, {}
    return count, {
        pair: (lows[i], highs[i]) for i, pair in enumerate(kept_pairs)
    }
