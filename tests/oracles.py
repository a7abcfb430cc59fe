"""Slow reference implementations that the tests compare the library against.

Nothing in the package calls these; they recompute a library result the
direct way, one classify_triangle call or one completion at a time.
"""

import itertools

from metric_completer import (
    EdgeLabelledGraph,
    Params,
    TriangleStatus,
    TriangleViolation,
    classify_triangle,
)
from metric_completer.completion import _completion_values


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
