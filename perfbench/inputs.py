"""Seeded benchmark inputs and the class definition they are built from.

Nothing here imports the package under test: the allowed-triangle rule and
the canonical cycle form are written out again from the class definition, so
that the inputs and the checks in ``checks.py`` stay fixed while the package
changes.
"""

from __future__ import annotations

import itertools
import random

# The triple every CLI workload runs at: distances 1..6, perimeter below 15,
# odd perimeters at least 5.
DELTA, K, C = 6, 2, 15

# n for the complete-large graphs; average degree of the sparse one.
LARGE_N = 150
SPARSE_DEGREE = 4

# A published non-completable 5-cycle at (6, 2, 15).  Planting it in the
# sparse graph makes every seed's graph fail to complete, so trace-obstacle
# always has a witness to report.
PLANTED_OBSTACLE = (1, 1, 6, 6, 5)

# The published non-completable 6-cycles at (6, 2, 15), as raw label strings.
PUBLISHED_6 = "111116 116616 116661 161616 666616".split()


def allowed(a: int, b: int, c: int, delta: int = DELTA, k: int = K, cap: int = C) -> bool:
    """Whether the distance triple (a, b, c) is a triangle of the class."""
    if not all(1 <= x <= delta for x in (a, b, c)):
        return False
    perimeter = a + b + c
    if 2 * max(a, b, c) > perimeter:
        return False
    if perimeter % 2 == 1 and perimeter < 2 * k + 1:
        return False
    return perimeter < cap


def canonical_cycle(labels) -> tuple[int, ...]:
    """The least label sequence over all rotations and both directions."""
    seq = tuple(labels)
    return min(
        variant[i:] + variant[:i]
        for variant in (seq, seq[::-1])
        for i in range(len(seq))
    )


def canonical_cycle_count(delta: int, size: int) -> int:
    """How many canonical label sequences of ``size`` edges there are."""
    return sum(
        1
        for seq in itertools.product(range(1, delta + 1), repeat=size)
        if canonical_cycle(seq) == seq
    )


def published_catalogue() -> tuple[tuple[int, ...], ...]:
    return tuple(sorted({canonical_cycle(int(ch) for ch in s) for s in PUBLISHED_6}))


def graph_text(n: int, edges: dict[tuple[int, int], int]) -> str:
    """The package's line-based graph file format, edges sorted by pair."""
    lines = [f"params {DELTA} {K} {C}", f"vertices {n}"]
    lines.extend(f"edge {u} {v} {d}" for (u, v), d in sorted(edges.items()))
    return "\n".join(lines) + "\n"


def labelled_tree(seed: int, n: int = LARGE_N) -> dict[tuple[int, int], int]:
    """A random recursive tree with uniform labels 1..DELTA.

    A tree has no cycle, so it holds no obstacle and always completes.
    """
    rng = random.Random(f"tree:{seed}")
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = rng.randint(1, DELTA)
    return edges


def sparse_graph(seed: int, n: int = LARGE_N) -> dict[tuple[int, int], int]:
    """A random graph with average degree SPARSE_DEGREE and no forbidden
    triangle, holding PLANTED_OBSTACLE on random vertices."""
    rng = random.Random(f"sparse:{seed}")
    edges: dict[tuple[int, int], int] = {}
    neighbours: list[dict[int, int]] = [{} for _ in range(n)]

    def add(u: int, v: int, d: int) -> None:
        edges[(min(u, v), max(u, v))] = d
        neighbours[u][v] = d
        neighbours[v][u] = d

    ring = rng.sample(range(n), len(PLANTED_OBSTACLE))
    for i, d in enumerate(PLANTED_OBSTACLE):
        add(ring[i], ring[(i + 1) % len(ring)], d)
    target = SPARSE_DEGREE * n // 2
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        d = rng.randint(1, DELTA)
        if v in neighbours[u]:
            continue
        common = neighbours[u].keys() & neighbours[v].keys()
        if all(allowed(neighbours[u][w], neighbours[v][w], d) for w in common):
            add(u, v, d)
    return edges


def large_inputs(seed: int) -> dict[str, str]:
    """The complete-large graph files for ``seed``, keyed by input name."""
    return {
        "tree": graph_text(LARGE_N, labelled_tree(seed)),
        "sparse": graph_text(LARGE_N, sparse_graph(seed)),
    }


def parse_edges(text: str) -> tuple[int, dict[tuple[int, int], int]]:
    """Vertex count and edges of a graph file written by graph_text."""
    n = 0
    edges = {}
    for line in text.splitlines():
        fields = line.split()
        if fields[0] == "vertices":
            n = int(fields[1])
        elif fields[0] == "edge":
            u, v, d = (int(x) for x in fields[1:])
            edges[(u, v)] = d
    return n, edges
