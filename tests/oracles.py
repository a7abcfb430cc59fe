"""Slow reference implementations that the tests compare the library against.

Nothing in the package calls these; they recompute a library result the
direct way, one classify_triangle call or one completion at a time.
"""

import functools
import itertools
import json
import random

from metric_completer import (
    CapacityError,
    CompletionResult,
    CompletionStatus,
    CompletionTrace,
    EdgeLabelledGraph,
    Family,
    ObstacleCatalogue,
    Params,
    RangeError,
    TraceStep,
    TriangleStatus,
    TriangleViolation,
    canonical_cycle,
    classify_triangle,
    complete_magic,
    cycle_graph,
    enumerate_obstacle_cycles,
    fork_families,
    oracle_completions,
    violations,
)
from metric_completer.graphs import MAX_VERTICES
from metric_completer.obstacles import _SAMPLE_SEED, _SAMPLE_SIZE, _canonical_blocks
from metric_completer.params import _check_distance, _triangle_table


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


def family_tag_oracle(a: int, b: int, x: int, params: Params) -> Family:
    """The family of the fork (a, b) that inserts x, by its generating rule:
    SUM if a + b = x, else DIFF if |a - b| = x, else CAP, whose rule
    c - 1 - a - b = x must then hold."""
    if a + b == x:
        return Family.SUM
    if abs(a - b) == x:
        return Family.DIFF
    if params.c - 1 - a - b == x:
        return Family.CAP
    raise AssertionError(f"fork ({a}, {b}) does not generate {x}")


def canonical_cycle_reference(labels) -> tuple[int, ...]:
    """canonical_cycle the direct way: list every rotation of the sequence
    and of its reverse, then take the least."""
    seq = tuple(labels)
    if len(seq) < 3:
        raise RangeError("a cycle needs at least 3 labels")
    candidates = []
    for variant in (seq, seq[::-1]):
        for i in range(len(variant)):
            candidates.append(variant[i:] + variant[:i])
    return min(candidates)


def canonical_cycles_oracle(delta: int, size: int) -> list[tuple[int, ...]]:
    """Every canonical label sequence, ascending: each sequence that starts
    with its least label and equals its own canonical_cycle."""
    out = []
    for first in range(1, delta + 1):
        for rest in itertools.product(range(first, delta + 1), repeat=size - 1):
            seq = (first,) + rest
            if canonical_cycle(seq) == seq:
                out.append(seq)
    return out


def canonical_cycles(delta: int, size: int):
    """The canonical sequences obstacles._canonical_blocks yields, one tuple
    per sequence, lazily."""
    for head, lo, hi in _canonical_blocks(delta, size):
        for x in range(lo, hi):
            yield head + (x,)


def one_lane_blocks(cycles) -> list[tuple[tuple[int, ...], int, int]]:
    """Each cycle as its own block of _decide_cycles, one lane wide."""
    return [(cyc[:-1], cyc[-1], cyc[-1] + 1) for cyc in cycles]


def canonical_necklaces_oracle(delta: int, size: int):
    """Every canonical label sequence, ascending, from the necklaces: the
    Fredricksen-Kessler-Maiorana algorithm walks the prenecklaces in
    lexicographic order; one whose longest Lyndon prefix, of length p,
    divides ``size`` is a necklace, the least of its rotations.  A necklace
    is canonical when no rotation of its reverse is smaller.  The reference
    for the bracelet generator obstacles._canonical_blocks."""
    if size < 3:
        raise RangeError("a cycle needs at least 3 labels")
    a = [1] * size
    p = 1
    cuts = [slice(i, i + size) for i in range(size)]
    while True:
        if not size % p:
            seq = tuple(a)
            if seq <= min(map((seq[::-1] * 2).__getitem__, cuts)):
                yield seq
        i = size - 1  # the next prenecklace raises the last label below delta
        while a[i] == delta:
            i -= 1
            if i < 0:
                return
        a[i] += 1
        p = i + 1
        for j in range(p, size):  # and repeats its first p labels
            a[j] = a[j - p]


def sample_non_entries_oracle(catalogue: ObstacleCatalogue) -> list[tuple[int, ...]]:
    """The non-entries verify_catalogue checks, the direct way: list every
    canonical sequence of the catalogue's size that is not an entry, and let
    random.sample draw from that list when it is longer than the sample."""
    entries = set(catalogue.cycles)
    others = [
        seq
        for seq in canonical_necklaces_oracle(catalogue.params.delta, catalogue.size)
        if seq not in entries
    ]
    if len(others) > _SAMPLE_SIZE:
        others = random.Random(_SAMPLE_SEED).sample(others, _SAMPLE_SIZE)
    return others


def cycle_completes_oracle(labels, params: Params, magic: int) -> bool:
    """Whether the engine completes the cycle of ``labels``, by one
    complete_magic run: the reference for the bit-sliced _decide_cycles."""
    result = complete_magic(cycle_graph(labels), params, magic)
    return result.status is CompletionStatus.COMPLETED


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


def label_bits(g, delta, missing=None):
    """Per-label bitsets of a complete graph, as complete_magic keeps them:
    bit v of bits[d][u] is set when u and v are at distance d.  The entry of
    label ``missing`` is None."""
    bits = [[0] * g.vertex_count for _ in range(delta + 1)]
    for (u, v), d in g.edges.items():
        bits[d][u] |= 1 << v
        bits[d][v] |= 1 << u
    if missing is not None:
        bits[missing] = None
    return bits


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
    top = max(g.edges.values(), default=1)
    if top > params.delta:
        raise RangeError(f"distance {top} outside 1..{params.delta}")

    initial = violations_oracle(g, params)
    if initial:
        return CompletionResult(CompletionTrace((), None, g.matrix(), g), tuple(initial))

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
                            TraceStep(
                                rank, x, u, v, w, (a, b), family_tag_oracle(a, b, x, params)
                            )
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
    return CompletionResult(CompletionTrace(steps, None, dist, final), tuple(viol))


def shortest_path_oracle(g: EdgeLabelledGraph, params: Params) -> CompletionResult:
    """shortest_path_completion the direct way: Floyd's all-pairs loop on a
    float matrix with an infinity sentinel, each hole capped at delta
    afterwards, the final graph through the checked constructor and its
    violations on its own matrix.  The same caps and label check come first.
    """
    n = g.vertex_count
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceed the engine's cap of {MAX_VERTICES}")
    _check_distance(max(g.edges.values(), default=1), params.delta)
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
    matrix = final.matrix()
    trace = CompletionTrace(steps, None, matrix, final)
    return CompletionResult(trace, violations(final, params, matrix))


def complete_json_oracle(params: Params, magic: int, result: CompletionResult) -> str:
    """The payload of ``complete --format json``, built as Python objects and
    encoded by json.dumps(payload, indent=2)."""
    payload = {
        "params": {"delta": params.delta, "k": params.k, "c": params.c},
        "magic": magic,
        "status": result.status.value,
        "steps": [
            {
                "rank": step.rank,
                "distance": step.distance,
                "u": step.u,
                "v": step.v,
                "witness": step.witness,
                "fork": list(step.fork) if step.fork is not None else None,
                "family": step.family.value,
            }
            for step in result.trace.steps
        ],
        "edges": [[u, v, d] for (u, v), d in sorted(result.trace.final_graph.edges.items())],
        "violations": [
            {
                "vertices": list(v.vertices),
                "distances": list(v.distances),
                "status": v.status.value,
            }
            for v in result.violations
        ],
    }
    return json.dumps(payload, indent=2)


def oracle_value_ranges(g: EdgeLabelledGraph, params: Params, budget: int = 10**8):
    """Exhaust all completions, tracking each unset pair's extreme values.

    Returns (count, ranges) where ranges maps each unset pair to the
    (smallest, largest) value it takes over all completions; count is the
    number of completions.
    """
    count = 0
    lows: list[int] | None = None
    highs: list[int] | None = None
    pairs = g.non_edges()
    for completion in oracle_completions(g, params, budget):
        values = [completion.edges[pair] for pair in pairs]
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
        pair: (lows[i], highs[i]) for i, pair in enumerate(pairs)
    }


def sweep_universe(delta: int) -> list[EdgeLabelledGraph]:
    """The graphs of the criteria-7/8/10 sweep at one delta: every partial
    graph on at most 4 vertices with labels in 1..delta, then every
    canonical cycle of length 5 and 6, in the acceptance fixture's order."""
    out = []
    for n in (1, 2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for labels in itertools.product(range(delta + 1), repeat=len(pairs)):
            out.append(EdgeLabelledGraph(n, [(u, v, d) for (u, v), d in zip(pairs, labels) if d]))
    for n in (5, 6):
        cycles = {canonical_cycle(seq) for seq in itertools.product(range(1, delta + 1), repeat=n)}
        out.extend(cycle_graph(cyc) for cyc in sorted(cycles))
    return out


def oracle_completions_reference(g: EdgeLabelledGraph, params: Params, budget: int = 10**8):
    """oracle_completions as a recursive generator, one frame per hole: the
    same budget and input checks, holes in the same column-by-column order,
    values tried in ascending order.  The reference for the library's
    single-loop search."""
    delta = params.delta
    n = g.vertex_count
    holes = n * (n - 1) // 2 - len(g.edges)
    if holes and delta**holes > budget:
        count = delta**holes if holes * delta.bit_length() <= 64 else f"{delta}^{holes}"
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

    def search(i: int):
        if i == holes:
            edges = dict(g.edges)
            edges.update(zip(pairs, values))
            yield EdgeLabelledGraph._trusted(n, edges)
            return
        u, v = pairs[i]
        row_u = dist[u]
        row_v = dist[v]
        for val in range(1, delta + 1):
            for w in range(n):
                if w == u or w == v:
                    continue
                a = row_u[w]
                b = row_v[w]
                if a and b and bad[a][b][val] is not None:
                    break
            else:
                row_u[v] = row_v[u] = val
                values[i] = val
                yield from search(i + 1)
                row_u[v] = row_v[u] = 0

    yield from search(0)


def distance_maps_reference(source: EdgeLabelledGraph, target: EdgeLabelledGraph, embed: bool):
    """graphs._distance_maps as a recursive generator, one frame per source
    vertex, reading each distance with EdgeLabelledGraph.distance: the maps
    of ``source`` into ``target`` that keep every defined distance (and,
    with ``embed``, every non-edge), in lexicographic image order.  The
    reference for the library's single-loop search."""
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
            for j, d in checks:
                if row[images[j]] != d:
                    break
            else:
                images[i] = candidate
                yield from extend(i + 1)

    return extend(0)


@functools.cache
def substitution_obstacles(params: Params, magic: int) -> tuple[tuple[int, ...], ...]:
    """The union of the substitution catalogues of lengths 3 up to the last
    non-empty one, grown as test_substitution_closure grows them."""
    cycles, size = [], 3
    while found := enumerate_obstacle_cycles(params, size, "substitution", magic).cycles:
        cycles.extend(found)
        size += 1
    return tuple(cycles)


def obstacle_hom_oracle(g: EdgeLabelledGraph, params: Params, magic: int) -> bool:
    """True when some cycle of substitution_obstacles(params, magic) maps
    homomorphically into ``g``: when ``g`` has a closed walk whose edges carry
    the cycle's labels in order.  Repeated vertices are allowed, so this is
    the forbidden-homomorphism view of the class (J. Hubicka and
    J. Nesetril, Adv. Math. 356, 2019): ``g`` completes exactly when no
    obstacle maps into it.

    From each start vertex, the walk keeps the set of vertices it can reach
    as a bitset and, for each label, replaces it by the OR of those
    vertices' neighbourhoods at that label.  As each start vertex is tried,
    and the walks run both ways along an undirected graph, the canonical
    form of each cycle stands for all its rotations and reflections.
    """
    n = g.vertex_count
    nbrs = [[0] * n for _ in range(params.delta + 1)]  # label -> vertex -> bits
    for (u, v), d in g.edges.items():
        nbrs[d][u] |= 1 << v
        nbrs[d][v] |= 1 << u
    for cycle in substitution_obstacles(params, magic):
        first = nbrs[cycle[0]]
        for start in range(n):
            if not first[start]:
                continue
            reach = 1 << start
            for d in cycle:
                row, after = nbrs[d], 0
                while reach:
                    low = reach & -reach
                    after |= row[low.bit_length() - 1]
                    reach ^= low
                reach = after
                if not reach:
                    break
            if reach >> start & 1:
                return True
    return False
