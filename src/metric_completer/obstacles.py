"""Back-tracing failed completions to small non-completable witnesses, and
enumerating the non-completable labelled cycles of a class."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .completion import CompletionStatus, Family, complete_magic, oracle_complete
from .completion import _count_over_budget
from .errors import CapacityError, FormatError, PreconditionError, RangeError
from .graphs import EdgeLabelledGraph, canonical_cycle, cycle_graph
from .params import Params, TriangleStatus, fork_families


@dataclass(frozen=True)
class Expansion:
    """One back-trace step: a traced edge replaced by its witness fork."""

    level: int  # insertion rank of the replaced edge
    obstacle_edge: tuple[int, int]
    image_edge: tuple[int, int]
    witness: int
    distances: tuple[int, int]


@dataclass(frozen=True)
class ObstacleWitness:
    obstacle: EdgeLabelledGraph
    hom: tuple[int, ...]  # obstacle vertex -> input vertex
    seed_vertices: tuple[int, int, int]
    seed_distances: tuple[int, int, int]  # ascending
    seed_status: TriangleStatus
    expansions: tuple[Expansion, ...]

    def cycle_labels(self) -> tuple[int, ...]:
        """The obstacle read off as a canonical cycle label sequence."""
        edges = self.obstacle.edges
        neighbours: dict[int, list[int]] = {}
        for u, v in edges:
            neighbours.setdefault(u, []).append(v)
            neighbours.setdefault(v, []).append(u)
        walk = [0, neighbours[0][0]]
        while True:
            prev, here = walk[-2], walk[-1]
            nxt = [w for w in neighbours[here] if w != prev]
            if not nxt or nxt[0] == walk[0]:
                break
            walk.append(nxt[0])
        labels = [
            self.obstacle.distance(walk[i], walk[(i + 1) % len(walk)])
            for i in range(len(walk))
        ]
        return canonical_cycle(labels)


def obstacle_trace(
    g: EdgeLabelledGraph, params: Params, magic: int | None = None
) -> ObstacleWitness:
    """Shrink a failed completion to a witness with no completion of its own.

    Runs the engine, seeds on the first forbidden triangle of the output, and
    walks the trace backwards: every traced edge of the current witness is
    replaced by a fresh vertex carrying its witness's two fork distances.
    The result maps homomorphically into the input, using only input edges.
    Raises PreconditionError when the input completes.
    """
    result = complete_magic(g, params, magic)
    if result.status is CompletionStatus.COMPLETED:
        raise PreconditionError("input completes; nothing to trace")

    step_by_pair = {(s.u, s.v): s for s in result.trace.steps}
    seed = result.violations[0]
    i, j, k = seed.vertices
    final = result.trace.final_graph

    hom = [i, j, k]
    edges: dict[tuple[int, int], int] = {
        (0, 1): final.distance(i, j),
        (0, 2): final.distance(i, k),
        (1, 2): final.distance(j, k),
    }
    expansions: list[Expansion] = []
    top_rank = 2 * params.delta + 1
    for level in range(top_rank, 0, -1):
        for (p, q), d in sorted(edges.items()):
            gu, gv = hom[p], hom[q]
            image = (gu, gv) if gu < gv else (gv, gu)
            step = step_by_pair.get(image)
            if step is None or step.rank != level:
                continue
            assert step.family is not Family.FINAL, (
                "a magic-filled edge appeared in a forbidden triangle"
            )
            a, b = step.fork
            if (gu, gv) != image:  # the obstacle edge runs against the stored pair
                a, b = b, a
            fresh = len(hom)
            hom.append(step.witness)
            del edges[(p, q)]
            edges[(p, fresh)] = a
            edges[(fresh, q)] = b
            expansions.append(Expansion(level, (p, q), image, step.witness, (a, b)))

    obstacle = EdgeLabelledGraph(len(hom), [(u, v, d) for (u, v), d in edges.items()])
    for (u, v), d in obstacle.edges.items():
        assert g.distance(hom[u], hom[v]) == d, "back-trace left a non-input edge"
    return ObstacleWitness(
        obstacle=obstacle,
        hom=tuple(hom),
        seed_vertices=seed.vertices,
        seed_distances=seed.distances,
        seed_status=seed.status,
        expansions=tuple(expansions),
    )


@dataclass(frozen=True)
class ObstacleCatalogue:
    params: Params
    size: int
    method: str
    cycles: tuple[tuple[int, ...], ...]  # canonical, ascending


def _canonical_cycles(delta: int, size: int):
    for first in range(1, delta + 1):  # a canonical sequence starts with its minimum
        for rest in itertools.product(range(first, delta + 1), repeat=size - 1):
            seq = (first,) + rest
            if canonical_cycle(seq) == seq:
                yield seq


def _completes(labels, params: Params, magic: int) -> bool:
    result = complete_magic(cycle_graph(labels), params, magic)
    return result.status is CompletionStatus.COMPLETED


def substitute_forks(cycle, params: Params, magic: int | None = None):
    """Replace each label produced by some fork family with each generating
    fork, yielding candidate cycles one vertex longer.

    Candidates are raw label sequences in position order, not canonicalized,
    and not all of them are non-completable.
    """
    families = fork_families(magic, params)
    seq = tuple(cycle)
    if len(seq) < 3:
        raise RangeError("a cycle needs at least 3 labels")
    if not all(1 <= x <= params.delta for x in seq):
        raise RangeError(f"cycle {seq} has a label outside 1..{params.delta}")
    out = []
    for i, x in enumerate(seq):
        for a, b in sorted(families.family(x)):
            out.append(seq[:i] + (a, b) + seq[i + 1 :])
    return out


def enumerate_obstacle_cycles(
    params: Params,
    size: int,
    method: str = "exhaustive",
    magic: int | None = None,
    budget: int = 10**7,
) -> ObstacleCatalogue:
    """All non-completable cycles with ``size`` edges, up to canonical form.

    method="exhaustive" decides every canonical label sequence with the
    completion engine.  method="substitution" grows candidates from the
    forbidden triangles by fork substitution, filtering each generation with
    the engine; it can only reach substitution-generated cycles.
    """
    magic = fork_families(magic, params).magic
    if size < 3:
        raise RangeError("cycles need at least 3 edges")
    if method not in ("exhaustive", "substitution"):
        raise FormatError(f"unknown method {method!r}")
    count = _count_over_budget(params.delta, size, budget)
    if count is not None:
        raise CapacityError(f"{count} label sequences exceed the budget of {budget}")

    if method == "exhaustive":
        found = [
            seq
            for seq in _canonical_cycles(params.delta, size)
            if not _completes(seq, params, magic)
        ]
        return ObstacleCatalogue(params, size, method, tuple(sorted(found)))

    current = {
        seq
        for seq in _canonical_cycles(params.delta, 3)
        if not _completes(seq, params, magic)
    }
    for _ in range(3, size):
        candidates = {
            canonical_cycle(cand)
            for base in current
            for cand in substitute_forks(base, params, magic)
        }
        current = {cand for cand in candidates if not _completes(cand, params, magic)}
    return ObstacleCatalogue(params, size, method, tuple(sorted(current)))


@dataclass(frozen=True)
class CatalogueReport:
    ok: bool
    entries_checked: int
    non_entries_checked: int
    failure: str | None = None


_SAMPLE_SIZE = 20
_SAMPLE_SEED = 0


def verify_catalogue(catalogue: ObstacleCatalogue, budget: int = 10**8) -> CatalogueReport:
    """Cross-check a catalogue against the exhaustive oracle.

    Every entry must refuse completion outright; a seeded random sample of
    _SAMPLE_SIZE same-length canonical non-entries must complete.  The
    non-entries are drawn from every label sequence of the catalogue's size,
    so a size whose delta**size sequences exceed ``budget`` raises
    CapacityError before any search.
    """
    params = catalogue.params
    count = _count_over_budget(params.delta, catalogue.size, budget)
    if count is not None:
        raise CapacityError(f"{count} label sequences exceed the budget of {budget}")
    for cyc in catalogue.cycles:
        if oracle_complete(cycle_graph(cyc), params, budget) is not None:
            return CatalogueReport(
                False, len(catalogue.cycles), 0, f"entry {cyc} completes"
            )
    entries = set(catalogue.cycles)
    others = [
        seq
        for seq in _canonical_cycles(params.delta, catalogue.size)
        if seq not in entries
    ]
    if len(others) > _SAMPLE_SIZE:
        others = random.Random(_SAMPLE_SEED).sample(others, _SAMPLE_SIZE)
    for cyc in others:
        if oracle_complete(cycle_graph(cyc), params, budget) is None:
            return CatalogueReport(
                False,
                len(catalogue.cycles),
                len(others),
                f"non-entry {cyc} has no completion",
            )
    return CatalogueReport(True, len(catalogue.cycles), len(others))


def format_cycle_labels(cycle) -> str:
    labels = tuple(cycle)
    if any(x > 9 for x in labels):
        return ",".join(str(x) for x in labels)
    return "".join(str(x) for x in labels)


def parse_cycle_labels(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        raise FormatError("empty cycle line")
    try:
        if "," in text:
            return tuple(int(x) for x in text.split(","))
        return tuple(int(ch) for ch in text)
    except ValueError:
        raise FormatError(f"bad cycle line {text!r}")


def format_catalogue(catalogue: ObstacleCatalogue) -> str:
    p = catalogue.params
    lines = [
        f"catalogue {p.delta} {p.k} {p.c} {catalogue.size} {catalogue.method}"
    ]
    lines.extend(format_cycle_labels(cyc) for cyc in catalogue.cycles)
    return "\n".join(lines) + "\n"


def parse_catalogue(text: str) -> ObstacleCatalogue:
    """Parse the catalogue format, insisting on canonical, ascending entries."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty catalogue")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "catalogue":
        raise FormatError("header must be: catalogue delta k c size method")
    try:
        delta, k, c, size = (int(x) for x in header[1:5])
    except ValueError:
        raise FormatError("non-integer field in catalogue header")
    if size < 3:
        raise FormatError(f"catalogue size {size} is below 3")
    method = header[5]
    if method not in ("exhaustive", "substitution"):
        raise FormatError(f"unknown method {method!r}")
    cycles = []
    for line in lines[1:]:
        cyc = parse_cycle_labels(line)
        if len(cyc) != size:
            raise FormatError(f"cycle {line!r} does not have {size} labels")
        if not all(1 <= x <= delta for x in cyc):
            raise FormatError(f"cycle {line!r} has a label outside 1..{delta}")
        if canonical_cycle(cyc) != cyc:
            raise FormatError(f"cycle {line!r} is not in canonical form")
        cycles.append(cyc)
    if cycles != sorted(cycles) or len(set(cycles)) != len(cycles):
        raise FormatError("catalogue entries must be ascending and distinct")
    return ObstacleCatalogue(Params(delta, k, c), size, method, tuple(cycles))
