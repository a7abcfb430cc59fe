"""Back-tracing failed completions to small non-completable witnesses, and
enumerating the non-completable labelled cycles of a class."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import filterfalse, islice
from math import gcd

from .completion import CompletionStatus, complete_magic, oracle_complete
from .completion import _count_over_budget, _decide_cycles
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
        """The obstacle read off as a canonical cycle label sequence, in the
        order the back-trace built: its expansions replayed on the seed ring
        [0, 1, 2], fresh vertex 3 + t between the ends of the edge that
        expansion t replaced."""
        ring = [0, 1, 2]
        for fresh, step in enumerate(self.expansions, 3):
            p, q = step.obstacle_edge
            i = ring.index(p)
            ring.insert(i + 1 if ring[(i + 1) % len(ring)] == q else i, fresh)
        distance = self.obstacle.distance
        return canonical_cycle(map(distance, ring, ring[1:] + ring[:1]))


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

    # the rank steps only: a magic-filled pair has no witness to expand
    trace = result.trace
    step_by_pair = {(s.u, s.v): s for s in trace.listed_steps}
    seed = result.violations[0]
    i, j, k = seed.vertices

    hom = [i, j, k]
    edges: dict[tuple[int, int], int] = {
        (0, 1): trace.distance(i, j),
        (0, 2): trace.distance(i, k),
        (1, 2): trace.distance(j, k),
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


# The ways enumerate_obstacle_cycles builds a catalogue.
METHODS = ("exhaustive", "substitution")


@dataclass(frozen=True)
class ObstacleCatalogue:
    """Non-completable cycles of one size, canonical and ascending.  Checked
    once, when built; a check that fails raises FormatError."""

    params: Params
    size: int
    method: str
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size, delta = self.size, self.params.delta
        if type(size) is not int:
            raise FormatError(f"catalogue size {size!r} is not an integer")
        if size < 3:
            raise FormatError(f"catalogue size {size} is below 3")
        if self.method not in METHODS:
            raise FormatError(f"unknown method {self.method!r}")
        if type(self.cycles) is not tuple:
            raise FormatError("catalogue entries must be a tuple")
        for cyc in self.cycles:
            if type(cyc) is not tuple or not all(type(x) is int for x in cyc):
                raise FormatError(f"entry {cyc!r} is not a tuple of ints")
            if len(cyc) != size:
                problem = f"does not have {size} labels"
            elif not all(1 <= x <= delta for x in cyc):
                problem = f"has a label outside 1..{delta}"
            elif canonical_cycle(cyc) != cyc:
                problem = "is not in canonical form"
            else:
                continue
            raise FormatError(f"cycle {format_cycle_labels(cyc)!r} {problem}")
        if any(a >= b for a, b in zip(self.cycles, self.cycles[1:])):
            raise FormatError("catalogue entries must be ascending and distinct")


def _canonical_cycles(delta: int, size: int):
    """Every canonical sequence of ``size`` labels in 1..delta, ascending.

    The canonical sequences are the bracelets: the necklaces (least among
    their rotations) that no rotation of their reverse undercuts.  They come
    from J. Sawada's generator ("Generating bracelets in constant amortized
    time", SIAM J. Comput. 31(1), 2001), which extends a prenecklace
    a[1..t] one label at a time in lexicographic order, as the
    Fredricksen-Kessler-Maiorana algorithm does, with p the length of its
    longest Lyndon prefix.  Its reversal test works on runs of a[1]: with u
    the length of the leading run and v that of the trailing run, a reversal
    can undercut the prefix only when u == v, and only then is the prefix
    compared with its reverse (a mismatch prunes the branch).  A comparison
    still equal so far is carried as the start r of the reversed part and
    the flag rs, set once the reverse is smaller; the labels placed at the
    mirrored positions later settle it.

    Sawada's recursion runs here as a loop over the positions t, keeping the
    arguments of each position's later children in R, S and U; the last
    position emits its labels without descending.  The generator is lazy:
    it raises RangeError for a size below 3 on the first next().
    """
    if size < 3:
        raise RangeError("a cycle needs at least 3 labels")
    n = size
    a = [0] * (n + 1)  # a[1..n]; a[0] is never read
    R = [0] * n
    S = [False] * n
    U = [0] * n
    ends = [(j,) for j in range(delta + 1)]
    for first in range(1, delta + 1):
        a[1] = first
        t, p, r, u, v, rs = 2, 1, 1, 1, 1, False
        while True:
            # enter position t: the reversal comparison takes in a[t - 1]
            if t - 1 > (n - r) // 2 + r:
                x, y = a[t - 1], a[n - t + 2 + r]
                if x != y:
                    rs = x < y
            # the first child repeats the Lyndon prefix: a[t] = a[t - p]
            x = a[t] = a[t - p]
            if x == first:
                v += 1
                if u == t - 1:
                    u = t
            else:
                v = 0
            if t < n:
                R[t], S[t], U[t] = r, rs, u - (u == t)
                if u != v:
                    t += 1
                    continue
                m = (t + 1) // 2
                lead, mirror = a[u + 1 : m + 1], a[t - m + 1 : t - u + 1][::-1]
                if lead == mirror:
                    t, r, rs = t + 1, t, False
                    continue
                if lead < mirror:
                    t += 1
                    continue
            else:
                # the last position: its children are the sequences themselves
                head = tuple(a[1:n])
                q, s = r, rs  # for the first child, a[n] = x
                if u != n and x == first:
                    q = 0  # pruned
                elif u == n:  # the only u == v left (x != first sets v = 0): empty slices tie
                    q, s = n, False
                if q and not n % p:
                    if q < n and x != a[q + 1]:
                        s = x < a[q + 1]
                    if not s:
                        yield head + (x,)
                # the later children a[n] = j > x have p = n; j meets a[r + 1]
                if r + 1 < n:
                    yield from map(head.__add__, ends[max(x + 1, a[r + 1] + rs) :])
                elif not rs:
                    yield from map(head.__add__, ends[x + 1 :])
                t = n - 1
            # the next child of the deepest position that has one
            while a[t] == delta:
                t -= 1
            if t < 2:
                break
            a[t] += 1
            p, r, u, v, rs = t, R[t], U[t], 0, S[t]
            t += 1


# Cycles decided per _decide_cycles call, so that memory stays bounded by
# one chunk of cycle tuples while the cycles stream in.  The Python work of
# a call is fixed and each lane only widens the masks it ANDs, so wide chunks
# are cheaper per cycle: on the 4291 canonical 6-cycles at (6, 2, 15) (Python
# 3.11, shared 2-core VM) 256 lanes took about 4-5 ms, 4096 about 2.3 ms and
# 16384 about 2.2 ms.
_LANES = 4096


def _refused(cycles, params: Params, magic: int) -> list[tuple[int, ...]]:
    """The cycles of ``cycles`` that the engine cannot complete, in order,
    decided _LANES at a time."""
    out = []
    cycles = iter(cycles)
    while chunk := list(islice(cycles, _LANES)):
        refused = _decide_cycles(chunk, params, magic)
        while refused:
            low = refused & -refused
            refused ^= low
            out.append(chunk[low.bit_length() - 1])
    return out


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
    budget: int = 10**8,
) -> ObstacleCatalogue:
    """All non-completable cycles with ``size`` edges, up to canonical form.

    method="exhaustive" decides every canonical label sequence as the
    completion engine would.  method="substitution" grows candidates from the
    forbidden triangles by fork substitution, filtering each generation the
    same way; it can only reach substitution-generated cycles.  Both decide
    _LANES cycles per bit-sliced _decide_cycles call.  A ``size`` that is not
    an int raises RangeError before anything else is checked.

    ``budget`` caps the work: delta**size, the count of label sequences, for
    the exhaustive method, which walks only the canonical cycles among them,
    and the candidate cycles the substitution method builds,
    the canonical 3-cycles and then every substitution, each generation
    counted before it is built.  Either raises CapacityError before going
    over.  As each generation is built from the one before alone, the
    substitution method stops at the first empty one.
    """
    if type(size) is not int:
        raise RangeError(f"cycle size {size!r} is not an integer")
    families = fork_families(magic, params)
    magic = families.magic
    if size < 3:
        raise RangeError("cycles need at least 3 edges")
    if method not in METHODS:
        raise FormatError(f"unknown method {method!r}")

    if method == "exhaustive":
        count = _count_over_budget(params.delta, size, budget)
        if count is not None:
            raise CapacityError(f"{count} label sequences exceed the budget of {budget}")
        found = _refused(_canonical_cycles(params.delta, size), params, magic)
        return ObstacleCatalogue(params, size, method, tuple(found))

    built = _canonical_cycle_count(params.delta, 3)
    if built > budget:
        raise CapacityError(f"{built} candidate cycles exceed the budget of {budget}")
    current = _refused(_canonical_cycles(params.delta, 3), params, magic)
    for _ in range(3, size):
        if not current:
            break
        built += sum(len(families.family(x)) for base in current for x in base)
        if built > budget:
            raise CapacityError(f"{built} candidate cycles exceed the budget of {budget}")
        candidates = {
            canonical_cycle(cand)
            for base in current
            for cand in substitute_forks(base, params, magic)
        }
        current = _refused(candidates, params, magic)
    return ObstacleCatalogue(params, size, method, tuple(sorted(current)))


@dataclass(frozen=True)
class CatalogueReport:
    ok: bool
    entries_checked: int
    non_entries_checked: int
    failure: str | None = None


_SAMPLE_SIZE = 20
_SAMPLE_SEED = 0


def _canonical_cycle_count(delta: int, size: int) -> int:
    """How many sequences _canonical_cycles(delta, size) yields, by
    Burnside's lemma: N necklaces over the rotations, then the bracelets
    over the rotations and reflections of a ``size``-gon."""
    necklaces = sum(delta ** gcd(i, size) for i in range(size)) // size
    if size % 2:
        return (necklaces + delta ** ((size + 1) // 2)) // 2
    return (2 * necklaces + (delta + 1) * delta ** (size // 2)) // 4


def _sample_non_entries(catalogue: ObstacleCatalogue) -> list[tuple[int, ...]]:
    """The canonical non-entries of the catalogue's size that
    random.Random(_SAMPLE_SEED).sample would draw from their ascending list,
    or all of them when there are at most _SAMPLE_SIZE.

    random.sample picks by position alone, so the positions are drawn from
    the count of non-entries, and one pass over the canonical cycles, which
    stops after the last of them, picks the sequences out.
    """
    delta, size = catalogue.params.delta, catalogue.size
    entries = set(catalogue.cycles)
    total = _canonical_cycle_count(delta, size) - len(entries)
    if total > _SAMPLE_SIZE:
        positions = random.Random(_SAMPLE_SEED).sample(range(total), _SAMPLE_SIZE)
    else:
        positions = range(total)
    picked = dict.fromkeys(positions)
    others = filterfalse(entries.__contains__, _canonical_cycles(delta, size))
    for pos, seq in enumerate(islice(others, max(positions, default=-1) + 1)):
        if pos in picked:
            picked[pos] = seq
    return [picked[pos] for pos in positions]


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
    others = _sample_non_entries(catalogue)
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
    """The labels as bare digits when each is one digit 0..9, else
    comma-separated, the two forms parse_cycle_labels reads."""
    labels = tuple(cycle)
    if all(0 <= x <= 9 for x in labels):
        return "".join(str(x) for x in labels)
    return ",".join(str(x) for x in labels)


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
    """Parse the catalogue format; the catalogue checks its own entries."""
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
    cycles = tuple(map(parse_cycle_labels, lines[1:]))
    return ObstacleCatalogue(Params(delta, k, c), size, header[5], cycles)
