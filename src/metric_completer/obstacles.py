"""Back-tracing failed completions to small non-completable witnesses, and
enumerating the non-completable labelled cycles of a class."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .completion import CompletionStatus, complete_magic, oracle_complete
from .errors import DEFAULT_BUDGET, FormatError, PreconditionError, RangeError, _check_budget
from .graphs import EdgeLabelledGraph, canonical_cycle, cycle_graph
from .params import Params, TriangleStatus, _triangle_table, fork_families


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
    for level in sorted({s.rank for s in trace.listed_steps}, reverse=True):
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


def _canonical_blocks(delta: int, size: int):
    """Every canonical sequence of ``size`` labels in 1..delta, ascending,
    in blocks ``(head, lo, hi)``: the sequences ``head + (x,)`` for x in
    lo..hi-1, with ``head`` the first ``size - 1`` labels.

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
    arguments of each position's later children in R, S and U.  The last
    position's children are one run of labels up to delta, its first child
    included when that passes, so each visit to it yields at most one block,
    with ``hi = delta + 1``, and no two blocks share a head.  The generator
    is lazy: it raises RangeError for a size below 3 on the first next().
    """
    if size < 3:
        raise RangeError("a cycle needs at least 3 labels")
    n = size
    a = [0] * (n + 1)  # a[1..n]; a[0] is never read
    R = [0] * n
    S = [False] * n
    U = [0] * n
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
                # the last position: its children are the sequences themselves;
                # the later children a[n] = j > x have p = n; j meets a[r + 1]
                if r + 1 < n:
                    lo = a[r + 1] + rs
                    if lo <= x:
                        lo = x + 1
                else:
                    lo = delta + 1 if rs else x + 1
                q, s = r, rs  # for the first child, a[n] = x
                if u != n and x == first:
                    q = 0  # pruned
                elif u == n:  # the only u == v left (x != first sets v = 0): empty slices tie
                    q, s = n, False
                if q and not n % p:
                    if q < n and x != a[q + 1]:
                        s = x < a[q + 1]
                    if not s:
                        # it passes only with x above a[r + 1], or equal to
                        # it and rs unset, so the later children start at x + 1
                        lo = x
                if lo <= delta:
                    yield tuple(a[1:n]), lo, delta + 1
                t = n - 1
            # the next child of the deepest position that has one
            while a[t] == delta:
                t -= 1
            if t < 2:
                break
            a[t] += 1
            p, r, u, v, rs = t, R[t], U[t], 0, S[t]
            t += 1


def _decide_cycles(blocks, params: Params, magic: int) -> int:
    """Which cycles of ``blocks`` complete_magic fails on, as a mask over lanes.

    ``blocks`` is a list of ``(head, lo, hi)``, the cycles ``head + (x,)``
    for x in lo..hi-1, all of one length, each label in 1..delta; lane L is
    the L-th cycle in order, and bit L of the result is set when its
    ``cycle_graph`` fails.  A single cycle ``c`` is the block
    ``(c[:-1], c[-1], c[-1] + 1)``.  Every cycle runs the same rank
    schedule, so they are decided together, bit-sliced: bit L of
    ``D[u][v][d]`` is set when pair (u, v) of cycle L carries d, and bit L
    of ``opened[p]`` when chord p is still open.  No fork of a family has
    the family's distance as an arm, so the pairs a rank fills never serve
    as witnesses within that rank, and the rank can fill each open pair on
    every lane at once.  A cycle of 4 or more has no input triangle, and
    that of a 3-cycle is still there for the final check, so the engine's
    check of the input needs no counterpart.
    """
    if not blocks:
        return 0
    families = fork_families(magic, params)
    delta = params.delta
    n = len(blocks[0][0]) + 1
    blocks = blocks[::-1]  # last lane first, so int(..., 2) puts lane L at bit L
    labels = "".join(map(chr, range(delta + 1)))  # label d as the character chr(d)
    columns = [
        "".join([labels[head[i]] * (hi - lo) for head, lo, hi in blocks]) for i in range(n - 1)
    ]
    columns.append("".join([labels[hi - 1 : lo - 1 : -1] for _, lo, hi in blocks]))
    full = (1 << len(columns[0])) - 1
    D = [[None] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        D[u][v] = D[v][u] = [0] * (delta + 1)
    digits = ["0"] * (delta + 1)  # str.translate table: label -> one bit digit
    for i, text in enumerate(columns):
        # one character per lane, so each label's lanes read as one binary numeral
        masks = D[i][(i + 1) % n]
        for d in map(ord, set(text)):
            digits[d] = "1"
            masks[d] = int(text.translate(digits), 2)
            digits[d] = "0"
    # the pairs that are not cycle edges, open on every lane
    chords = [(u, v) for u, v in combinations(range(n), 2) if 1 < v - u < n - 1]
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
    for i, j, k in combinations(range(n), 3):
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


# Lanes decided per _decide_cycles call: a chunk closes at _LANES lanes or
# more and no block is cut, so with the generator's blocks of at most delta
# lanes, memory stays bounded by one chunk of fewer than _LANES + delta lanes.
# The Python work of a call is fixed and each lane only widens the masks it
# ANDs, so wide chunks are cheaper per cycle: on the 4291 canonical 6-cycles
# at (6, 2, 15), in 1,705 blocks (Python 3.11, shared 2-core VM), the decider
# calls took about 3.3 ms at 256 lanes, 1.7 ms at 4096 and 1.6 ms at 16384,
# and _refused with the generator's walk about 5.1, 3.2 and 3.2 ms.
_LANES = 4096


def _refused(blocks, params: Params, magic: int) -> list[tuple[int, ...]]:
    """The cycles of ``blocks`` that the engine cannot complete, in order,
    decided a chunk at a time; a cycle's tuple is built only if refused."""
    out = []
    for chunk in _chunks(blocks):
        refused = _decide_cycles(chunk, params, magic)
        lanes = []
        while refused:
            low = refused & -refused
            refused ^= low
            lanes.append(low.bit_length() - 1)
        out.extend(_cycles_at(chunk, lanes, {}))
    return out


def _chunks(blocks):
    """``blocks`` in lists, in order, each closed once it holds _LANES lanes
    or more; a block is never cut."""
    chunk, lanes = [], 0
    for block in blocks:
        chunk.append(block)
        lanes += block[2] - block[1]
        if lanes >= _LANES:
            yield chunk
            chunk, lanes = [], 0
    if chunk:
        yield chunk


def _cycles_at(blocks, positions, skip):
    """Yield the cycle at each of the ascending ``positions`` of ``blocks``,
    counted without the cycles of ``skip``, which maps a head to its last
    labels, ascending.  Position p is the p-th cycle in order, and the walk
    stops after the last position.  A head in ``skip`` heads one block only.
    """
    blocks = iter(blocks)
    start = end = 0  # the positions of the block's first cycle and of the next block's
    for pos in positions:
        while end <= pos:
            head, lo, hi = next(blocks)
            taken = skip.get(head, ())
            start, end = end, end + hi - lo - len(taken)
        x = lo + pos - start
        for t in taken:  # step over the skipped labels at or below the label
            if t <= x:
                x += 1
        yield head + (x,)


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
    if not all(type(x) is int and 1 <= x <= params.delta for x in seq):
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
    budget: int = DEFAULT_BUDGET,
) -> ObstacleCatalogue:
    """All non-completable cycles with ``size`` edges, up to canonical form.

    method="exhaustive" decides every canonical label sequence as the
    completion engine would.  method="substitution" grows candidates from the
    forbidden triangles by fork substitution, filtering each generation the
    same way; it can only reach substitution-generated cycles.  Both decide
    a chunk of about _LANES cycles per bit-sliced _decide_cycles call.  A
    ``size`` that is not an int raises RangeError before anything else is
    checked.

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
        _check_budget("{count} label sequences exceed", budget, params.delta, size)
        found = _refused(_canonical_blocks(params.delta, size), params, magic)
        return ObstacleCatalogue(params, size, method, tuple(found))

    built = _canonical_cycle_count(params.delta, 3)
    _check_budget("{count} candidate cycles exceed", budget, built)
    current = _refused(_canonical_blocks(params.delta, 3), params, magic)
    for _ in range(3, size):
        if not current:
            break
        built += sum(len(families.family(x)) for base in current for x in base)
        _check_budget("{count} candidate cycles exceed", budget, built)
        candidates = {
            canonical_cycle(cand)
            for base in current
            for cand in substitute_forks(base, params, magic)
        }
        blocks = ((cyc[:-1], cyc[-1], cyc[-1] + 1) for cyc in sorted(candidates))
        current = _refused(blocks, params, magic)
    return ObstacleCatalogue(params, size, method, tuple(current))


@dataclass(frozen=True)
class CatalogueReport:
    ok: bool
    entries_checked: int
    non_entries_checked: int
    failure: str | None = None


_SAMPLE_SIZE = 20
_SAMPLE_SEED = 0


def _canonical_cycle_count(delta: int, size: int) -> int:
    """How many sequences _canonical_blocks(delta, size) holds, by
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
    the count of non-entries, and _cycles_at picks the sequences out in one
    pass over the canonical blocks, with the entries skipped.
    """
    delta, size = catalogue.params.delta, catalogue.size
    total = _canonical_cycle_count(delta, size) - len(catalogue.cycles)
    if total > _SAMPLE_SIZE:
        positions = random.Random(_SAMPLE_SEED).sample(range(total), _SAMPLE_SIZE)
    else:
        positions = range(total)
    entries: dict[tuple[int, ...], list[int]] = {}  # head -> its last labels, ascending
    for cyc in catalogue.cycles:
        entries.setdefault(cyc[:-1], []).append(cyc[-1])
    ascending = sorted(positions)
    picked = dict(zip(ascending, _cycles_at(_canonical_blocks(delta, size), ascending, entries)))
    return [picked[pos] for pos in positions]


def verify_catalogue(
    catalogue: ObstacleCatalogue, budget: int = DEFAULT_BUDGET
) -> CatalogueReport:
    """Cross-check a catalogue against the exhaustive oracle.

    Every entry must refuse completion outright; a seeded random sample of
    _SAMPLE_SIZE same-length canonical non-entries must complete.  They are
    drawn from the canonical cycles; delta**size, the count of label
    sequences, bounds both their closed-form count and the walk that picks
    them out, so a size over ``budget`` raises CapacityError before any search.
    """
    params = catalogue.params
    _check_budget("{count} label sequences exceed", budget, params.delta, catalogue.size)
    entries = len(catalogue.cycles)
    for cyc in catalogue.cycles:
        if oracle_complete(cycle_graph(cyc), params, budget) is not None:
            return CatalogueReport(False, entries, 0, f"entry {cyc} completes")
    others = _sample_non_entries(catalogue)
    for cyc in others:
        if oracle_complete(cycle_graph(cyc), params, budget) is None:
            failure = f"non-entry {cyc} has no completion"
            return CatalogueReport(False, entries, len(others), failure)
    return CatalogueReport(True, entries, len(others))


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
