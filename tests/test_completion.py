"""The magic completion engine, shortest-path baseline, and oracle."""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from metric_completer import cli
from metric_completer import (
    CapacityError,
    CompletionResult,
    CompletionStatus,
    CompletionTrace,
    EdgeLabelledGraph,
    Family,
    ParameterError,
    Params,
    PreconditionError,
    RangeError,
    TraceStep,
    TriangleStatus,
    ViolationView,
    check_sandwich,
    classify_triangle,
    complete_magic,
    cycle_graph,
    magic_distances,
    obstacle_trace,
    oracle_complete,
    oracle_completions,
    shortest_path_completion,
    time_function,
    violations,
)
from metric_completer import graphs
from metric_completer.graphs import BITSET_MIN_VERTICES, MAX_VERTICES
from metric_completer.completion import _count_over_budget
from metric_completer.params import _triangle_table

from oracles import (
    complete_magic_oracle,
    label_bits,
    obstacle_hom_oracle,
    oracle_completions_reference,
    oracle_value_ranges,
    shortest_path_oracle,
    substitution_obstacles,
    sweep_universe,
    violations_oracle,
)

PAR = Params(6, 2, 15)

TRIPLES = [
    Params(d, k, c)
    for d in range(2, 7)
    for k in range(1, d + 1)
    for c in range(2 * d + k + 1, 3 * d + 2)
]


def fork_input(a, b):
    """Path u-w-v with the two fork distances on the path edges."""
    return EdgeLabelledGraph(3, [(0, 1, a), (1, 2, b)])


def outcome(res):
    return res.status, res.trace.steps, res.trace.final_graph, res.violations


def random_tree_graph(rng, n, delta, extra):
    """A random labelled tree on n vertices plus each other pair with
    probability ``extra``, labels uniform in 1..delta."""
    edges = [(rng.randrange(v), v, rng.randint(1, delta)) for v in range(1, n)]
    tree = {(u, v) for u, v, _ in edges}
    edges += [
        (u, v, rng.randint(1, delta))
        for u, v in itertools.combinations(range(n), 2)
        if (u, v) not in tree and rng.random() < extra
    ]
    return EdgeLabelledGraph(n, edges)


def planted_sparse_graph(rng, n, par, cycle, degree=4):
    """A random graph of average degree ``degree`` with no forbidden
    triangle, holding the label cycle ``cycle`` on random vertices."""
    dist = {}

    def label(u, v):
        return dist.get((min(u, v), max(u, v)))

    ring = rng.sample(range(n), len(cycle))
    for i, d in enumerate(cycle):
        u, v = ring[i], ring[(i + 1) % len(ring)]
        dist[(min(u, v), max(u, v))] = d
    while len(dist) < degree * n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        d = rng.randint(1, par.delta)
        if (u, v) in dist:
            continue
        if all(
            classify_triangle(d, label(u, w), label(v, w), par) is TriangleStatus.ALLOWED
            for w in range(n)
            if w != u and w != v and label(u, w) and label(v, w)
        ):
            dist[(u, v)] = d
    return EdgeLabelledGraph(n, [(u, v, d) for (u, v), d in dist.items()])


def planted_small_graph(rng, n, par, cycle, holes):
    """The label cycle ``cycle`` on vertices 0, 1, ..., then the other pairs
    of n vertices in random order, each with a random label kept only if it
    closes no forbidden triangle, until at most ``holes`` pairs are open."""
    dist = {}

    def label(u, v):
        return dist.get((min(u, v), max(u, v)))

    for i, d in enumerate(cycle):
        u, v = i, (i + 1) % len(cycle)
        dist[(min(u, v), max(u, v))] = d
    pairs = list(itertools.combinations(range(n), 2))
    for u, v in rng.sample(pairs, len(pairs)):
        if len(pairs) - len(dist) <= holes:
            break
        d = rng.randint(1, par.delta)
        if (u, v) not in dist and all(
            classify_triangle(d, label(u, w), label(v, w), par) is TriangleStatus.ALLOWED
            for w in range(n)
            if w != u and w != v and label(u, w) and label(v, w)
        ):
            dist[(u, v)] = d
    return EdgeLabelledGraph(n, [(u, v, d) for (u, v), d in dist.items()])


def relabel(g, perm):
    return EdgeLabelledGraph(
        g.vertex_count, [(perm[u], perm[v], d) for (u, v), d in g.edges.items()]
    )


def replay(g, steps):
    """Re-apply a trace step by step, checking each insertion is legal."""
    dist = [row[:] for row in g.matrix()]
    for u, v in g.non_edges():
        dist[u][v] = dist[v][u] = None
    for step in steps:
        u, v, w = step.u, step.v, step.witness
        assert dist[u][v] is None, step
        if step.family is not Family.FINAL:
            a, b = step.fork
            assert dist[u][w] == a and dist[w][v] == b, step
        dist[u][v] = dist[v][u] = step.distance
    return dist


class TestCompleteMagic:
    def test_fork_11_inserts_2_at_rank_3(self):
        res = complete_magic(fork_input(1, 1), PAR, 4)
        assert res.status is CompletionStatus.COMPLETED
        (step,) = res.trace.steps
        assert (step.rank, step.distance, step.u, step.v) == (3, 2, 0, 2)
        assert step.witness == 1
        assert step.fork == (1, 1)
        assert step.family is Family.SUM
        assert res.trace.final_graph.distance(0, 2) == 2

    def test_worked_schedule(self):
        # forks (1,6), (1,1)/(6,6), (1,2)/(5,6) close at ranks 2, 3, 5 with
        # distances 5, 2, 3
        table = [
            ((1, 6), 2, 5, Family.DIFF),
            ((1, 1), 3, 2, Family.SUM),
            ((6, 6), 3, 2, Family.CAP),
            ((1, 2), 5, 3, Family.SUM),
            ((5, 6), 5, 3, Family.CAP),
        ]
        for fork, rank, value, family in table:
            res = complete_magic(fork_input(*fork), PAR, 4)
            (step,) = res.trace.steps
            assert (step.rank, step.distance) == (rank, value), fork
            assert step.family is family, fork
            assert rank == time_function(value, 4, 6)

    def test_cycle_11665_fails_with_135(self):
        res = complete_magic(cycle_graph((1, 1, 6, 6, 5)), PAR, 4)
        assert res.status is CompletionStatus.FAILED
        got = [(s.rank, s.distance, s.u, s.v, s.witness, s.fork) for s in res.trace.steps]
        assert got == [
            (2, 5, 1, 3, 2, (1, 6)),
            (3, 2, 0, 2, 1, (1, 1)),
            (3, 2, 2, 4, 3, (6, 6)),
            (5, 3, 0, 3, 4, (5, 6)),
            (5, 3, 1, 4, 2, (1, 2)),
        ]
        assert res.violations[0].distances == (1, 3, 5)
        assert res.violations[0].status is TriangleStatus.NON_METRIC
        assert res.trace.final_graph.is_complete()

    def test_complete_member_is_untouched(self):
        g = cycle_graph((1, 1, 2))
        res = complete_magic(g, PAR, 4)
        assert res.status is CompletionStatus.COMPLETED
        assert res.trace.steps == ()
        assert res.trace.final_graph == g
        assert res.violations == ()

    def test_square_1111_gets_chords_2(self):
        res = complete_magic(cycle_graph((1, 1, 1, 1)), PAR, 4)
        assert res.status is CompletionStatus.COMPLETED
        final = res.trace.final_graph
        assert final.distance(0, 2) == 2
        assert final.distance(1, 3) == 2
        assert all(s.rank == 3 for s in res.trace.steps)

    def test_forbidden_input_triangle_fails_immediately(self):
        g = cycle_graph((1, 3, 5))
        res = complete_magic(g, PAR, 4)
        assert res.status is CompletionStatus.FAILED
        assert res.trace.steps == ()
        assert res.trace.final_graph == g
        assert [v.status for v in res.violations] == [TriangleStatus.NON_METRIC]

    def test_remaining_pairs_get_magic_last(self):
        res = complete_magic(EdgeLabelledGraph(2), PAR, 4)
        (step,) = res.trace.steps
        assert step.family is Family.FINAL
        assert step.rank == 2 * PAR.delta + 1
        assert step.distance == 4
        assert step.describe() == "final: (0,1) = 4"

    def test_disconnected_components_joined_by_magic(self):
        g = EdgeLabelledGraph(4, [(0, 1, 1), (2, 3, 6)])
        res = complete_magic(g, PAR, 3)
        assert res.status is CompletionStatus.COMPLETED
        assert res.trace.final_graph.distance(0, 2) == 3

    def test_default_magic_is_maximum(self):
        assert complete_magic(fork_input(1, 2), PAR).trace.final_graph.distance(
            0, 2
        ) == complete_magic(fork_input(1, 2), PAR, 4).trace.final_graph.distance(0, 2)

    def test_rejects_non_magic(self):
        with pytest.raises(ParameterError):
            complete_magic(fork_input(1, 1), PAR, 5)

    def test_rejects_non_integer_magic(self):
        # True == 1 and 4.0 == 4 are magic values by equality; the cache is
        # warmed with the integers first so that it cannot answer for them
        g = cycle_graph((1, 1, 1, 1))
        for par, magic, fake in ((Params(2, 1, 7), 1, True), (PAR, 4, 4.0)):
            assert complete_magic(g, par, magic).status is CompletionStatus.COMPLETED
            with pytest.raises(ParameterError, match=rf"{fake} not magic"):
                complete_magic(g, par, fake)

    def test_magic_checked_before_labels(self):
        with pytest.raises(ParameterError):
            complete_magic(EdgeLabelledGraph(2, [(0, 1, 7)]), PAR, 5)

    def test_vertex_cap(self):
        assert MAX_VERTICES == 1000
        # at the cap the engine runs: this input fails at its first scan
        at_cap = EdgeLabelledGraph(MAX_VERTICES, [(0, 1, 1), (1, 2, 3), (0, 2, 5)])
        assert complete_magic(at_cap, PAR).violations[0].vertices == (0, 1, 2)
        with pytest.raises(CapacityError, match="^1001 vertices exceed the engine's cap of 1000$"):
            complete_magic(EdgeLabelledGraph(MAX_VERTICES + 1), PAR)
        with pytest.raises(CapacityError):
            complete_magic(EdgeLabelledGraph(10**8), PAR)

    def test_rejects_labels_beyond_delta(self):
        for complete in (complete_magic, complete_magic_oracle):
            with pytest.raises(RangeError, match="^distance 7 outside 1..6$"):
                complete(EdgeLabelledGraph(2, [(0, 1, 7)]), PAR, 4)

    def test_label_beyond_delta_above_the_bitset_threshold(self, monkeypatch):
        # a tree of 40 vertices whose only 7 closes no triangle: the engine's
        # input check in violations refuses the label before any scan and
        # before anything is filled; the bitset walk, which has no label
        # check, never runs
        def unused(*args):
            raise AssertionError("the bitset walk ran")

        monkeypatch.setattr("metric_completer.graphs._walk", unused)
        n = 40
        assert n > BITSET_MIN_VERTICES
        tree = [(v - 1, v, 1 + v % 6) for v in range(1, n - 1)] + [(0, n - 1, 7)]
        g = EdgeLabelledGraph(n, tree)
        for call in (complete_magic, obstacle_trace):
            with pytest.raises(RangeError, match="^distance 7 outside 1..6$"):
                call(g, PAR)

    def test_deterministic(self):
        g = cycle_graph((1, 1, 6, 6, 5))
        assert complete_magic(g, PAR, 4).trace.steps == complete_magic(g, PAR, 4).trace.steps

    def test_completed_iff_complete_and_clean(self):
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(2, 5)
            edges = [
                (u, v, rng.randint(1, 6))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ]
            res = complete_magic(EdgeLabelledGraph(n, edges), PAR)
            final = res.trace.final_graph
            ok = final.is_complete() and not violations(final, PAR)
            assert (res.status is CompletionStatus.COMPLETED) == ok
            assert bool(res.violations) == (res.status is CompletionStatus.FAILED)

    def test_trace_replays_cleanly(self):
        # every insertion lands on a hole and cites a witness that carries
        # the fork distances at that moment; ranks never decrease
        for labels in [(1, 1, 6, 6, 5), (1, 1, 1, 6), (1, 2, 3, 4, 5), (2, 2, 2, 2, 2, 2)]:
            g = cycle_graph(labels)
            res = complete_magic(g, PAR, 4)
            replay(g, res.trace.steps)
            ranks = [s.rank for s in res.trace.steps]
            assert ranks == sorted(ranks)
            finals = [s.family is Family.FINAL for s in res.trace.steps]
            assert finals == sorted(finals)
            by_rank = {}
            for s in res.trace.steps:
                by_rank.setdefault(s.rank, set()).add(s.distance)
            assert all(len(v) == 1 for v in by_rank.values())

    def test_json_trace(self):
        res = complete_magic(fork_input(1, 1), PAR, 4)
        steps = json.loads("".join(cli._complete_json(PAR, 4, res)))["steps"]
        assert steps == [
            {
                "rank": 3,
                "distance": 2,
                "u": 0,
                "v": 2,
                "witness": 1,
                "fork": [1, 1],
                "family": "F+",
            }
        ]


class TestTraceStep:
    FIELDS = ("rank", "distance", "u", "v", "witness", "fork", "family")

    def test_field_names(self):
        assert TraceStep._fields == self.FIELDS

    def test_is_the_tuple_of_its_fields(self):
        step = TraceStep(3, 2, 0, 2, 1, (1, 1), Family.SUM)
        assert step == (3, 2, 0, 2, 1, (1, 1), Family.SUM)
        assert hash(step) == hash((3, 2, 0, 2, 1, (1, 1), Family.SUM))
        # the engine builds its steps without calling the constructor
        (built,) = complete_magic(fork_input(1, 1), PAR, 4).trace.steps
        assert type(built) is TraceStep
        assert built == step

    def test_as_dict_and_describe(self):
        cases = [
            (
                TraceStep(2, 5, 1, 3, 2, (1, 6), Family.DIFF),
                {"witness": 2, "fork": [1, 6], "family": "F-"},
                "rank 2: (1,3) = 5 witness 2 fork (1,6) F-",
            ),
            (
                TraceStep(13, 4, 0, 1, None, None, Family.FINAL),
                {"witness": None, "fork": None, "family": "FinalM"},
                "final: (0,1) = 4",
            ),
            (
                TraceStep(2, 2, 0, 2, None, None, Family.PATH),
                {"witness": None, "fork": None, "family": "SP"},
                "step 2: (0,2) = 2",
            ),
        ]
        for step, tail, text in cases:
            # the step's record as the JSON writer renders it
            g = EdgeLabelledGraph(4)
            trace = CompletionTrace([step], None, g.matrix(), g)
            runs = cli._json_steps(trace, cli._numerals(trace, PAR))
            (record,) = json.loads("".join(cli._json_list(runs)))
            head = dict(zip(self.FIELDS[:4], step[:4]))
            assert record == {**head, **tail}
            assert list(record) == list(self.FIELDS)
            assert step.describe() == text

    def test_fields_cannot_be_assigned(self):
        step = TraceStep(3, 2, 0, 2, 1, (1, 1), Family.SUM)
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(step, name, 0)
        with pytest.raises(AttributeError):
            step.extra = 0
        assert step == (3, 2, 0, 2, 1, (1, 1), Family.SUM)


class TestTrustedGraphs:
    """The engine's final graph and the oracle's completions are built
    without re-validating their edges; each must be the graph the validating
    constructor builds from the same edges."""

    def test_trusted_constructor_equals_validated(self):
        edges = {(0, 1): 1, (0, 2): 2, (1, 2): 1}
        g = EdgeLabelledGraph._trusted(3, edges)
        ref = EdgeLabelledGraph(3, [(2, 1, 1), (0, 1, 1), (0, 2, 2)])
        assert g == ref
        assert hash(g) == hash(ref)
        assert repr(g) == repr(ref)
        assert g.edges is edges

    def test_engine_and_oracle_outputs(self):
        # each output against the graph the validating constructor builds
        # from the same triples in the same order as before: row-major for
        # the engine, input edges then holes in search order for the oracle
        rng = random.Random(21)
        inputs = [
            EdgeLabelledGraph(0),
            EdgeLabelledGraph(1),
            EdgeLabelledGraph(2),
            fork_input(1, 6),
            cycle_graph((1, 1, 6, 6, 5)),
            cycle_graph((1, 3, 5)),
        ] + [random_tree_graph(rng, rng.randint(0, 5), 6, 0.3) for _ in range(40)]
        checked = []
        for g in inputs:
            for magic in magic_distances(PAR):
                checked.append((
                    complete_magic(g, PAR, magic).trace.final_graph,
                    complete_magic_oracle(g, PAR, magic).trace.final_graph,
                ))
            base = [(u, v, d) for (u, v), d in g.edges.items()]
            holes = sorted(g.non_edges(), key=lambda p: (p[1], p[0]))  # column order
            for got in itertools.islice(oracle_completions(g, PAR), 5):
                filled = [(u, v, got.edges[u, v]) for u, v in holes]
                checked.append((got, EdgeLabelledGraph(g.vertex_count, base + filled)))
        assert {got.vertex_count for got, _ in checked} >= {0, 1}
        for got, ref in checked:
            assert got == ref
            assert hash(got) == hash(ref)
            assert repr(got) == repr(ref)
            assert list(got.edges.items()) == list(ref.edges.items())


class TestAgainstTripleLoop:
    """The bitset engine against complete_magic_oracle, the direct scan of
    every open pair and every witness that it replaces."""

    def test_random_graphs_every_triple_and_magic(self):
        rng = random.Random(11)
        for par in TRIPLES:
            for magic in magic_distances(par):
                graphs = [
                    random_tree_graph(
                        rng, rng.randint(0, 12), par.delta, rng.choice((0, 0.1, 0.3))
                    )
                    for _ in range(30)
                ] + [
                    cycle_graph(rng.choices(range(1, par.delta + 1), k=rng.randint(3, 12)))
                    for _ in range(15)
                ] + [EdgeLabelledGraph(n) for n in (0, 1, 2)]
                for g in graphs:
                    assert outcome(complete_magic(g, par, magic)) == outcome(
                        complete_magic_oracle(g, par, magic)
                    ), (par, magic, g)

    def test_tree_and_sparse_graph_at_60(self):
        rng = random.Random(12)
        tree = random_tree_graph(rng, 60, 6, 0)
        # sparse: random edges, each kept only if it closes no forbidden triangle
        dist = {}
        for _ in range(120):
            u, v = sorted(rng.sample(range(60), 2))
            d = rng.randint(1, 6)
            if (u, v) in dist:
                continue
            sides = [
                (dist.get((min(u, w), max(u, w))), dist.get((min(v, w), max(v, w))))
                for w in range(60)
                if w != u and w != v
            ]
            if all(
                classify_triangle(d, a, b, PAR) is TriangleStatus.ALLOWED
                for a, b in sides
                if a and b
            ):
                dist[(u, v)] = d
        sparse = EdgeLabelledGraph(60, [(u, v, d) for (u, v), d in dist.items()])
        for g in (tree, sparse):
            for magic in magic_distances(PAR):
                res = complete_magic(g, PAR, magic)
                assert outcome(res) == outcome(complete_magic_oracle(g, PAR, magic))
                assert len(res.trace.steps) == 60 * 59 // 2 - len(g.edges)

    def test_final_check_fails_on_planted_obstacles(self):
        # the initial check passes and the final one fails, on both sides of
        # the size at which the final check moves to the engine's bitsets
        rng = random.Random(14)
        cap = BITSET_MIN_VERTICES
        for n in (cap - 1, cap, cap + 1, 40, 48, 64):
            g = planted_sparse_graph(rng, n, PAR, (1, 1, 6, 6, 5))
            assert violations_oracle(g, PAR) == []
            for magic in magic_distances(PAR):
                res = complete_magic(g, PAR, magic)
                assert res.status is CompletionStatus.FAILED
                assert outcome(res) == outcome(complete_magic_oracle(g, PAR, magic)), (n, magic)
                assert list(res.violations) == violations_oracle(res.trace.final_graph, PAR)

    def test_final_check_on_other_triples(self):
        # random trees with chords whose completions fail or succeed, for
        # triples with other tables, at and around the bitset size
        rng = random.Random(15)
        cap = BITSET_MIN_VERTICES
        failed = 0
        for par in (Params(3, 1, 8), Params(4, 2, 12), Params(5, 3, 16), Params(6, 1, 19)):
            for n in (cap - 1, cap, cap + 1, 44):
                g = random_tree_graph(rng, n, par.delta, 0.02)
                magic = rng.choice(magic_distances(par))
                res = complete_magic(g, par, magic)
                assert outcome(res) == outcome(complete_magic_oracle(g, par, magic)), (par, n)
                assert list(res.violations) == violations_oracle(res.trace.final_graph, par)
                failed += bool(res.trace.steps and res.violations)
            # the fill's extremes: empty inputs, where every pair is
            # magic-filled and the derived magic row holds everything, and a
            # complete input with no pair to fill
            path = EdgeLabelledGraph(
                cap + 1, [(v - 1, v, 1 + v % par.delta) for v in range(1, cap + 1)]
            )
            for magic in magic_distances(par):
                full = complete_magic(path, par, magic).trace.final_graph
                assert full.is_complete()
                for g in [EdgeLabelledGraph(n) for n in (cap - 1, cap, cap + 1)] + [full]:
                    res = complete_magic(g, par, magic)
                    ref = complete_magic_oracle(g, par, magic)
                    assert outcome(res) == outcome(ref), (par, magic, g.vertex_count)
                    assert list(res.trace.final_graph.edges.items()) == list(
                        ref.trace.final_graph.edges.items()
                    )
                    assert list(res.violations) == violations_oracle(res.trace.final_graph, par)
                    holes = g.vertex_count * (g.vertex_count - 1) // 2 - len(g.edges)
                    assert len(res.trace.steps) == holes
        assert failed >= 4

    def test_walk_off_magic_matches_the_row_scan(self):
        # from BITSET_MIN_VERTICES on, the final check walks the engine's
        # bitsets and skips a pair (i, j) at magic unless some k > j is off
        # magic on both sides; on completions that succeed and that fail it
        # must yield the row scan's triangles in the row scan's order
        rng = random.Random(17)
        cases = [
            (planted_sparse_graph(rng, 40, PAR, (1, 1, 6, 6, 5)), PAR, magic)
            for magic in magic_distances(PAR)
        ]
        for _ in range(40):
            par = rng.choice(TRIPLES)
            n = rng.randint(BITSET_MIN_VERTICES, BITSET_MIN_VERTICES + 8)
            g = random_tree_graph(rng, n, par.delta, rng.choice((0, 0.01, 0.03)))
            cases.append((g, par, rng.choice(magic_distances(par))))
        # and n = 32..80 at every triple and magic distance
        more = random.Random(19)
        for par in TRIPLES:
            for magic in magic_distances(par):
                n = more.randint(BITSET_MIN_VERTICES, 80)
                g = random_tree_graph(more, n, par.delta, more.choice((0, 0.005, 0.01)))
                cases.append((g, par, magic))
        outcomes = set()
        through_magic = 0
        for g, par, magic in cases:
            res = complete_magic(g, par, magic)
            if not res.trace.steps:
                continue  # the input check failed; no final check ran
            final = res.trace.final_graph
            dist = final.matrix()
            expected = list(graphs._row_scan(dist, _triangle_table(par)[0]))
            assert list(res.violations) == expected == violations_oracle(final, par), (
                par, magic)
            assert (res.status is CompletionStatus.FAILED) == bool(expected)
            outcomes.add(res.status)
            # failed only through triangles whose side (i, j) is at magic
            through_magic += bool(expected) and all(
                dist[v.vertices[0]][v.vertices[1]] == magic for v in expected
            )
        assert outcomes == {CompletionStatus.COMPLETED, CompletionStatus.FAILED}
        assert through_magic
        # complete graphs mostly at magic, where a forbidden triangle is rare
        # and has two sides off magic: the walk must reach each such pair
        hits = 0
        for par in TRIPLES:
            magic = rng.choice(magic_distances(par))
            bad = _triangle_table(par)[0]
            for _ in range(4):
                n = rng.randint(BITSET_MIN_VERTICES, BITSET_MIN_VERTICES + 8)
                g = EdgeLabelledGraph(n, [
                    (u, v, magic if rng.random() < 0.97 else rng.randint(1, par.delta))
                    for u, v in itertools.combinations(range(n), 2)
                ])
                dist = g.matrix()
                expected = list(graphs._row_scan(dist, bad))
                assert expected == violations_oracle(g, par)
                view = violations(g, par, dist, label_bits(g, par.delta, magic))
                assert list(view) == expected, (par, magic)
                hits += len(expected) == 1
        assert hits  # some graphs hold a single forbidden triangle

    def test_complete_graphs_against_per_triangle_scan(self):
        rng = random.Random(13)
        for n in range(3, 41):
            par = rng.choice(TRIPLES)
            # mostly magic labels, so that violations are few and scattered
            magic = magic_distances(par)[-1]
            g = EdgeLabelledGraph(n, [
                (u, v, magic if rng.random() < 0.9 else rng.randint(1, par.delta))
                for u, v in itertools.combinations(range(n), 2)
            ])
            res = complete_magic(g, par)
            assert res.trace.steps == ()
            assert res.trace.final_graph == g
            assert list(res.violations) == violations_oracle(g, par), (par, g)
            assert violations(g, par) == violations_oracle(g, par)


graphs_with_relabelling = st.sampled_from(TRIPLES).flatmap(
    lambda par: st.tuples(
        st.just(par),
        st.sampled_from(magic_distances(par)),
        st.integers(0, 9).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.sampled_from((0,) * par.delta + tuple(range(1, par.delta + 1))),
                    min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2,
                ).map(
                    lambda labels, n=n: EdgeLabelledGraph(n, [
                        (u, v, d)
                        for (u, v), d in zip(itertools.combinations(range(n), 2), labels)
                        if d
                    ])
                ),
                st.permutations(range(n)),
            )
        ),
    )
)


small_partial_graphs = st.sampled_from([p for p in TRIPLES if p.delta <= 5]).flatmap(
    lambda par: st.tuples(
        st.just(par),
        st.integers(5, 6).flatmap(
            lambda n: st.lists(
                st.sampled_from((0,) * par.delta + tuple(range(1, par.delta + 1))),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ).map(
                lambda labels, n=n: EdgeLabelledGraph(n, [
                    (u, v, d)
                    for (u, v), d in zip(itertools.combinations(range(n), 2), labels)
                    if d
                ])
            )
        ),
    )
)


class TestAgainstObstacleHomomorphisms:
    """obstacle_hom_oracle, which maps the substitution catalogues' cycles
    into the input, against the exhaustive oracle on small graphs and the
    engine on large ones, at every triple with delta <= 6 and every magic
    distance.  The inputs are mostly graphs with no forbidden triangle that
    hold a planted cycle: a catalogue entry or random labels."""

    def planted_cycle(self, rng, par, size):
        entries = [
            cyc
            for magic in magic_distances(par)
            for cyc in substitution_obstacles(par, magic)
            if len(cyc) == size
        ]
        if entries and rng.random() < 0.5:
            return rng.choice(entries)
        return rng.choices(range(1, par.delta + 1), k=size)

    def test_agrees_with_the_exhaustive_oracle_on_small_graphs(self):
        # 5-8 vertices with at most 16 holes; delta**16 assignments bounds
        # the oracle's search
        rng = random.Random(23)
        outcomes = {"completes": 0, "fails at input": 0, "fails through a longer cycle": 0}
        for par in TRIPLES:
            for _ in range(60):
                n = rng.randint(5, 8)
                if rng.random() < 0.2:  # random labels, forbidden triangles and all
                    g = random_tree_graph(rng, n, par.delta, 0.6)
                else:
                    cycle = self.planted_cycle(rng, par, rng.randint(4, n))
                    g = planted_small_graph(rng, n, par, cycle, rng.randint(0, 16))
                if n * (n - 1) // 2 - len(g.edges) > 16:
                    continue
                completes = oracle_complete(g, par, budget=par.delta**16) is not None
                for magic in magic_distances(par):
                    assert obstacle_hom_oracle(g, par, magic) is not completes, (par, magic, g)
                if completes:
                    outcomes["completes"] += 1
                elif violations(g, par):
                    outcomes["fails at input"] += 1
                else:
                    outcomes["fails through a longer cycle"] += 1
        assert min(outcomes.values()) >= 250, outcomes

    def test_agrees_with_the_engine_from_24_to_120_vertices(self):
        # trees with chords, sparse graphs holding a planted cycle, and at
        # delta 6 the planted 11665, on both sides of BITSET_MIN_VERTICES
        rng = random.Random(29)
        failed = failed_through_longer_cycles = completed = 0
        for par in TRIPLES:
            for magic in magic_distances(par):
                inputs = [
                    random_tree_graph(
                        rng, rng.randint(24, 120), par.delta, rng.choice((0, 0.005, 0.01))
                    )
                    for _ in range(2)
                ] + [
                    planted_sparse_graph(
                        rng, rng.randint(24, 120), par,
                        self.planted_cycle(rng, par, rng.randint(4, 7)), rng.choice((2, 3)),
                    )
                    for _ in range(2)
                ]
                if par.delta == 6:
                    inputs.append(planted_sparse_graph(rng, rng.randint(24, 120), par,
                                                       (1, 1, 6, 6, 5), 2))
                for g in inputs:
                    res = complete_magic(g, par, magic)
                    fails = res.status is CompletionStatus.FAILED
                    assert obstacle_hom_oracle(g, par, magic) is fails, (par, magic, g)
                    failed += fails
                    completed += not fails
                    failed_through_longer_cycles += fails and not violations(g, par)
        assert completed >= 150 and failed_through_longer_cycles >= 60, (
            completed, failed, failed_through_longer_cycles)

    def test_agrees_with_the_engine_from_121_to_200_vertices(self):
        # the same generators, one tree with chords and one sparse graph
        # with a planted cycle per triple and magic
        rng = random.Random(31)
        failed = failed_through_longer_cycles = completed = 0
        for par in TRIPLES:
            for magic in magic_distances(par):
                inputs = [
                    random_tree_graph(
                        rng, rng.randint(121, 200), par.delta, rng.choice((0, 0.005, 0.01))
                    ),
                    planted_sparse_graph(
                        rng, rng.randint(121, 200), par,
                        self.planted_cycle(rng, par, rng.randint(4, 7)), rng.choice((2, 3)),
                    ),
                ]
                for g in inputs:
                    res = complete_magic(g, par, magic)
                    fails = res.status is CompletionStatus.FAILED
                    assert obstacle_hom_oracle(g, par, magic) is fails, (par, magic, g)
                    failed += fails
                    completed += not fails
                    failed_through_longer_cycles += fails and not violations(g, par)
        assert completed >= 80 and failed_through_longer_cycles >= 50, (
            completed, failed, failed_through_longer_cycles)


class TestColumnarResult:
    """complete_magic keeps its trace as columns and its violations as a
    view; what they give must equal the triple-loop engine's plain values,
    on both sides of the size at which the final check moves to bitsets."""

    def test_matches_the_direct_engine(self):
        rng = random.Random(16)
        statuses = set()
        for n in range(71):
            for _ in range(3 if n <= 40 else 1):
                par = rng.choice(TRIPLES)
                magic = rng.choice(magic_distances(par))
                g = random_tree_graph(rng, n, par.delta, rng.choice((0, 0.02, 0.1)))
                res = complete_magic(g, par, magic)
                ref = complete_magic_oracle(g, par, magic)
                statuses.add((res.status, bool(res.trace.steps)))
                assert res.status is ref.status
                trace = res.trace
                assert trace.steps == ref.trace.steps, (par, magic, g)
                final, want = trace.final_graph, ref.trace.final_graph
                assert final == want and hash(final) == hash(want)
                assert list(final.edges.items()) == list(want.edges.items())
                assert trace == ref.trace and hash(trace) == hash(ref.trace)
                # the violations: order, length and equality, against the
                # per-triangle scan of the final graph
                found = violations_oracle(final, par)
                assert list(res.violations) == list(ref.violations) == found
                assert len(res.violations) == len(found)
                assert res.violations == tuple(found) and res.violations == found
                # the parts the writers read give the same steps and edges
                filled = tuple(
                    TraceStep(rank, magic_d, u, v, None, None, Family.FINAL)
                    for rank, magic_d, u, flags in trace.final_rows()
                    for v in itertools.compress(itertools.count(), flags)
                )
                assert trace.listed_steps + filled == trace.steps
                assert [
                    ((u, v), d) for u, vs, ds in trace.edge_rows() for v, d in zip(vs, ds)
                ] == sorted(final.edges.items())
                assert all(
                    trace.distance(u, v) == final.distance(u, v)
                    for u in range(n)
                    for v in range(n)
                )
        assert {
            (CompletionStatus.COMPLETED, True),
            (CompletionStatus.FAILED, True),
            (CompletionStatus.FAILED, False),
        } <= statuses

    def test_an_input_that_fails_at_once_keeps_its_graph(self):
        g = EdgeLabelledGraph(4, [(2, 3, 6), (1, 3, 1), (0, 1, 2), (1, 2, 1)])
        res = complete_magic(g, PAR)
        assert res.trace.final_graph is g
        assert res.trace.steps == res.trace.listed_steps == ()
        assert list(res.trace.final_rows()) == []
        # read from the matrix rows: sorted, where the graph keeps file order
        assert [(u, list(vs), ds) for u, vs, ds in res.trace.edge_rows()] == [
            (0, [1], [2]), (1, [2, 3], [1, 1]), (2, [3], [6])
        ]
        assert res.trace.distance(0, 3) is None and res.trace.distance(3, 3) == 0

    def test_a_trace_equals_only_a_trace_and_shows_its_parts(self):
        trace = complete_magic(cycle_graph((1, 1, 6, 6, 5)), PAR, 4).trace
        assert trace.__eq__(1) is NotImplemented
        assert trace != 1 and not trace == trace.steps
        assert repr(trace) == (
            f"CompletionTrace(steps={trace.steps!r}, final_graph={trace.final_graph!r})"
        )

    def test_steps_and_graph_are_built_once(self):
        trace = complete_magic(cycle_graph((1, 1, 6, 6, 5)), PAR, 4).trace
        assert trace.steps is trace.steps
        assert trace.final_graph is trace.final_graph
        assert trace.listed_steps is trace.listed_steps


class TestCompletionResult:
    def test_status_is_read_from_the_violations(self):
        # a result holds its trace and violations only, so the status
        # cannot disagree with them
        assert [f.name for f in dataclasses.fields(CompletionResult)] == [
            "trace",
            "violations",
        ]
        failed = complete_magic(cycle_graph((1, 1, 6, 6, 5)), PAR, 4)
        done = complete_magic(cycle_graph((1, 1, 1, 1)), PAR)
        assert type(failed.violations) is type(done.violations) is ViolationView
        cases = [
            failed.violations,
            done.violations,
            tuple(failed.violations),
            (),
        ]
        for found in cases:
            res = CompletionResult(failed.trace, found)
            want = CompletionStatus.FAILED if found else CompletionStatus.COMPLETED
            assert res.status is want
        assert [bool(found) for found in cases] == [True, False, True, False]


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(small_partial_graphs)
    def test_engine_decides_membership(self, case):
        # the budget admits every hole pattern on 6 vertices: the a-priori
        # count delta**holes overstates the pruned search by far
        par, g = case
        completable = oracle_complete(g, par, budget=par.delta**15) is not None
        for magic in magic_distances(par):
            done = complete_magic(g, par, magic).status is CompletionStatus.COMPLETED
            assert done == completable, (par, magic, g)

    @staticmethod
    def check_relabelling_commutes(par, magic, g, perm):
        # which witness is found depends on vertex order, the value a pair
        # gets does not: so the final graph and status follow the relabelling
        res = complete_magic(g, par, magic)
        moved = complete_magic(relabel(g, perm), par, magic)
        assert moved.status is res.status
        assert moved.trace.final_graph == relabel(res.trace.final_graph, perm)
        triangles = {
            (frozenset(perm[i] for i in v.vertices), v.distances, v.status)
            for v in res.violations
        }
        assert triangles == {
            (frozenset(v.vertices), v.distances, v.status) for v in moved.violations
        }
        return res

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_relabelling)
    def test_relabelling_commutes_with_completion(self, case):
        par, magic, (g, perm) = case
        self.check_relabelling_commutes(par, magic, g, perm)

    def test_relabelling_commutes_from_the_bitset_threshold(self):
        # the same property on 32..80 vertices, where the engine's input
        # check and final check both walk bitsets: trees with a few extra
        # pairs pass the input check, and some of them fail the final one
        rng = random.Random(21)
        seen = set()
        for _ in range(60):
            par = rng.choice(TRIPLES)
            n = rng.randint(BITSET_MIN_VERTICES, 80)
            g = random_tree_graph(rng, n, par.delta, rng.choice((0.0, 0.01)))
            perm = list(range(n))
            rng.shuffle(perm)
            magic = rng.choice(magic_distances(par))
            res = self.check_relabelling_commutes(par, magic, g, perm)
            seen.add((bool(violations(g, par)), res.status))
        assert {(False, status) for status in CompletionStatus} <= seen

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_relabelling)
    def test_completing_a_completion_changes_nothing(self, case):
        par, magic, (g, _) = case
        res = complete_magic(g, par, magic)
        if res.status is CompletionStatus.COMPLETED:
            final = res.trace.final_graph
            again = complete_magic(final, par, magic)
            assert outcome(again) == (CompletionStatus.COMPLETED, (), final, ())


class TestShortestPath:
    def test_path_sums(self):
        res = shortest_path_completion(fork_input(1, 1), PAR)
        assert res.status is CompletionStatus.COMPLETED
        assert res.trace.final_graph.distance(0, 2) == 2

    def test_caps_at_delta(self):
        res = shortest_path_completion(fork_input(3, 4), PAR)
        assert res.trace.final_graph.distance(0, 2) == 6

    def test_disconnected_pair_gets_delta(self):
        res = shortest_path_completion(EdgeLabelledGraph(2), PAR)
        assert res.trace.final_graph.distance(0, 1) == 6

    def test_vertex_cap(self):
        # the engine's cap, checked before the n-by-n matrix is allocated
        with pytest.raises(CapacityError, match="^1001 vertices exceed the engine's cap of 1000$"):
            shortest_path_completion(EdgeLabelledGraph(MAX_VERTICES + 1), PAR)
        with pytest.raises(CapacityError):
            shortest_path_completion(EdgeLabelledGraph(10**8), PAR)

    def test_steps_are_tagged_with_path_lengths(self):
        res = shortest_path_completion(fork_input(3, 4), PAR)
        (step,) = res.trace.steps
        assert step.family is Family.PATH
        assert step.rank == step.distance == 6
        assert step.describe() == "step 6: (0,2) = 6"

    def test_flags_forbidden_triangles(self):
        # completing the all-fives 4-cycle by paths makes perimeter-15
        # triangles, which the class refuses
        res = shortest_path_completion(cycle_graph((5, 5, 5, 5)), PAR)
        assert res.status is CompletionStatus.FAILED
        assert res.violations

    def test_violations_are_a_view(self):
        # the same lazy sequence as the engine's, equal to the per-triangle scan
        res = shortest_path_completion(cycle_graph((5, 5, 5, 5)), PAR)
        assert type(res.violations) is ViolationView
        assert res.violations == violations_oracle(res.trace.final_graph, PAR)
        assert len(res.violations) == 4

    def test_matches_the_reference(self):
        # the capped integer pass against the float Floyd loop it replaced,
        # on seeded graphs from empty to complete, disconnected ones included
        rng = random.Random(21)
        for n in (*range(9), 31, 32, 40):
            for delta in range(2, 8):
                k = rng.randint(1, delta)
                par = Params(delta, k, rng.randint(2 * delta + k + 1, 3 * delta + 1))
                for density in (0.0, 0.1, 0.3, 0.6, 0.9, 1.0):
                    g = EdgeLabelledGraph(n, [
                        (u, v, rng.randint(1, delta))
                        for u, v in itertools.combinations(range(n), 2)
                        if rng.random() < density
                    ])
                    res = shortest_path_completion(g, par)
                    ref = shortest_path_oracle(g, par)
                    assert res.trace.steps == ref.trace.steps, (n, par, density)
                    assert res.trace.final_graph == ref.trace.final_graph
                    assert list(res.violations) == list(ref.violations)
                    assert res.status is ref.status
                    assert list(res.trace.edge_rows()) == list(ref.trace.edge_rows())

    def test_trace_serves_the_writers_readers(self):
        # what the writers and the back-trace read of a shortest-path trace
        # agrees with its final graph, on seeded connected graphs and a failure
        rng = random.Random(20)
        cases = [(cycle_graph((5, 5, 5, 5)), PAR)]
        for n in (3, 4, 5, 6, 7, 40):
            for delta in range(2, 6):
                par = rng.choice([p for p in TRIPLES if p.delta == delta])
                cases.append((random_tree_graph(rng, n, delta, 0.2), par))
        for g, par in cases:
            trace = shortest_path_completion(g, par).trace
            final = trace.final_graph
            n = final.vertex_count
            assert trace.listed_steps == trace.steps
            assert list(trace.final_rows()) == []
            assert [
                ((u, v), d) for u, vs, ds in trace.edge_rows() for v, d in zip(vs, ds)
            ] == sorted(final.edges.items())
            assert trace.vertex_count == n
            assert all(
                trace.distance(u, v) == final.distance(u, v)
                for u in range(n)
                for v in range(n)
            )


class TestOracle:
    def test_11665_has_no_completion(self):
        assert oracle_complete(cycle_graph((1, 1, 6, 6, 5)), PAR) is None

    def test_fork_12_completions(self):
        values = sorted(
            c.distance(0, 2) for c in oracle_completions(fork_input(1, 2), PAR)
        )
        assert values == [1, 2, 3]

    def test_lonely_pair_takes_any_label(self):
        found = list(oracle_completions(EdgeLabelledGraph(2), PAR))
        assert sorted(c.distance(0, 1) for c in found) == [1, 2, 3, 4, 5, 6]

    def test_yields_are_independent_graphs(self):
        seen = set(oracle_completions(fork_input(1, 2), PAR))
        assert len(seen) == 3

    def test_every_yield_is_a_member(self):
        for c in oracle_completions(cycle_graph((1, 1, 1, 1)), PAR):
            assert c.is_complete()
            assert not violations(c, PAR)

    def test_value_ranges(self):
        count, ranges = oracle_value_ranges(fork_input(1, 2), PAR)
        assert count == 3
        assert ranges == {(0, 2): (1, 3)}

    def test_value_ranges_match_full_enumeration(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(2, 4)
            edges = [
                (u, v, rng.randint(1, 6))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ]
            g = EdgeLabelledGraph(n, edges)
            count, ranges = oracle_value_ranges(g, PAR)
            all_of = list(oracle_completions(g, PAR))
            assert count == len(all_of)
            for pair, (lo, hi) in ranges.items():
                vals = [c.distance(*pair) for c in all_of]
                assert (lo, hi) == (min(vals), max(vals))

    def test_budget_is_enforced(self):
        with pytest.raises(CapacityError):
            oracle_complete(EdgeLabelledGraph(7), PAR, budget=10**6)

    def test_budget_check_does_not_build_the_power(self):
        # 5995 unset pairs: 6**5995 is never built, and it has too many
        # digits to format, so the message writes it as a power
        with pytest.raises(CapacityError, match=r"5995 unset pairs mean 6\^5995 assignments"):
            oracle_complete(EdgeLabelledGraph(110), PAR)
        with pytest.raises(CapacityError, match="21 unset pairs mean 21936950640377856 "):
            oracle_complete(EdgeLabelledGraph(7), PAR, budget=10**6)

    def test_holes_are_counted_before_any_is_listed(self, monkeypatch):
        # the budget refuses 10**6 vertices before a matrix or a hole list exists
        def unlisted(self):
            raise AssertionError("listed before the budget check")

        monkeypatch.setattr(EdgeLabelledGraph, "matrix", unlisted)
        monkeypatch.setattr(EdgeLabelledGraph, "non_edges", unlisted)
        with pytest.raises(CapacityError) as caught:
            oracle_complete(EdgeLabelledGraph(10**6), PAR)
        assert str(caught.value) == (
            "499999500000 unset pairs mean 6^499999500000 assignments, "
            "over the budget of 100000000"
        )

    def test_vertex_cap(self):
        # a budget that admits every assignment of the 500,499 holes lets the
        # oracle go on to its matrix, which the cap refuses
        g = EdgeLabelledGraph(MAX_VERTICES + 1, [(0, 1, 1)])
        holes = (MAX_VERTICES + 1) * MAX_VERTICES // 2 - 1
        with pytest.raises(CapacityError, match="^1001 vertices exceed the engine's cap of 1000$"):
            oracle_complete(g, PAR, budget=PAR.delta**holes)

    def test_yield_order_on_three_vertices(self):
        # input edge first, then the holes (0, 1) and (1, 2); values ascend,
        # the first hole's slowest
        found = list(oracle_completions(EdgeLabelledGraph(3, [(0, 2, 6)]), PAR))
        assert [(c.edges[0, 1], c.edges[1, 2]) for c in found] == [
            (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5),
            (4, 2), (4, 3), (4, 4), (5, 1), (5, 2), (5, 3), (6, 1), (6, 2),
        ]
        assert {tuple(c.edges) for c in found} == {((0, 2), (0, 1), (1, 2))}

    @pytest.mark.slow
    def test_every_completion_matches_the_recursive_search(self):
        # the single-loop search against the recursive one it replaced: the
        # same graphs, edges in the same order, yielded in the same order, on
        # the whole delta <= 3 sweep universe at every acceptable triple
        end = object()
        for delta in (2, 3):
            universe = sweep_universe(delta)
            for par in (p for p in TRIPLES if p.delta == delta):
                for g in universe:
                    pairs = itertools.zip_longest(
                        oracle_completions(g, par),
                        oracle_completions_reference(g, par),
                        fillvalue=end,
                    )
                    for got, want in pairs:
                        assert got == want, (par, g)
                        assert list(got.edges.items()) == list(want.edges.items())

    @pytest.mark.slow
    def test_first_completions_match_the_recursive_search_at_delta_4(self):
        universe = sweep_universe(4)
        for par in (p for p in TRIPLES if p.delta == 4):
            for g in universe:
                got = list(itertools.islice(oracle_completions(g, par), 20))
                want = list(itertools.islice(oracle_completions_reference(g, par), 20))
                assert got == want, (par, g)
                assert [list(c.edges.items()) for c in got] == [
                    list(c.edges.items()) for c in want
                ]

    def test_budget_shortcut_builds_no_power(self):
        class NoPower(int):
            def __pow__(self, exponent):
                raise AssertionError("the power was built")

        assert _count_over_budget(NoPower(6), 100, 10**8) == "6^100"
        assert _count_over_budget(NoPower(2), 70, 10**8) == "2^70"
        assert _count_over_budget(6, 6, 10) == "46656"
        assert _count_over_budget(6, 6, 46656) is None
        assert _count_over_budget(2, 100, 2**100) is None
        assert _count_over_budget(2, 100, 2**100 - 1) == "2^100"

    def test_label_beyond_delta_is_a_range_error(self):
        # the labels above 6 sit in no complete triangle of the input; on 2
        # vertices in none of the completion either, so only the label check
        # up front can catch them; it names the largest
        for g, top in (
            (EdgeLabelledGraph(3, [(0, 1, 7), (1, 2, 1)]), 7),
            (EdgeLabelledGraph(2, [(0, 1, 7)]), 7),
            (EdgeLabelledGraph(4, [(0, 1, 9), (1, 2, 1), (2, 3, 7)]), 9),
        ):
            for call in (
                violations,
                complete_magic,
                obstacle_trace,
                oracle_complete,
                shortest_path_completion,
            ):
                with pytest.raises(RangeError, match=f"^distance {top} outside 1..6$"):
                    call(g, PAR)


class TestSandwich:
    def test_unique_completion_holds(self):
        g = fork_input(1, 1)
        res = complete_magic(g, PAR, 4)
        other = oracle_complete(g, PAR)
        assert other.distance(0, 2) == 2
        assert check_sandwich(g, res, other).holds

    def test_fork_12_all_completions_sit_below_magic(self):
        g = fork_input(1, 2)
        res = complete_magic(g, PAR, 4)
        assert res.trace.final_graph.distance(0, 2) == 3
        for other in oracle_completions(g, PAR):
            report = check_sandwich(g, res, other)
            assert report.holds, other.distance(0, 2)

    def test_identical_completions_hold(self):
        g = cycle_graph((1, 1, 1, 1))
        res = complete_magic(g, PAR, 4)
        assert check_sandwich(g, res, res.trace.final_graph).holds

    def test_detects_a_crossing(self):
        # hand-built counterexample graph: chord 3 crosses the engine's 5
        # from the wrong side of magic
        g = fork_input(1, 6)
        res = complete_magic(g, PAR, 4)
        other = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 6), (0, 2, 3)])
        report = check_sandwich(g, res, other)
        assert not report.holds
        assert report.pair == (0, 2)
        assert (report.engine_value, report.other_value) == (5, 3)

    def test_requires_completed_engine_run(self):
        g = cycle_graph((1, 1, 6, 6, 5))
        res = complete_magic(g, PAR, 4)
        full = EdgeLabelledGraph(5, [(u, v, 4) for u, v in itertools.combinations(range(5), 2)])
        with pytest.raises(PreconditionError):
            check_sandwich(g, res, full)

    def test_reads_magic_from_the_trace(self):
        # every pair of the empty triangle takes magic 3, so any completion
        # holds; measured against magic 4, the pair at 4 would cross
        g = EdgeLabelledGraph(3)
        res = complete_magic(g, PAR, 3)
        other = EdgeLabelledGraph(3, [(0, 1, 1), (0, 2, 3), (1, 2, 4)])
        assert check_sandwich(g, res, other).holds

    def test_requires_a_magic_fill(self):
        g = fork_input(1, 1)
        res = shortest_path_completion(g, PAR)
        assert res.status is CompletionStatus.COMPLETED
        with pytest.raises(PreconditionError, match="^engine result is not a completion$"):
            check_sandwich(g, res, oracle_complete(g, PAR))

    def test_requires_a_complete_other(self):
        g = fork_input(1, 1)
        res = complete_magic(g, PAR, 4)
        with pytest.raises(
            PreconditionError, match="^other completion must be complete on the same vertices$"
        ):
            check_sandwich(g, res, g)

    def test_requires_matching_input_edges(self):
        g = fork_input(1, 1)
        res = complete_magic(g, PAR, 4)
        other = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 2)])
        with pytest.raises(PreconditionError):
            check_sandwich(g, res, other)
