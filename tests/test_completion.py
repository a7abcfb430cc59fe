"""The magic completion engine, shortest-path baseline, and oracle."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from metric_completer import (
    CapacityError,
    CompletionStatus,
    EdgeLabelledGraph,
    Family,
    ParameterError,
    Params,
    PreconditionError,
    RangeError,
    TriangleStatus,
    check_sandwich,
    classify_triangle,
    complete_magic,
    cycle_graph,
    magic_distances,
    oracle_complete,
    oracle_completions,
    shortest_path_completion,
    time_function,
    violations,
)
from metric_completer.completion import MAX_VERTICES, _count_over_budget

from oracles import complete_magic_oracle, oracle_value_ranges, violations_oracle

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
        with pytest.raises(PreconditionError):
            complete_magic(EdgeLabelledGraph(2, [(0, 1, 7)]), PAR, 4)

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
        steps = json.loads(res.trace.as_json())
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
                ]
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


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_relabelling)
    def test_relabelling_commutes_with_completion(self, case):
        # which witness is found depends on vertex order, the value a pair
        # gets does not: so the final graph and status follow the relabelling
        par, magic, (g, perm) = case
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
        # the 7 sits in no complete triangle of the input, so only the search
        # meets it, when it tries to close the pair (0, 2)
        g = EdgeLabelledGraph(3, [(0, 1, 7), (1, 2, 1)])
        with pytest.raises(RangeError, match="distance 7 outside 1..6"):
            oracle_complete(g, PAR)


class TestSandwich:
    def test_unique_completion_holds(self):
        g = fork_input(1, 1)
        res = complete_magic(g, PAR, 4)
        other = oracle_complete(g, PAR)
        assert other.distance(0, 2) == 2
        assert check_sandwich(g, res, other, 4).holds

    def test_fork_12_all_completions_sit_below_magic(self):
        g = fork_input(1, 2)
        res = complete_magic(g, PAR, 4)
        assert res.trace.final_graph.distance(0, 2) == 3
        for other in oracle_completions(g, PAR):
            report = check_sandwich(g, res, other, 4)
            assert report.holds, other.distance(0, 2)

    def test_identical_completions_hold(self):
        g = cycle_graph((1, 1, 1, 1))
        res = complete_magic(g, PAR, 4)
        assert check_sandwich(g, res, res.trace.final_graph, 4).holds

    def test_detects_a_crossing(self):
        # hand-built counterexample graph: chord 3 crosses the engine's 5
        # from the wrong side of magic
        g = fork_input(1, 6)
        res = complete_magic(g, PAR, 4)
        other = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 6), (0, 2, 3)])
        report = check_sandwich(g, res, other, 4)
        assert not report.holds
        assert report.pair == (0, 2)
        assert (report.engine_value, report.other_value) == (5, 3)

    def test_requires_completed_engine_run(self):
        g = cycle_graph((1, 1, 6, 6, 5))
        res = complete_magic(g, PAR, 4)
        full = EdgeLabelledGraph(5, [(u, v, 4) for u, v in itertools.combinations(range(5), 2)])
        with pytest.raises(PreconditionError):
            check_sandwich(g, res, full, 4)

    def test_requires_matching_input_edges(self):
        g = fork_input(1, 1)
        res = complete_magic(g, PAR, 4)
        other = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 2)])
        with pytest.raises(PreconditionError):
            check_sandwich(g, res, other, 4)
