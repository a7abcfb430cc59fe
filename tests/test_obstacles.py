"""Obstacle back-traces, cycle catalogues, and their verification."""

import itertools
import random

import pytest

from metric_completer import obstacles
from metric_completer import (
    CapacityError,
    CompletionStatus,
    EdgeLabelledGraph,
    FormatError,
    ObstacleCatalogue,
    ParameterError,
    Params,
    PreconditionError,
    RangeError,
    TriangleStatus,
    canonical_cycle,
    classify_triangle,
    complete_magic,
    cycle_graph,
    enumerate_obstacle_cycles,
    format_catalogue,
    format_cycle_labels,
    obstacle_trace,
    oracle_complete,
    parse_catalogue,
    parse_cycle_labels,
    substitute_forks,
    verify_catalogue,
)

PAR = Params(6, 2, 15)

TRIANGLES_21 = sorted(
    canonical_cycle(tuple(int(ch) for ch in s))
    for s in (
        "113 114 115 116 124 125 126 135 136 146 225 226 236 "
        "111 366 466 456 555 556 566 666"
    ).split()
)

CYCLES_4 = sorted(
    canonical_cycle(tuple(int(ch) for ch in s))
    for s in (
        "1116 1114 1664 1115 1665 1216 1261 1666 1656 1125 1215 "
        "1565 1655 1316 1361 6625 2216 6626 6636 2126 2656 4616"
    ).split()
)

CYCLES_5 = sorted(
    canonical_cycle(tuple(int(ch) for ch in s))
    for s in (
        "11116 16616 16661 11115 11665 11216 11261 16615 16165 "
        "16561 66665 66216 66261 66666"
    ).split()
)

CYCLES_6 = sorted(
    canonical_cycle(tuple(int(ch) for ch in s))
    for s in "111116 116616 116661 161616 666616".split()
)


def assert_maps_into(obstacle, hom, target):
    for (u, v), d in obstacle.edges.items():
        assert target.distance(hom[u], hom[v]) == d, (u, v)


class TestObstacleTrace:
    def test_11665_backtrace(self):
        g = cycle_graph((1, 1, 6, 6, 5))
        w = obstacle_trace(g, PAR, 4)
        assert w.seed_vertices == (0, 1, 3)
        assert w.seed_distances == (1, 3, 5)
        assert w.seed_status is TriangleStatus.NON_METRIC
        assert [(e.level, e.obstacle_edge, e.witness, e.distances) for e in w.expansions] == [
            (5, (0, 2), 4, (5, 6)),
            (2, (1, 2), 2, (1, 6)),
        ]
        assert w.cycle_labels() == (1, 1, 5, 6, 6)
        assert canonical_cycle((1, 1, 6, 6, 5)) == (1, 1, 5, 6, 6)
        assert_maps_into(w.obstacle, w.hom, g)
        assert len(set(w.hom)) == 5  # every input vertex is hit

    def test_1116_backtrace(self):
        # both chords receive 5 at rank 2; the seed is the 1,1,5 triangle,
        # one chord expands and the walk returns the input 4-cycle
        g = cycle_graph((1, 1, 1, 6))
        w = obstacle_trace(g, PAR, 4)
        assert w.seed_distances == (1, 1, 5)
        assert w.seed_status is TriangleStatus.NON_METRIC
        assert len(w.expansions) == 1
        assert w.obstacle == g
        assert w.hom == (0, 1, 2, 3)
        assert w.cycle_labels() == (1, 1, 1, 6)

    def test_forbidden_triangle_is_its_own_obstacle(self):
        g = cycle_graph((1, 3, 5))
        w = obstacle_trace(g, PAR, 4)
        assert w.expansions == ()
        assert w.obstacle == g
        assert w.hom == (0, 1, 2)

    def test_completable_input_is_rejected(self):
        with pytest.raises(PreconditionError, match="nothing to trace"):
            obstacle_trace(cycle_graph((1, 1, 2)), PAR, 4)

    def test_traced_obstacles_are_sound(self):
        # the witness subgraph maps into the input, still fails the engine,
        # and stays within the size bound min(s * 2^delta, s + edges * delta)
        rng = random.Random(23)
        failures = 0
        biggest = 0
        while failures < 40:
            n = rng.randint(3, 6)
            edges = [
                (u, v, rng.randint(1, 6))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.55
            ]
            g = EdgeLabelledGraph(n, edges)
            if complete_magic(g, PAR, 4).status is CompletionStatus.COMPLETED:
                continue
            failures += 1
            w = obstacle_trace(g, PAR, 4)
            assert_maps_into(w.obstacle, w.hom, g)
            assert complete_magic(w.obstacle, PAR, 4).status is CompletionStatus.FAILED
            bound = min(n * 2 ** PAR.delta, n + len(edges) * PAR.delta)
            assert w.obstacle.vertex_count <= bound
            biggest = max(biggest, w.obstacle.vertex_count)
            try:
                assert oracle_complete(w.obstacle, PAR, budget=10**6) is None
            except CapacityError:
                pass
        assert biggest >= 3


class TestSubstitution:
    def test_triangle_115(self):
        assert sorted(substitute_forks((1, 1, 5), PAR)) == [
            (1, 1, 1, 6),
            (1, 1, 6, 1),
        ]

    def test_triangle_113(self):
        raw = sorted(substitute_forks((1, 1, 3), PAR))
        assert raw == [(1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 5, 6), (1, 1, 6, 5)]
        assert {canonical_cycle(c) for c in raw} == {(1, 1, 1, 2), (1, 1, 5, 6)}

    def test_triangle_555_collapses(self):
        raw = substitute_forks((5, 5, 5), PAR)
        assert len(raw) == 6
        assert {canonical_cycle(c) for c in raw} == {(1, 5, 5, 6)}

    def test_distances_without_families_are_kept(self):
        # no fork generates distance 1 at these parameters, so 1-edges are
        # never substituted
        for cand in substitute_forks((1, 1, 5), PAR):
            assert cand.count(1) >= 2

    def test_candidates_grow_by_one_vertex(self):
        for cand in substitute_forks((1, 2, 4), PAR):
            assert len(cand) == 4

    def test_rejects_labels_outside_range(self):
        for cycle in ((1, 1, 7), (0, 1, 1)):
            with pytest.raises(RangeError, match="outside 1..6"):
                substitute_forks(cycle, PAR)


class TestEnumeration:
    def test_triangles(self):
        cat = enumerate_obstacle_cycles(PAR, 3)
        assert sorted(cat.cycles) == TRIANGLES_21
        split = {}
        for cyc in cat.cycles:
            status = classify_triangle(*cyc, PAR)
            split[status] = split.get(status, 0) + 1
        assert split == {
            TriangleStatus.NON_METRIC: 13,
            TriangleStatus.ODD_SHORT: 1,
            TriangleStatus.LONG_PERIMETER: 7,
        }

    def test_four_cycles(self):
        assert sorted(enumerate_obstacle_cycles(PAR, 4).cycles) == CYCLES_4

    def test_five_cycles(self):
        assert sorted(enumerate_obstacle_cycles(PAR, 5).cycles) == CYCLES_5

    def test_six_cycles(self):
        assert sorted(enumerate_obstacle_cycles(PAR, 6).cycles) == CYCLES_6

    def test_substitution_agrees_with_exhaustive(self):
        for n in (4, 5, 6):
            exh = enumerate_obstacle_cycles(PAR, n)
            sub = enumerate_obstacle_cycles(PAR, n, method="substitution")
            assert exh.cycles == sub.cycles, n
            assert (exh.method, sub.method) == ("exhaustive", "substitution")

    def test_entries_are_canonical_sorted_and_refused(self):
        cat = enumerate_obstacle_cycles(PAR, 5)
        assert list(cat.cycles) == sorted(set(cat.cycles))
        for cyc in cat.cycles:
            assert canonical_cycle(cyc) == cyc
            assert complete_magic(cycle_graph(cyc), PAR).status is CompletionStatus.FAILED

    def test_small_n_rejected(self):
        with pytest.raises(RangeError):
            enumerate_obstacle_cycles(PAR, 2)

    def test_budget(self):
        with pytest.raises(CapacityError):
            enumerate_obstacle_cycles(PAR, 6, budget=10)

    @pytest.mark.slow
    def test_decider_agrees_with_oracle_everywhere(self):
        # engine-as-decider versus the exhaustive oracle, every acceptable
        # triple at delta 6, every canonical cycle up to length 6; roughly
        # twenty seconds, dominated by the oracle refusals
        cycles = set()
        for n in (3, 4, 5, 6):
            for seq in itertools.product(range(1, 7), repeat=n):
                cycles.add(canonical_cycle(seq))
        cycles = sorted(cycles)
        for k in range(1, 7):
            for c in range(13 + k, 20):
                par = Params(6, k, c)
                for cyc in cycles:
                    g = cycle_graph(cyc)
                    engine = complete_magic(g, par).status is CompletionStatus.COMPLETED
                    assert engine == (oracle_complete(g, par) is not None), (par, cyc)

    def test_no_new_obstacles_at_length_seven(self):
        # the 6-cycle catalogue uses only labels 1 and 6, and no 7-cycle
        # with a 2, 3 or 5 fails; in fact no 7-cycle fails at all
        assert {x for cyc in CYCLES_6 for x in cyc} == {1, 6}
        failed = [
            cyc
            for cyc in {
                canonical_cycle(seq)
                for seq in itertools.product(range(1, 7), repeat=7)
            }
            if complete_magic(cycle_graph(cyc), PAR).status is CompletionStatus.FAILED
        ]
        assert not [cyc for cyc in failed if {2, 3, 5} & set(cyc)]
        assert failed == []


class TestVerifyCatalogue:
    def test_exhaustive_catalogue_verifies(self):
        report = verify_catalogue(enumerate_obstacle_cycles(PAR, 5))
        assert report.ok
        assert report.entries_checked == 14
        assert report.non_entries_checked == 20
        assert report.failure is None

    def test_66666_refused_11111_completes(self):
        assert (6, 6, 6, 6, 6) in enumerate_obstacle_cycles(PAR, 5).cycles
        assert oracle_complete(cycle_graph((6, 6, 6, 6, 6)), PAR) is None
        assert oracle_complete(cycle_graph((1, 1, 1, 1, 1)), PAR) is not None

    def test_empty_catalogue_fails_completeness(self):
        # non-entries are sampled too, so a missing obstacle is caught
        report = verify_catalogue(ObstacleCatalogue(PAR, 5, "exhaustive", ()))
        assert not report.ok
        assert report.entries_checked == 0
        assert "has no completion" in report.failure

    def test_completable_entry_is_flagged(self):
        good = enumerate_obstacle_cycles(PAR, 5)
        bad = ObstacleCatalogue(PAR, 5, "exhaustive", good.cycles + ((1, 1, 1, 1, 1),))
        report = verify_catalogue(bad)
        assert not report.ok
        assert "(1, 1, 1, 1, 1)" in report.failure

    def test_oversized_catalogue_is_refused_at_once(self, monkeypatch):
        # 6**12 sequences to sample from: refused before any search starts
        def no_search(*args):
            raise AssertionError("searched before the budget check")

        monkeypatch.setattr(obstacles, "oracle_complete", no_search)
        monkeypatch.setattr(obstacles, "_canonical_cycles", no_search)
        catalogue = parse_catalogue("catalogue 6 2 15 12 exhaustive\n")
        with pytest.raises(
            CapacityError,
            match="^2176782336 label sequences exceed the budget of 100000000$",
        ):
            verify_catalogue(catalogue)


class TestCatalogueFormat:
    def test_labels(self):
        assert format_cycle_labels((1, 1, 5)) == "115"
        assert format_cycle_labels((1, 2, 10)) == "1,2,10"
        assert parse_cycle_labels("115") == (1, 1, 5)
        assert parse_cycle_labels("1,2,10") == (1, 2, 10)

    def test_round_trip(self):
        cat = enumerate_obstacle_cycles(PAR, 5)
        text = format_catalogue(cat)
        assert text.startswith("catalogue 6 2 15 5 exhaustive\n")
        back = parse_catalogue(text)
        assert back == cat
        assert format_catalogue(back) == text

    @pytest.mark.parametrize(
        "text",
        [
            "catalogue 6 2 15 5\n11115\n",  # method missing
            "catalogue 6 2 15 5 exhaustive\n11561\n",  # not canonical
            "catalogue 6 2 15 5 exhaustive\n11116\n11115\n",  # out of order
            "catalogue 6 2 15 5 exhaustive\n11115\n11115\n",  # duplicate
            "catalogue 6 2 15 5 exhaustive\n1111\n",  # wrong length
            "catalogue 6 2 15 5 wat\n",  # unknown method
            "catalogue 6 2 15 4 exhaustive\n0111\n",  # label below 1
            "catalogue 6 2 15 4 exhaustive\n1117\n",  # label above delta
            "catalogue 6 2 15 2 exhaustive\n11\n",  # size below 3
            "catalogue 6 2 15 0 exhaustive\n",  # size below 3, no entries
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(FormatError):
            parse_catalogue(text)

    def test_parse_rejects_unacceptable_params(self):
        with pytest.raises(ParameterError, match="k exceeds delta"):
            parse_catalogue("catalogue 6 7 15 5 exhaustive\n")
