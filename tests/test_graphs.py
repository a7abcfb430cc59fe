"""Edge-labelled graphs, brute-force searches, cycles, and the file format."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from metric_completer import (
    CapacityError,
    EdgeLabelledGraph,
    FormatError,
    ParameterError,
    Params,
    PreconditionError,
    RangeError,
    TriangleStatus,
    automorphisms,
    build_graph,
    canonical_cycle,
    cycle_graph,
    find_homomorphism,
    format_graph,
    is_partial_automorphism,
    parse_graph,
    partial_automorphisms,
    verify_eppa_witness,
    violations,
)

from oracles import automorphisms_oracle, violations_oracle

PAR = Params(6, 2, 15)


def random_graph(rng, n, delta, edge_prob=0.6):
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < edge_prob:
            edges.append((u, v, rng.randint(1, delta)))
    return EdgeLabelledGraph(n, edges)


class TestGraph:
    def test_distance_lookup(self):
        g = EdgeLabelledGraph(3, [(0, 1, 4), (2, 1, 6)])
        assert g.distance(0, 1) == 4
        assert g.distance(1, 0) == 4
        assert g.distance(1, 2) == 6
        assert g.distance(0, 2) is None
        assert g.distance(2, 2) == 0

    def test_pairs_and_non_edges(self):
        g = EdgeLabelledGraph(4, [(0, 1, 1), (2, 3, 2)])
        assert list(g.pairs()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert list(g.non_edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_is_complete(self):
        assert EdgeLabelledGraph(0).is_complete()
        assert EdgeLabelledGraph(1).is_complete()
        assert cycle_graph((1, 1, 2)).is_complete()
        assert not cycle_graph((1, 1, 1, 1)).is_complete()

    def test_matrix(self):
        g = EdgeLabelledGraph(3, [(0, 1, 2)])
        assert g.matrix() == [[0, 2, 0], [2, 0, 0], [0, 0, 0]]

    def test_induced_reindexes(self):
        g = cycle_graph((1, 2, 3, 4))
        h = g.induced((0, 1, 3))
        assert h.vertex_count == 3
        assert h.distance(0, 1) == 1
        assert h.distance(1, 2) is None
        assert h.distance(0, 2) == 4

    def test_equality_and_hash(self):
        a = EdgeLabelledGraph(3, [(0, 1, 2), (1, 2, 3)])
        b = EdgeLabelledGraph(3, [(2, 1, 3), (1, 0, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != EdgeLabelledGraph(3, [(0, 1, 2)])
        assert a != EdgeLabelledGraph(4, [(0, 1, 2), (1, 2, 3)])

    def test_rejects_loops_conflicts_bad_labels(self):
        with pytest.raises(ValueError):
            EdgeLabelledGraph(2, [(0, 0, 1)])
        with pytest.raises(ValueError):
            EdgeLabelledGraph(2, [(0, 1, 1), (1, 0, 2)])
        with pytest.raises(ValueError):
            EdgeLabelledGraph(2, [(0, 1, 0)])
        with pytest.raises(ValueError):
            EdgeLabelledGraph(2, [(0, 2, 1)])
        with pytest.raises(FormatError, match="bad edge"):
            EdgeLabelledGraph(2, [(0, 1, True)])
        with pytest.raises(FormatError, match="bad vertex count"):
            EdgeLabelledGraph(True)
        with pytest.raises(FormatError, match="bad edge"):
            EdgeLabelledGraph(2, [(False, True, 1)])
        with pytest.raises(FormatError, match="bad edge"):
            EdgeLabelledGraph(2, [(0, True, 1)])

    def test_duplicate_edge_with_same_label_is_fine(self):
        g = EdgeLabelledGraph(2, [(0, 1, 3), (1, 0, 3)])
        assert g.distance(0, 1) == 3

    def test_build_graph_enforces_delta(self):
        g = build_graph(2, [(0, 1, 6)], PAR)
        assert g.distance(0, 1) == 6
        with pytest.raises(RangeError):
            build_graph(2, [(0, 1, 7)], PAR)


class TestCycles:
    def test_cycle_graph_layout(self):
        g = cycle_graph((1, 2, 3, 4))
        assert g.vertex_count == 4
        assert [g.distance(i, (i + 1) % 4) for i in range(4)] == [1, 2, 3, 4]
        assert g.distance(0, 2) is None

    def test_cycle_needs_three_labels(self):
        with pytest.raises(RangeError):
            cycle_graph((1, 2))

    def test_canonical_examples(self):
        assert canonical_cycle((2, 1, 1)) == (1, 1, 2)
        assert canonical_cycle((1, 6, 1, 6)) == (1, 6, 1, 6)
        ref = canonical_cycle((1, 6, 6, 1, 6))
        seq = [1, 6, 6, 1, 6]
        for i in range(5):
            rot = tuple(seq[i:] + seq[:i])
            assert canonical_cycle(rot) == ref
            assert canonical_cycle(rot[::-1]) == ref

    def test_canonical_idempotent(self):
        assert canonical_cycle(canonical_cycle((5, 1, 4, 2))) == canonical_cycle(
            (5, 1, 4, 2)
        )

    @given(
        st.lists(st.integers(1, 6), min_size=3, max_size=8),
        st.integers(0, 7),
        st.booleans(),
    )
    def test_canonical_invariant_under_symmetry(self, labels, shift, flip):
        seq = labels[shift % len(labels):] + labels[: shift % len(labels)]
        if flip:
            seq = seq[::-1]
        assert canonical_cycle(tuple(seq)) == canonical_cycle(tuple(labels))


class TestViolations:
    def test_clean_graph(self):
        assert violations(cycle_graph((1, 1, 2)), PAR) == []

    def test_reports_sorted_sides(self):
        found = violations(cycle_graph((5, 1, 3)), PAR)
        assert len(found) == 1
        v = found[0]
        assert v.vertices == (0, 1, 2)
        assert v.distances == (1, 3, 5)
        assert v.status is TriangleStatus.NON_METRIC
        assert v.describe() == "non-metric 1,3,5 (vertices 0,1,2)"

    def test_incomplete_triples_ignored(self):
        g = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 6)])
        assert violations(g, PAR) == []

    def test_scans_every_triple(self):
        g = EdgeLabelledGraph(4, [(u, v, 5) for u, v in itertools.combinations(range(4), 2)])
        found = violations(g, PAR)
        assert len(found) == 4  # every triangle has perimeter 15
        assert {v.status for v in found} == {TriangleStatus.LONG_PERIMETER}

    def test_matches_per_triangle_classification(self):
        # differential check of the table-driven scan against one
        # classify_triangle call per triangle
        rng = random.Random(2)
        for delta in range(2, 7):
            for k in range(1, delta + 1):
                for c in range(2 * delta + k + 1, 3 * delta + 2):
                    par = Params(delta, k, c)
                    for _ in range(6):
                        g = random_graph(rng, rng.randint(3, 12), delta,
                                         edge_prob=rng.choice((0.3, 0.6, 0.9)))
                        assert violations(g, par) == violations_oracle(g, par), (par, g)

    def test_label_beyond_delta_in_a_triangle(self):
        g = EdgeLabelledGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 2), (1, 3, 7)])
        assert violations(g, PAR) == violations_oracle(g, PAR) == []
        closed = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 7), (0, 2, 6)])
        with pytest.raises(RangeError, match="distance 7 outside 1..6"):
            violations(closed, PAR)
        with pytest.raises(RangeError, match="distance 7 outside 1..6"):
            violations_oracle(closed, PAR)

    def test_label_beyond_delta_beside_forbidden_triangles(self):
        # edge (0, 1) sees the 7 first, in no full triangle, then 1,3,5
        g = EdgeLabelledGraph(4, [(0, 1, 1), (0, 2, 7), (0, 3, 3), (1, 3, 5)])
        found = violations(g, PAR)
        assert found == violations_oracle(g, PAR)
        assert [(v.vertices, v.distances) for v in found] == [((0, 1, 3), (1, 3, 5))]
        # a forbidden triangle first, then a closed one with the 7: it raises
        g = EdgeLabelledGraph(4, [(0, 1, 1), (0, 2, 3), (1, 2, 5), (0, 3, 2), (1, 3, 7)])
        with pytest.raises(RangeError, match="distance 7 outside 1..6"):
            violations(g, PAR)
        with pytest.raises(RangeError, match="distance 7 outside 1..6"):
            violations_oracle(g, PAR)


class TestHomomorphism:
    def test_identity(self):
        g = cycle_graph((1, 1, 2))
        assert find_homomorphism(g, g) is not None

    def test_none_when_labels_disagree(self):
        a = EdgeLabelledGraph(2, [(0, 1, 3)])
        b = EdgeLabelledGraph(2, [(0, 1, 4)])
        assert find_homomorphism(a, b) is None

    def test_may_identify_non_adjacent_vertices(self):
        # path 1-1 folds onto a single edge by mapping both ends together
        path = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 1)])
        edge = EdgeLabelledGraph(2, [(0, 1, 1)])
        hom = find_homomorphism(path, edge)
        assert hom is not None
        assert hom[0] == hom[2]

    def test_matches_exhaustive_enumeration(self):
        # the first map in lexicographic order, or None; empty graphs included
        rng = random.Random(7)
        for _ in range(150):
            src = random_graph(rng, rng.randint(0, 4), 3)
            dst = random_graph(rng, rng.randint(0, 4), 3)
            first = next(
                (
                    m
                    for m in itertools.product(range(dst.vertex_count), repeat=src.vertex_count)
                    if all(
                        dst.distance(m[u], m[v]) == d
                        for (u, v), d in src.edges.items()
                    )
                ),
                None,
            )
            assert find_homomorphism(src, dst) == first

    def test_returned_map_is_valid(self):
        rng = random.Random(8)
        for _ in range(80):
            src = random_graph(rng, rng.randint(1, 4), 3)
            dst = random_graph(rng, rng.randint(1, 4), 3)
            hom = find_homomorphism(src, dst)
            if hom is None:
                continue
            for (u, v), d in src.edges.items():
                assert dst.distance(hom[u], hom[v]) == d


class TestAutomorphisms:
    def test_single_vertex(self):
        assert automorphisms(EdgeLabelledGraph(1)) == [(0,)]

    def test_triangle_112(self):
        assert automorphisms(cycle_graph((1, 1, 2))) == [(0, 1, 2), (2, 1, 0)]

    def test_square_1111(self):
        assert len(automorphisms(cycle_graph((1, 1, 1, 1)))) == 8

    def test_non_edges_must_be_preserved(self):
        # path 1-1: swapping the endpoints of the missing chord is the only
        # nontrivial symmetry
        g = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 1)])
        assert automorphisms(g) == [(0, 1, 2), (2, 1, 0)]

    def test_group_axioms_on_small_graphs(self):
        graphs = [
            EdgeLabelledGraph(n, [(u, v, d) for (u, v), d in zip(itertools.combinations(range(n), 2), labels) if d])
            for n in (1, 2, 3)
            for labels in itertools.product((0, 1, 2), repeat=n * (n - 1) // 2)
        ]
        rng = random.Random(3)
        for _ in range(20):
            graphs.append(random_graph(rng, rng.randint(4, 5), 4))
        for g in graphs:
            auts = set(automorphisms(g))
            n = g.vertex_count
            assert tuple(range(n)) in auts
            for s in auts:
                inv = tuple(s.index(i) for i in range(n))
                assert inv in auts
                for t in auts:
                    assert tuple(s[t[i]] for i in range(n)) in auts

    def test_matches_permutation_scan(self):
        # same maps in the same order as scanning every permutation
        graphs = [
            EdgeLabelledGraph(n, [(u, v, d) for (u, v), d in zip(itertools.combinations(range(n), 2), labels) if d])
            for n in (0, 1, 2, 3)
            for labels in itertools.product((0, 1, 2), repeat=n * (n - 1) // 2)
        ]
        rng = random.Random(5)
        for _ in range(200):
            graphs.append(
                random_graph(rng, rng.randint(0, 6), rng.randint(1, 3), rng.random())
            )
        for g in graphs:
            assert automorphisms(g) == automorphisms_oracle(g), g

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            automorphisms(EdgeLabelledGraph(10))
        automorphisms(EdgeLabelledGraph(3), max_vertices=3)
        with pytest.raises(CapacityError):
            automorphisms(EdgeLabelledGraph(4), max_vertices=3)


class TestPartialAutomorphisms:
    def test_single_edge_graph(self):
        g = EdgeLabelledGraph(2, [(0, 1, 2)])
        assert partial_automorphisms(g) == [
            {},
            {0: 0},
            {0: 1},
            {1: 0},
            {1: 1},
            {0: 0, 1: 1},
            {0: 1, 1: 0},
        ]

    def test_labels_constrain_maps(self):
        g = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 2)])
        maps = partial_automorphisms(g)
        assert {0: 0, 1: 1} in maps
        assert {0: 1, 1: 2} not in maps  # would send a 1-edge to a 2-edge

    def test_is_partial_automorphism_agrees(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 4), 3)
            listed = partial_automorphisms(g)
            for m in listed:
                assert is_partial_automorphism(g, m)
            n = g.vertex_count
            scanned = []
            for size in range(n + 1):
                for dom in itertools.combinations(range(n), size):
                    for img in itertools.permutations(range(n), size):
                        m = dict(zip(dom, img))
                        holds = is_partial_automorphism(g, m)
                        assert holds == (m in listed)
                        if holds:
                            scanned.append(m)
            assert listed == scanned  # same order too: by domain, then by images

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            partial_automorphisms(EdgeLabelledGraph(6))


class TestEppa:
    def test_empty_graph_always_holds(self):
        report = verify_eppa_witness(EdgeLabelledGraph(0), cycle_graph((1, 1, 2)))
        assert report.holds
        assert report.failing is None
        assert report.checked == 1

    def test_triangle_in_itself_fails(self):
        # the map sending one endpoint of the 2-edge to the shared vertex of
        # the 1-edges cannot extend: no automorphism moves vertex 0 to 1
        tri = cycle_graph((1, 1, 2))
        report = verify_eppa_witness(tri, tri)
        assert not report.holds
        assert report.failing == ((0, 1),)

    def test_apex_witness_fails(self):
        a = EdgeLabelledGraph(2, [(0, 1, 2)])
        b = EdgeLabelledGraph(3, [(0, 1, 2), (0, 2, 1)])
        report = verify_eppa_witness(a, b)
        assert not report.holds
        assert report.failing == ((0, 1),)

    def test_self_witness_iff_all_maps_extend(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 4), 2)
            report = verify_eppa_witness(g, g)
            auts = automorphisms(g)
            expect = all(
                any(all(s[u] == m[u] for u in m) for s in auts)
                for m in partial_automorphisms(g)
            )
            assert report.holds == expect

    def test_vertex_transitive_self_witness_holds(self):
        g = cycle_graph((1, 1, 1, 1))
        assert verify_eppa_witness(g, g).holds

    def test_inclusion_must_be_induced(self):
        a = EdgeLabelledGraph(2, [(0, 1, 2)])
        b = EdgeLabelledGraph(3, [(0, 1, 3), (0, 2, 1)])
        with pytest.raises(PreconditionError):
            verify_eppa_witness(a, b)

    def test_explicit_inclusion_map(self):
        a = EdgeLabelledGraph(2, [(0, 1, 2)])
        b = EdgeLabelledGraph(3, [(1, 2, 2), (0, 1, 1)])
        report = verify_eppa_witness(a, b, inclusion=(1, 2))
        assert not report.holds

    def test_capacity_bounds(self):
        small = EdgeLabelledGraph(6)
        with pytest.raises(CapacityError):
            verify_eppa_witness(small, small)
        with pytest.raises(CapacityError):
            verify_eppa_witness(EdgeLabelledGraph(2), EdgeLabelledGraph(10))


class TestFileFormat:
    def test_round_trip_is_byte_exact(self):
        g = EdgeLabelledGraph(4, [(0, 1, 1), (2, 3, 4), (0, 3, 6)])
        text = format_graph(PAR, g)
        par2, g2 = parse_graph(text)
        assert par2 == PAR
        assert g2 == g
        assert format_graph(par2, g2) == text

    def test_format_layout(self):
        g = EdgeLabelledGraph(3, [(1, 2, 6), (0, 1, 1)])
        assert format_graph(PAR, g) == (
            "params 6 2 15\nvertices 3\nedge 0 1 1\nedge 1 2 6\n"
        )

    def test_parse_allows_comments_and_blanks(self):
        text = "# header\nparams 6 2 15\n\nvertices 2\nedge 0 1 3  # chord\n"
        par, g = parse_graph(text)
        assert par == PAR
        assert g.distance(0, 1) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "vertices 2\nedge 0 1 1\n",  # params missing
            "params 6 2 15\nedge 0 1 1\n",  # vertices missing
            "params 6 2\nvertices 2\n",
            "params 6 2 15\nvertices 2\nedge 0 1\n",
            "params 6 2 15\nvertices 2\nedge 0 2 1\n",
            "params 6 2 15\nvertices 2\nedge 0 1 1\nedge 1 0 2\n",
            "params 6 2 15\nvertices 2\nwat 0 1 1\n",
            "params 6 7 15\nvertices 2\nedge 0 1\n",  # the line 3 error wins
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(FormatError):
            parse_graph(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_graph("params 6 2 15\nvertices 2\nedge 0 1\n")

    def test_parse_rejects_unacceptable_params(self):
        with pytest.raises(ParameterError, match="k exceeds delta"):
            parse_graph("params 6 7 15\nvertices 2\nedge 0 1 1\n")

    def test_parse_enforces_delta_on_labels(self):
        with pytest.raises(RangeError):
            parse_graph("params 6 2 15\nvertices 2\nedge 0 1 7\n")
