"""Edge-labelled graphs, brute-force searches, cycles, and the file format."""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from metric_completer import (
    CapacityError,
    CompletionStatus,
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
    complete_magic,
    cycle_graph,
    find_homomorphism,
    format_graph,
    is_partial_automorphism,
    magic_distances,
    parse_graph,
    partial_automorphisms,
    verify_eppa_witness,
    violations,
)

from metric_completer import graphs
from metric_completer.graphs import BITSET_MIN_VERTICES, MAX_VERTICES
from metric_completer.params import _triangle_table

from oracles import (
    automorphisms_oracle,
    canonical_cycle_reference,
    distance_maps_reference,
    label_bits,
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


def random_graph(rng, n, delta, edge_prob=0.6):
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < edge_prob:
            edges.append((u, v, rng.randint(1, delta)))
    return EdgeLabelledGraph(n, edges)


def run_capped(expression: str) -> str:
    """repr(expression), evaluated in a child whose address space is capped
    at 512 MB, where building quadratic scratch space raises MemoryError."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        f"sys.path.insert(0, {str(Path(graphs.__file__).parents[1])!r})\n"
        "from metric_completer import EdgeLabelledGraph, canonical_cycle, find_homomorphism\n"
        f"print(repr({expression}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


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

    def test_matrix_refuses_more_than_the_vertex_cap(self):
        # before it allocates; violations builds its matrix through it
        assert MAX_VERTICES == 1000
        assert len(EdgeLabelledGraph(MAX_VERTICES).matrix()) == MAX_VERTICES
        g = EdgeLabelledGraph(MAX_VERTICES + 1, [(0, 1, 1)])
        for call in (g.matrix, lambda: violations(g, PAR)):
            with pytest.raises(CapacityError, match="^1001 vertices exceed the engine's cap of 1000$"):
                call()
        with pytest.raises(CapacityError, match="^100000000 vertices exceed"):
            violations(EdgeLabelledGraph(10**8), PAR)

    def test_induced_reindexes(self):
        g = cycle_graph((1, 2, 3, 4))
        h = g.induced((0, 1, 3))
        assert h.vertex_count == 3
        assert h.distance(0, 1) == 1
        assert h.distance(1, 2) is None
        assert h.distance(0, 2) == 4

    def test_induced_rejects_a_repeated_vertex(self):
        with pytest.raises(FormatError, match="^repeated vertex in induced subgraph$"):
            EdgeLabelledGraph(3).induced([0, 0])
        g = cycle_graph((1, 1, 1, 1))
        for verts, message in (
            ([0, 99, -1], "^vertex 99 outside 0..3$"),
            ([-1, 0], "^vertex -1 outside 0..3$"),
            ([0, 1.0], "^vertex 1.0 outside 0..3$"),
            ([True, 2], "^vertex True outside 0..3$"),
            (["0"], "^vertex '0' outside 0..3$"),
            ([4, 4], "^vertex 4 outside 0..3$"),
        ):
            with pytest.raises(FormatError, match=message):
                g.induced(verts)

    def test_equality_and_hash(self):
        a = EdgeLabelledGraph(3, [(0, 1, 2), (1, 2, 3)])
        b = EdgeLabelledGraph(3, [(2, 1, 3), (1, 0, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != EdgeLabelledGraph(3, [(0, 1, 2)])
        assert a != EdgeLabelledGraph(4, [(0, 1, 2), (1, 2, 3)])

    def test_equality_with_a_non_graph_is_left_to_the_other_side(self):
        g = EdgeLabelledGraph(2, [(0, 1, 1)])
        assert g.__eq__((2, {(0, 1): 1})) is NotImplemented
        assert g != (2, {(0, 1): 1}) and not g == 1

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
        with pytest.raises(RangeError, match="^a cycle needs at least 3 labels$"):
            canonical_cycle((1, 2))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0, "non-positive distance 0 on edge ({u}, {v})"),
            (-1, "non-positive distance -1 on edge ({u}, {v})"),
            (True, "bad edge ({u}, {v}, True)"),
            (1.5, "bad edge ({u}, {v}, 1.5)"),
            ("1", "bad edge ({u}, {v}, '1')"),
        ],
    )
    def test_cycle_graph_rejects_bad_labels(self, bad, message):
        # the same FormatError text the validating constructor gives, on the
        # first, a middle and the closing edge
        for pos, (u, v) in ((0, (0, 1)), (2, (2, 3)), (3, (3, 0))):
            labels = [1, 2, 3, 4]
            labels[pos] = bad
            expected = message.format(u=u, v=v)
            with pytest.raises(FormatError) as caught:
                cycle_graph(labels)
            assert str(caught.value) == expected
            with pytest.raises(FormatError) as caught:
                EdgeLabelledGraph(4, [(i, (i + 1) % 4, labels[i]) for i in range(4)])
            assert str(caught.value) == expected

    def test_cycle_graph_equals_validated_construction(self):
        for labels in ((1, 1, 2), (5, 1, 4, 2, 9), (6, 6, 6, 6, 6, 6, 6)):
            n = len(labels)
            g = cycle_graph(labels)
            ref = EdgeLabelledGraph(n, [(i, (i + 1) % n, labels[i]) for i in range(n)])
            assert g == ref and hash(g) == hash(ref)
            assert list(g.edges.items()) == list(ref.edges.items())  # insertion order too

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

    def test_canonical_matches_the_rotation_list(self):
        # every label sequence of each small space, against the form that
        # lists all 2n rotations before taking their least
        for delta, top in ((2, 12), (3, 8), (4, 7), (6, 5)):
            for size in range(3, top + 1):
                for seq in itertools.product(range(1, delta + 1), repeat=size):
                    assert canonical_cycle(seq) == canonical_cycle_reference(seq), seq

    def test_long_cycle_in_bounded_memory(self):
        # the 2n rotations of 8001 labels, listed at once, take about 1 GB
        out = run_capped("canonical_cycle([1] * 8000 + [2]) == (1,) * 8000 + (2,)")
        assert out == "True\n"

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
                    # complete graphs checked on their bitsets, one label's
                    # rows derived; a few labels off the most common one
                    # keep the violations scattered
                    n = BITSET_MIN_VERTICES + rng.randint(0, 4)
                    common = rng.randint(1, delta)
                    g = EdgeLabelledGraph(n, [
                        (u, v, common if rng.random() < 0.85 else rng.randint(1, delta))
                        for u, v in itertools.combinations(range(n), 2)
                    ])
                    missing = rng.choice((None, common, rng.randint(1, delta)))
                    bits = label_bits(g, delta, missing)
                    assert violations(g, par, None, bits) == violations_oracle(g, par), (
                        par, missing, g)

    def test_which_check_runs(self, monkeypatch):
        # below BITSET_MIN_VERTICES the row scan runs; from there on one walk
        # of the bitsets serves the input check, the engine's final check and
        # each rescan, one call each
        calls = []
        for name in ("_row_scan", "_walk"):
            def counted(*args, name=name, check=getattr(graphs, name)):
                calls.append(name)
                return check(*args)

            monkeypatch.setattr(graphs, name, counted)
        rng = random.Random(5)
        for n in (3, BITSET_MIN_VERTICES - 1, BITSET_MIN_VERTICES, BITSET_MIN_VERTICES + 1):
            g = random_graph(rng, n, 6, edge_prob=1.0)
            scan = "_walk" if n >= BITSET_MIN_VERTICES else "_row_scan"
            expected = violations_oracle(g, PAR)
            calls.clear()
            assert violations(g, PAR) == violations(g, PAR, g.matrix()) == expected
            assert set(calls) == {scan}, n
            calls.clear()
            # 4 is magic at PAR, and the graph fails: the walk finds its first
            # triangle while violations builds the view
            view = violations(g, PAR, g.matrix(), label_bits(g, 6, 4))
            assert expected and calls == [scan], n
            calls.clear()
            assert view == expected
            assert calls == [scan]
            # the engine: its input check, then its own final check
            tree = EdgeLabelledGraph(n, [(v - 1, v, 1 + v % 6) for v in range(1, n)])
            calls.clear()
            res = complete_magic(tree, PAR)
            assert res.status is CompletionStatus.COMPLETED, n
            assert calls == [scan] * 2, n

    def test_edge_walk_matches_the_row_scan(self):
        # from BITSET_MIN_VERTICES on, a graph without bitsets is checked by
        # walking its edges; it must yield the row scan's triangles in the
        # row scan's order, sparse or dense, at every triple with delta <= 6
        rng = random.Random(17)
        found = 0
        for par in TRIPLES:
            bad = _triangle_table(par)[0]
            for density in (0.05, 0.3, 0.6, 1.0):
                n = rng.randint(BITSET_MIN_VERTICES, BITSET_MIN_VERTICES + 8)
                g = random_graph(rng, n, par.delta, edge_prob=density)
                expected = list(graphs._row_scan(g.matrix(), bad))
                assert list(violations(g, par)) == expected, (par, density)
                assert expected == violations_oracle(g, par), (par, density)
                found += len(expected)
        assert found

    def test_walk_off_magic_only_for_a_magic_label(self):
        # the walk skips a pair at the missing label m unless a third vertex
        # is off m on both sides, and so misses the triangles (m, m, m); it
        # may treat m so only when m is magic, so given any other label
        # missing, violations walks every pair
        rng = random.Random(18)
        missed = 0
        for par in TRIPLES:
            others = [m for m in range(1, par.delta + 1) if m not in magic_distances(par)]
            if not others:
                continue
            m = rng.choice(others)
            bad, forbidden = _triangle_table(par)
            n = rng.randint(BITSET_MIN_VERTICES, BITSET_MIN_VERTICES + 8)
            for noise in (0.0, 0.03):
                g = EdgeLabelledGraph(n, [
                    (u, v, m if rng.random() >= noise else rng.randint(1, par.delta))
                    for u, v in itertools.combinations(range(n), 2)
                ])
                dist = g.matrix()
                expected = list(graphs._row_scan(dist, bad))
                assert expected == violations_oracle(g, par), (par, m, noise)
                view = violations(g, par, dist, label_bits(g, par.delta, m))
                assert list(view) == expected, (par, m, noise)
                # the same walk with m taken as free; the labels' rows are
                # disjoint, so their sum is their OR
                bits = label_bits(g, par.delta)
                off_m = [
                    sum(bits[d][u] for d in range(1, par.delta + 1) if d != m)
                    for u in range(n)
                ]
                skipped = list(graphs._walk(dist, off_m, bits, bad, forbidden, False))
                missed += skipped != expected
        assert missed  # some graphs here the walk off m would get wrong

    @pytest.mark.parametrize("with_bits", [False, True])
    def test_view_scans_only_as_far_as_asked(self, monkeypatch, with_bits):
        # K_40 with every label 1: each of its 9880 triangles is odd-short
        built = []
        make = graphs.TriangleViolation

        def counted(*fields):
            built.append(fields)
            return make(*fields)

        monkeypatch.setattr(graphs, "TriangleViolation", counted)
        n = 40
        g = EdgeLabelledGraph(n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)])
        bits = label_bits(g, 6) if with_bits else None
        view = violations(g, PAR, g.matrix(), bits)
        assert len(built) == 1  # the call scans up to the first triangle
        assert view and view[0].vertices == (0, 1, 2)
        assert len(built) == 1  # which the truth value and [0] read
        expected = violations_oracle(g, PAR)
        assert list(view) == list(view) == expected  # each pass scans afresh
        assert len(view) == len(expected) == 9880
        assert view[1] == expected[1] and view[-1] == expected[-1]
        assert view[5:8] == expected[5:8]
        # one pass each: an index per item would rescan 9880 times
        assert list(reversed(view)) == expected[::-1]
        assert view.index(expected[7]) == view.index(expected[7], 3, 9) == 7
        for index in (9880, -9881):
            with pytest.raises(IndexError):
                view[index]

    def test_view_compares_as_a_sequence(self):
        g = cycle_graph((5, 1, 3))
        found = violations_oracle(g, PAR)
        view = violations(g, PAR)
        assert view == found and view == tuple(found) and view == violations(g, PAR)
        assert view != [] and view != found * 2 and view != set(found)
        assert hash(view) == hash(tuple(found))
        assert found[0] in view and view.index(found[0]) == 0 and view.count(found[0]) == 1
        assert repr(view) == f"ViolationView([{found[0]!r}])"
        empty = violations(cycle_graph((1, 1, 2)), PAR)
        assert not empty and empty == [] and empty == () and len(empty) == 0
        with pytest.raises(IndexError):
            empty[0]

    def test_repr_shows_three_triangles_at_most(self):
        # K_5 with every label 1: at k = 2 each of its 10 triangles is
        # odd and short
        k5 = EdgeLabelledGraph(5, [(u, v, 1) for u, v in itertools.combinations(range(5), 2)])
        view = violations(k5, PAR)
        found = violations_oracle(k5, PAR)
        assert len(view) == len(found) == 10
        assert repr(view) == "ViolationView([%r, %r, %r, ...])" % tuple(found[:3])

    def test_clean_graphs_share_the_empty_view(self):
        view = violations(cycle_graph((1, 1, 2)), PAR)
        assert view is violations(EdgeLabelledGraph(0), PAR)
        assert list(view) == [] and len(view) == 0 and not view

    def test_label_beyond_delta_in_a_triangle(self):
        # violations refuses the 7 wherever it sits; the per-triangle oracle
        # only where it closes a triangle
        g = EdgeLabelledGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 2), (1, 3, 7)])
        for open_seven in (g, EdgeLabelledGraph(2, [(0, 1, 7)])):
            with pytest.raises(RangeError, match="^distance 7 outside 1..6$"):
                violations(open_seven, PAR)
            assert violations_oracle(open_seven, PAR) == []
        closed = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 7), (0, 2, 6)])
        with pytest.raises(RangeError, match="distance 7 outside 1..6"):
            violations(closed, PAR)
        with pytest.raises(RangeError, match="distance 7 outside 1..6"):
            violations_oracle(closed, PAR)

    def test_label_beyond_delta_beside_forbidden_triangles(self):
        # the 7 in no full triangle, beside 1,3,5: violations refuses the
        # graph, the per-triangle oracle reports the forbidden triangle
        g = EdgeLabelledGraph(4, [(0, 1, 1), (0, 2, 7), (0, 3, 3), (1, 3, 5)])
        with pytest.raises(RangeError, match="^distance 7 outside 1..6$"):
            violations(g, PAR)
        found = violations_oracle(g, PAR)
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

    def test_long_path_needs_no_recursion(self):
        # one search frame for any source size: a 1500-vertex path with one
        # label folds onto its first edge, deeper than the interpreter's
        # default recursion limit of 1000 frames
        n = 1500
        path = EdgeLabelledGraph(n, [(v, v + 1, 2) for v in range(n - 1)])
        hom = find_homomorphism(path, path)
        assert hom == (0, 1) * (n // 2)
        for (u, v), d in path.edges.items():
            assert path.distance(hom[u], hom[v]) == d

    def test_large_target_in_bounded_memory(self):
        # a 20000 x 20000 matrix of the target's distances takes about 3 GB
        out = run_capped("find_homomorphism(EdgeLabelledGraph(1), EdgeLabelledGraph(20000))")
        assert out == "(0,)\n"


class TestDistanceMapSearch:
    @pytest.mark.slow
    def test_matches_the_recursive_search_on_the_sweep_universe(self):
        # the single-loop search against the recursive one it replaced, on
        # every delta <= 3 sweep graph: its automorphisms, its partial
        # automorphisms, and every map into itself and into a second graph
        # of the universe, in order
        for delta in (2, 3):
            universe = sweep_universe(delta)
            for index, g in enumerate(universe):
                other = universe[index * 7919 % len(universe)]
                assert automorphisms(g) == list(distance_maps_reference(g, g, True)), g
                for h in (g, other):
                    got = graphs._distance_maps(g, h, embed=False)
                    assert list(got) == list(distance_maps_reference(g, h, False)), (g, h)
                    assert find_homomorphism(g, h) == next(
                        distance_maps_reference(g, h, False), None
                    )
                if g.vertex_count <= graphs.MAX_PARTIAL_AUTOMORPHISM_VERTICES:
                    n = g.vertex_count
                    assert partial_automorphisms(g) == [
                        dict(zip(dom, images))
                        for size in range(n + 1)
                        for dom in itertools.combinations(range(n), size)
                        for images in distance_maps_reference(g.induced(dom), g, True)
                    ], g


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
        # 9 vertices are searched: a path with distinct labels is rigid
        path = EdgeLabelledGraph(9, [(i, i + 1, i + 1) for i in range(8)])
        assert automorphisms(path) == [tuple(range(9))]
        with pytest.raises(CapacityError, match="^automorphism search capped at 9 vertices$"):
            automorphisms(EdgeLabelledGraph(10))


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

    def test_maps_that_are_not_injective_or_leave_the_graph(self):
        g = EdgeLabelledGraph(3)
        assert not is_partial_automorphism(g, {0: 2, 1: 2})
        assert not is_partial_automorphism(g, {0: 3})
        assert not is_partial_automorphism(g, {3: 0})
        assert not is_partial_automorphism(g, {0: 1.5})
        assert not is_partial_automorphism(g, {1.5: 0})
        assert not is_partial_automorphism(g, {0: 1.0, 1: 0})
        assert not is_partial_automorphism(g, {True: 0})
        assert not is_partial_automorphism(g, {0: "1"})
        assert is_partial_automorphism(g, {0: 1, 1: 0})


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

    @pytest.mark.parametrize("inclusion, message", [
        ((1,), "inclusion map must cover every vertex of the subgraph"),
        ((1, 2, 0), "inclusion map must cover every vertex of the subgraph"),
        ((1, 1), "inclusion map must embed vertices injectively"),
        ((1, 3), "inclusion map must embed vertices injectively"),
        ((-1, 0), "inclusion map must embed vertices injectively"),
        ((1.5, 0), "inclusion map must embed vertices injectively"),
    ])
    def test_inclusion_must_embed(self, inclusion, message):
        a = EdgeLabelledGraph(2, [(0, 1, 2)])
        b = EdgeLabelledGraph(3, [(1, 2, 2), (0, 1, 1)])
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            verify_eppa_witness(a, b, inclusion=inclusion)

    def test_describe(self):
        one = EdgeLabelledGraph(1)
        report = verify_eppa_witness(one, one)
        assert report.describe() == "holds (2 partial automorphisms extend)"
        tri = cycle_graph((1, 1, 2))
        report = verify_eppa_witness(tri, tri)
        assert report.describe() == "fails at partial automorphism {0->1}"

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

    def test_capacity_refused_before_the_induced_check(self):
        # the edge of a is not in b, but b is over the automorphism cap,
        # which is checked first: the induced check is quadratic in small
        a = EdgeLabelledGraph(2, [(0, 1, 2)])
        with pytest.raises(CapacityError):
            verify_eppa_witness(a, EdgeLabelledGraph(10))


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
