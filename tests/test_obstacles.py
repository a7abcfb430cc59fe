"""Obstacle back-traces, cycle catalogues, and their verification."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from metric_completer import completion, graphs, obstacles
from metric_completer import (
    CapacityError,
    CompletionStatus,
    EdgeLabelledGraph,
    FormatError,
    ForkFamilies,
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
    fork_families,
    format_catalogue,
    format_cycle_labels,
    magic_distances,
    obstacle_trace,
    oracle_complete,
    parse_catalogue,
    parse_cycle_labels,
    substitute_forks,
    verify_catalogue,
    violations,
)
from metric_completer.obstacles import _canonical_cycle_count, _decide_cycles, _sample_non_entries
from metric_completer.params import _triangle_table

from oracles import (
    canonical_cycles,
    canonical_cycles_oracle,
    canonical_necklaces_oracle,
    cycle_completes_oracle,
    one_lane_blocks,
    sample_non_entries_oracle,
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


PINNED = {3: TRIANGLES_21, 4: CYCLES_4, 5: CYCLES_5, 6: CYCLES_6}


# the length of the longest non-completable substitution cycles of each
# triple with delta <= 6, the same at every magic distance; None where no
# triangle is forbidden
LAST_NON_EMPTY = {
    (2, 1, 6): 3, (2, 1, 7): None, (2, 2, 7): 3,
    (3, 1, 8): 5, (3, 1, 9): 3, (3, 1, 10): 3, (3, 2, 9): 3, (3, 2, 10): 3,
    (3, 3, 10): 5,
    (4, 1, 10): 7, (4, 1, 11): 4, (4, 1, 12): 4, (4, 1, 13): 4, (4, 2, 11): 4,
    (4, 2, 12): 4, (4, 2, 13): 4, (4, 3, 12): 5, (4, 3, 13): 5, (4, 4, 13): 7,
    (5, 1, 12): 9, (5, 1, 13): 5, (5, 1, 14): 5, (5, 1, 15): 5, (5, 1, 16): 5,
    (5, 2, 13): 5, (5, 2, 14): 5, (5, 2, 15): 5, (5, 2, 16): 5, (5, 3, 14): 5,
    (5, 3, 15): 5, (5, 3, 16): 5, (5, 4, 15): 7, (5, 4, 16): 7, (5, 5, 16): 9,
    (6, 1, 14): 11, (6, 1, 15): 6, (6, 1, 16): 6, (6, 1, 17): 6, (6, 1, 18): 6,
    (6, 1, 19): 6, (6, 2, 15): 6, (6, 2, 16): 6, (6, 2, 17): 6, (6, 2, 18): 6,
    (6, 2, 19): 6, (6, 3, 16): 6, (6, 3, 17): 6, (6, 3, 18): 6, (6, 3, 19): 6,
    (6, 4, 17): 7, (6, 4, 18): 7, (6, 4, 19): 7, (6, 5, 18): 9, (6, 5, 19): 9,
    (6, 6, 19): 11,
}


def acceptable_triples(deltas):
    return [
        Params(delta, k, c)
        for delta in deltas
        for k in range(1, delta + 1)
        for c in range(2 * delta + k + 1, 3 * delta + 2)
    ]


def decider_mismatches(cycles, params, magic):
    """The cycles on which _decide_cycles and one engine run per cycle
    disagree; a lane set beyond the last cycle counts as a mismatch too."""
    cycles = list(cycles)
    refused = _decide_cycles(one_lane_blocks(cycles), params, magic)
    wrong = [
        seq
        for lane, seq in enumerate(cycles)
        if bool(refused >> lane & 1) == cycle_completes_oracle(seq, params, magic)
    ]
    if refused >> len(cycles):
        wrong.append(f"lanes beyond {len(cycles)}")
    return wrong


def shifted_families(families, shift):
    """``families`` with every label raised by ``shift``: the same class
    copied onto labels shift+1..shift+delta, with the labels below unused."""

    def up(fork):
        return (fork[0] + shift, fork[1] + shift)

    return ForkFamilies(
        magic=families.magic + shift,
        choice={up(fork): x + shift for fork, x in families.choice.items()},
        schedule=tuple(
            (rank, x + shift, frozenset(map(up, fam)))
            for rank, x, fam in families.schedule
        ),
        tag={up(fork): tag for fork, tag in families.tag.items()},
    )


def shifted_table(table, shift):
    """A _triangle_table with every label raised by ``shift``, as for
    shifted_families.  The tables stay sparse; _triangle_table itself refuses
    a delta that large (MAX_DELTA)."""
    bad, forbidden = table
    delta = len(bad) - 1
    span = shift + delta + 1
    empty = (None,) * span
    up_bad = [[empty] * span for _ in range(span)]
    up_forbidden = [()] * span
    for a in range(1, delta + 1):
        for b in range(1, delta + 1):
            up_bad[a + shift][b + shift] = (None,) * (shift + 1) + bad[a][b][1:]
        up_forbidden[a + shift] = tuple(
            (c + shift, tuple(b + shift for b in bs)) for c, bs in forbidden[a]
        )
    return up_bad, up_forbidden


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

    def test_witnesses_are_catalogue_entries(self):
        # random inputs with no forbidden triangle of their own that the
        # engine fails, at every acceptable triple with delta 3..6 and a
        # random magic: the back-trace's cycle is an entry of the substitution
        # catalogue of its length at the same magic
        rng = random.Random(41)
        triples = acceptable_triples(range(3, 7))
        catalogues = {}
        lengths = []
        for _ in range(20000):
            par = rng.choice(triples)
            magic = rng.choice(magic_distances(par))
            n = rng.randint(4, 14)
            g = EdgeLabelledGraph(n, [
                (u, v, rng.randint(1, par.delta))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.25
            ])
            if violations(g, par):
                continue
            try:
                labels = obstacle_trace(g, par, magic).cycle_labels()
            except PreconditionError:  # the input completes
                continue
            key = (par, magic, len(labels))
            if key not in catalogues:
                catalogues[key] = set(enumerate_obstacle_cycles(
                    par, len(labels), method="substitution", magic=magic, budget=10**12
                ).cycles)
            assert labels in catalogues[key], (par, magic, g)
            lengths.append(len(labels))
        assert len(lengths) > 300
        assert {4, 5, 6} <= set(lengths)


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
        for cycle in ((1, 1, 7), (0, 1, 1), (1, 1.0, 5)):
            with pytest.raises(RangeError, match="outside 1..6"):
                substitute_forks(cycle, PAR)

    def test_rejects_fewer_than_three_labels(self):
        with pytest.raises(RangeError, match="^a cycle needs at least 3 labels$"):
            substitute_forks((1, 2), PAR)


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

    @staticmethod
    def method_cases(deltas, limit):
        """(params, magic, size) for every acceptable triple with a delta in
        ``deltas``, every magic and every size from 3 with delta^size at most
        ``limit``."""
        return [
            (par, magic, size)
            for par in acceptable_triples(deltas)
            for magic in magic_distances(par)
            for size in itertools.takewhile(
                lambda size: par.delta**size <= limit, itertools.count(3)
            )
        ]

    def assert_methods_agree(self, cases):
        for par, magic, size in cases:
            exh = enumerate_obstacle_cycles(par, size, magic=magic)
            sub = enumerate_obstacle_cycles(par, size, method="substitution", magic=magic)
            assert exh.cycles == sub.cycles, (par, magic, size)

    def test_methods_agree_up_to_delta_five(self):
        cases = self.method_cases(range(2, 6), 10**5)
        assert len(cases) == 374
        self.assert_methods_agree(cases)

    @pytest.mark.slow
    def test_methods_agree_at_delta_six(self):
        cases = self.method_cases([6], 2 * 10**6)
        assert len(cases) == 312
        self.assert_methods_agree(cases)

    def test_entries_are_canonical_sorted_and_refused(self):
        cat = enumerate_obstacle_cycles(PAR, 5)
        assert list(cat.cycles) == sorted(set(cat.cycles))
        for cyc in cat.cycles:
            assert canonical_cycle(cyc) == cyc
            assert complete_magic(cycle_graph(cyc), PAR).status is CompletionStatus.FAILED

    def test_canonical_cycles_match_the_filter(self):
        # the bracelet generator against the filter over all sequences
        cases = [
            (delta, size)
            for delta in range(1, 7)
            for size in range(3, 8)
            if delta**size <= 10**5
        ]
        cases += [(2, size) for size in range(8, 17)] + [(3, 8), (3, 9), (3, 10), (6, 7)]
        for delta, size in cases:
            assert list(canonical_cycles(delta, size)) == (
                canonical_cycles_oracle(delta, size)
            ), (delta, size)

    def test_small_n_rejected(self):
        for size in (2, 4.0, "5"):
            with pytest.raises(RangeError):
                enumerate_obstacle_cycles(PAR, size)

    def test_unknown_method_rejected(self):
        with pytest.raises(FormatError, match="^unknown method 'x'$"):
            enumerate_obstacle_cycles(PAR, 3, method="x")

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_chunk_boundaries(self, monkeypatch, lanes):
        monkeypatch.setattr(obstacles, "_LANES", lanes)
        for n, expected in PINNED.items():
            for method in ("exhaustive", "substitution"):
                cat = enumerate_obstacle_cycles(PAR, n, method)
                assert list(cat.cycles) == expected, (n, method)

    def test_budget(self):
        with pytest.raises(CapacityError):
            enumerate_obstacle_cycles(PAR, 6, budget=10)
        # a budget that is not an int is refused at every size, by each method
        # and by the verification
        catalogue = enumerate_obstacle_cycles(PAR, 5)
        for budget in (1e9, None, True):
            for call in (
                lambda: enumerate_obstacle_cycles(PAR, 3, budget=budget),
                lambda: enumerate_obstacle_cycles(PAR, 30, budget=budget),
                lambda: enumerate_obstacle_cycles(PAR, 3, "substitution", budget=budget),
                lambda: verify_catalogue(catalogue, budget=budget),
            ):
                with pytest.raises(TypeError, match=f"^budget {budget!r} is not an int$"):
                    call()

    def test_substitution_is_charged_for_its_candidates(self, monkeypatch):
        # 56 canonical 3-cycles, then 58 candidates for length 4: the 6^n
        # label sequences of the exhaustive method are not charged
        for size, budget, over in ((3, 55, 56), (6, 113, 114)):
            with pytest.raises(
                CapacityError, match=f"^{over} candidate cycles exceed the budget of {budget}$"
            ):
                enumerate_obstacle_cycles(PAR, size, "substitution", budget=budget)
        cat = enumerate_obstacle_cycles(PAR, 4, "substitution", budget=114)
        assert list(cat.cycles) == CYCLES_4
        # 6^11 sequences, far over the default budget; the generations are
        # empty from length 7 on, and the first empty one ends the growth
        decided = []

        def refused(cycles, params, magic):
            decided.append(len(decided) + 3)
            return real(cycles, params, magic)

        real = obstacles._refused
        monkeypatch.setattr(obstacles, "_refused", refused)
        for size in (11, 10**8):
            decided.clear()
            cat = enumerate_obstacle_cycles(PAR, size, "substitution")
            assert (cat.size, cat.cycles, decided) == (size, (), [3, 4, 5, 6, 7])

    def test_substitution_closure(self):
        # each substitution catalogue grown to its first empty generation,
        # for every triple with delta <= 6 and every magic; all later
        # generations are empty, as each is built from the one before alone.
        # Where delta^(L+1) <= 2*10**6, the exhaustive catalogue at length
        # L + 1 is empty as well.
        exhaustive = 0
        for par in acceptable_triples(range(2, 7)):
            for magic in magic_distances(par):
                size = 3
                while enumerate_obstacle_cycles(par, size, "substitution", magic).cycles:
                    size += 1
                last = size - 1 if size > 3 else None
                assert last == LAST_NON_EMPTY[(par.delta, par.k, par.c)], (par, magic)
                if par.delta**size <= 2 * 10**6:
                    assert enumerate_obstacle_cycles(par, size, magic=magic).cycles == ()
                    exhaustive += 1
        assert exhaustive == 104

    def test_default_budget_matches_the_cli(self, monkeypatch):
        # 6^9 = 10077696 sequences are within the default budget of 10**8,
        # as with the CLI's --budget; the generator yields nothing here
        monkeypatch.setattr(obstacles, "_canonical_blocks", lambda delta, size: iter(()))
        assert enumerate_obstacle_cycles(PAR, 9).cycles == ()
        with pytest.raises(CapacityError, match="^10077696 label sequences exceed the budget"):
            enumerate_obstacle_cycles(PAR, 9, budget=10**7)

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
        for magic in (3, 4):
            assert enumerate_obstacle_cycles(PAR, 7, magic=magic).cycles == ()

    @pytest.mark.parametrize("n", [8, 9])
    def test_no_obstacles_at_lengths_eight_and_nine(self, n):
        # the exhaustive method walks every canonical cycle of length n
        for magic in (3, 4):
            assert enumerate_obstacle_cycles(PAR, n, magic=magic).cycles == ()


# published counts of binary bracelets, n = 3..9 (OEIS A000029)
BINARY_BRACELETS = {3: 4, 4: 6, 5: 8, 6: 13, 7: 18, 8: 30, 9: 46}


class TestCanonicalCycles:
    """The bracelet generator against the necklace walk it replaced, and the
    closed-form count of its output."""

    @pytest.mark.parametrize(
        "delta, size",
        [(6, 3), (6, 4), (6, 5), (6, 6), (6, 7), (5, 6), (3, 8), (2, 9), (4, 10), (1, 12)],
    )
    def test_matches_the_necklace_walk(self, delta, size):
        assert list(canonical_cycles(delta, size)) == list(
            canonical_necklaces_oracle(delta, size)
        )

    def test_count_matches_the_generator(self):
        for delta in range(1, 7):
            for size in range(3, 21):
                if delta**size <= 10**6:
                    count = sum(1 for _ in canonical_cycles(delta, size))
                    assert _canonical_cycle_count(delta, size) == count, (delta, size)

    def test_count_matches_the_published_binary_counts(self):
        for size, count in BINARY_BRACELETS.items():
            assert _canonical_cycle_count(2, size) == count

    def test_generation_is_lazy(self):
        # 6**12 sequences: only a generator that streams returns at once
        first = list(itertools.islice(canonical_cycles(6, 12), 5))
        assert first == [(1,) * 11 + (x,) for x in range(1, 6)]

    @pytest.mark.parametrize("size", [2, 1, 0, -1])
    def test_size_below_three_is_refused_on_first_next(self, size):
        cycles = obstacles._canonical_blocks(6, size)
        with pytest.raises(RangeError, match="^a cycle needs at least 3 labels$"):
            next(cycles)


class TestCycleDecider:
    """The bit-sliced catalogue decider against one engine run per cycle."""

    def test_every_triple_up_to_delta_five(self):
        for par in acceptable_triples(range(2, 6)):
            for magic in magic_distances(par):
                for size in (3, 4, 5, 6):
                    cycles = canonical_cycles(par.delta, size)
                    assert decider_mismatches(cycles, par, magic) == [], (par, magic)

    def test_delta_six_up_to_size_five(self):
        for par in acceptable_triples([6]):
            for magic in magic_distances(par):
                for size in (3, 4, 5):
                    cycles = canonical_cycles(6, size)
                    assert decider_mismatches(cycles, par, magic) == [], (par, magic)

    @pytest.mark.parametrize("magic", [3, 4])
    def test_six_cycles(self, magic):
        cycles = canonical_cycles(6, 6)
        assert decider_mismatches(cycles, PAR, magic) == []

    def test_raw_sequences(self):
        # neither canonical nor distinct: every rotation and reflection of
        # the pinned obstacles, and random draws
        rng = random.Random(11)
        for size, pinned in PINNED.items():
            turns = {
                variant[i:] + variant[:i]
                for cyc in pinned
                for variant in (cyc, cyc[::-1])
                for i in range(size)
            }
            drawn = [tuple(rng.randint(1, 6) for _ in range(size)) for _ in range(300)]
            for magic in (3, 4):
                cycles = sorted(turns) + drawn + drawn[:5]
                assert decider_mismatches(cycles, PAR, magic) == [], (size, magic)

    def test_labels_above_255(self, monkeypatch):
        # (6, 2, 15) copied onto labels 295..300 of a delta = 300 class: the
        # lane masks must index labels that no byte holds
        big = Params(300, 1, 700)
        shifted = {m: shifted_families(fork_families(m, PAR), 294) for m in (3, 4)}
        table = shifted_table(_triangle_table(PAR), 294)
        cases, block_cases = [], []
        for size in (3, 4, 5, 6):
            cycles = list(canonical_cycles(6, size))
            if size == 6:
                cycles = cycles[::7] + CYCLES_6
            blocks = list(obstacles._canonical_blocks(6, size))
            for magic in (3, 4):
                mask = _decide_cycles(one_lane_blocks(cycles), PAR, magic)
                cases.append((cycles, magic, mask))
                block_cases.append((blocks, magic, _decide_cycles(blocks, PAR, magic)))

        def fake(magic, params):
            return shifted[magic - 294]

        monkeypatch.setattr(completion, "fork_families", fake)
        monkeypatch.setattr(obstacles, "fork_families", fake)
        monkeypatch.setattr(completion, "_triangle_table", lambda params: table)
        monkeypatch.setattr(obstacles, "_triangle_table", lambda params: table)
        monkeypatch.setattr(graphs, "_triangle_table", lambda params: table)
        for cycles, magic, mask in cases:
            raised = [tuple(x + 294 for x in cyc) for cyc in cycles]
            assert decider_mismatches(raised, big, magic + 294) == [], magic
            assert _decide_cycles(one_lane_blocks(raised), big, magic + 294) == mask
        for blocks, magic, mask in block_cases:
            raised = [(tuple(x + 294 for x in head), lo + 294, hi + 294) for head, lo, hi in blocks]
            assert _decide_cycles(raised, big, magic + 294) == mask

    def test_follows_the_engine_in_any_rank_order(self, monkeypatch):
        # with the real schedule no forbidden triangle has a magic-filled side
        # (a fork that would close one inserts its choice after both of its
        # arms), so only another rank order shows that the magic fill is there
        def reversed_schedule(magic, params):
            families = fork_families(magic, params)
            return dataclasses.replace(families, schedule=families.schedule[::-1])

        monkeypatch.setattr(completion, "fork_families", reversed_schedule)
        monkeypatch.setattr(obstacles, "fork_families", reversed_schedule)
        for magic in (3, 4):
            for size in (3, 4, 5):
                cycles = canonical_cycles(6, size)
                assert decider_mismatches(cycles, PAR, magic) == [], (magic, size)

    def test_no_cycles_decide_to_no_lanes(self):
        assert _decide_cycles([], PAR, 4) == 0

    @pytest.mark.slow
    def test_every_triple_up_to_delta_six(self):
        # about 355k engine runs
        for par in acceptable_triples(range(2, 7)):
            for magic in magic_distances(par):
                for size in (3, 4, 5, 6):
                    cycles = canonical_cycles(par.delta, size)
                    assert decider_mismatches(cycles, par, magic) == [], (par, magic)


class TestBlocks:
    """The generator's blocks against the same cycles one lane each, the
    form the blocks replaced, in the decider and in _refused's chunks."""

    CASES = [
        (par, magic, size)
        for par in acceptable_triples(range(2, 6)) + [PAR]
        for magic in magic_distances(par)
        for size in (3, 4, 5, 6)
    ]

    def test_blocks_are_runs_up_to_delta_with_distinct_heads(self):
        # one block per visit to the last position: 1,705 for 4,291 cycles
        assert len(list(obstacles._canonical_blocks(6, 6))) == 1705
        for delta in range(1, 7):
            for size in range(3, 8):
                blocks = list(obstacles._canonical_blocks(delta, size))
                assert all(1 <= lo < hi == delta + 1 for _, lo, hi in blocks), (delta, size)
                assert len({head for head, _, _ in blocks}) == len(blocks), (delta, size)

    def test_blocks_decide_as_single_lanes(self):
        for par, magic, size in self.CASES:
            blocks = list(obstacles._canonical_blocks(par.delta, size))
            single = one_lane_blocks(canonical_cycles(par.delta, size))
            assert _decide_cycles(blocks, par, magic) == _decide_cycles(single, par, magic), (
                par, magic, size
            )

    @pytest.mark.parametrize("lanes", [1, 2, 3, 4096])
    def test_refused_across_chunk_edges(self, monkeypatch, lanes):
        monkeypatch.setattr(obstacles, "_LANES", lanes)
        for par, magic, size in self.CASES:
            cycles = list(canonical_cycles(par.delta, size))
            mask = _decide_cycles(one_lane_blocks(cycles), par, magic)
            expected = [cyc for lane, cyc in enumerate(cycles) if mask >> lane & 1]
            blocks = obstacles._canonical_blocks(par.delta, size)
            assert obstacles._refused(blocks, par, magic) == expected, (par, magic, size)

    @pytest.mark.parametrize("lanes", [1, 2, 3, 4096])
    def test_chunks_hold_whole_blocks(self, monkeypatch, lanes):
        # joined, the chunks are the blocks given; each but the last holds
        # _LANES lanes or more, and each fewer than _LANES plus the widest
        # block, delta for the generator's blocks
        monkeypatch.setattr(obstacles, "_LANES", lanes)
        for delta in range(1, 7):
            for size in (3, 4, 5, 6):
                generated = list(obstacles._canonical_blocks(delta, size))
                for blocks in (generated, one_lane_blocks(canonical_cycles(delta, size))):
                    chunks = list(obstacles._chunks(iter(blocks)))
                    assert [b for chunk in chunks for b in chunk] == blocks, (delta, size)
                    held = [sum(hi - lo for _, lo, hi in chunk) for chunk in chunks]
                    widest = max(hi - lo for _, lo, hi in blocks)
                    assert all(h >= lanes for h in held[:-1]), (delta, size)
                    assert all(h < lanes + widest for h in held), (delta, size)

    def test_positions_map_to_the_cycles_left(self):
        # the walk against the expanded list with the skipped cycles taken
        # out; unskipped, it reads one-lane blocks as _refused does
        rng = random.Random(0)
        for delta in range(1, 5):
            for size in range(3, 7):
                cycles = list(canonical_cycles(delta, size))
                taken = {cyc for cyc in cycles if rng.random() < 0.3}
                skip = {}
                for cyc in sorted(taken):
                    skip.setdefault(cyc[:-1], []).append(cyc[-1])
                left = [cyc for cyc in cycles if cyc not in taken]
                for given, rest, skipped in (
                    (obstacles._canonical_blocks(delta, size), left, skip),
                    (one_lane_blocks(cycles), cycles, {}),
                ):
                    if not rest:
                        continue
                    drawn = rng.sample(range(len(rest)), min(10, len(rest)))
                    positions = sorted({0, len(rest) - 1, *drawn})
                    got = list(obstacles._cycles_at(given, positions, skipped))
                    assert got == [rest[p] for p in positions], (delta, size)


CANONICAL_5 = list(canonical_cycles(6, 5))
ROTATED_5 = [cyc[1:] + cyc[:1] for cyc in CYCLES_5]


def sample_cases():
    """Catalogues for the non-entry sampler: real ones, and hand-built ones
    with so many entries that at most _SAMPLE_SIZE non-entries remain."""
    cases = [
        enumerate_obstacle_cycles(par, size)
        for par in (PAR, Params(4, 1, 11), Params(3, 1, 8), Params(2, 1, 6))
        for size in (3, 4, 5, 6)
    ]
    cases += [
        ObstacleCatalogue(PAR, 5, "exhaustive", ()),
        ObstacleCatalogue(PAR, 5, "exhaustive", tuple(CANONICAL_5[:-7])),
        ObstacleCatalogue(PAR, 5, "exhaustive", tuple(CANONICAL_5[:-20])),
        ObstacleCatalogue(PAR, 5, "exhaustive", tuple(CANONICAL_5[:-21])),
        ObstacleCatalogue(PAR, 5, "exhaustive", tuple(CANONICAL_5)),
        # entries between non-entries of one head, inside the generator's blocks
        ObstacleCatalogue(PAR, 5, "exhaustive", tuple(CANONICAL_5[::3])),
    ]
    return cases


# hand-built 5-cycle entries at PAR that no catalogue holds, with the check
# that refuses each first
MALFORMED = {
    "duplicates": (CYCLES_5 + CYCLES_5[:4], "^catalogue entries must be ascending and distinct$"),
    "rotations": (ROTATED_5 + CYCLES_5[::2], "^cycle '11151' is not in canonical form$"),
    "labels-and-lengths": (
        [(1, 1, 1, 1, 7), (0, 1, 1, 1, 1), (1, 1, 6)] + CYCLES_5,
        r"^cycle '11117' has a label outside 1\.\.6$",
    ),
    "out-of-order": (
        CANONICAL_5[7:] + CANONICAL_5[:3],
        "^catalogue entries must be ascending and distinct$",
    ),
    "out-of-order-tail": (
        CANONICAL_5[:-21] + CANONICAL_5[:3],
        "^catalogue entries must be ascending and distinct$",
    ),
    "rotated-tail": (CANONICAL_5[:-21] + ROTATED_5, "^cycle '11151' is not in canonical form$"),
    "duplicate-tail": (
        CANONICAL_5 + CANONICAL_5[:1],
        "^catalogue entries must be ascending and distinct$",
    ),
}


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
        bad = ObstacleCatalogue(PAR, 5, "exhaustive", ((1, 1, 1, 1, 1),) + good.cycles)
        report = verify_catalogue(bad)
        assert not report.ok
        assert "(1, 1, 1, 1, 1)" in report.failure

    # the non-entries verify_catalogue samples at (6, 2, 15): random.sample
    # depends on the order of the canonical cycles, so these pin that order
    SAMPLED = {
        5: "46466 14354 34346 14616 11256 13225 22344 16566 14466 34636 "
        "44646 13426 16256 14145 23435 12556 22325 12256 13326 12262",
        6: "233525 242455 113343 142366 365656 343535 235446 151666 334444 223664 "
        "134443 355355 124663 144564 125125 122534 136663 125344 153245 122643",
    }

    @pytest.mark.parametrize("n", sorted(SAMPLED))
    def test_sampled_non_entries_are_pinned(self, monkeypatch, n):
        searched = []

        def record(g, params, budget):
            searched.append(g)
            return oracle_complete(g, params, budget)

        catalogue = enumerate_obstacle_cycles(PAR, n)
        monkeypatch.setattr(obstacles, "oracle_complete", record)
        assert verify_catalogue(catalogue).ok
        expected = [cycle_graph(cyc) for cyc in catalogue.cycles] + [
            cycle_graph(int(ch) for ch in word) for word in self.SAMPLED[n].split()
        ]
        assert searched == expected

    @pytest.mark.parametrize(
        "catalogue",
        sample_cases(),
        ids=lambda cat: f"{cat.params.delta}-{cat.size}-{len(cat.cycles)}",
    )
    def test_sample_matches_the_listed_sample(self, catalogue):
        assert _sample_non_entries(catalogue) == sample_non_entries_oracle(catalogue)

    @pytest.mark.parametrize("size", [2, 1, 0, -1])
    def test_size_below_three_is_refused(self, size):
        with pytest.raises(FormatError, match=f"^catalogue size {size} is below 3$"):
            ObstacleCatalogue(PAR, size, "exhaustive", ())

    def test_entries_of_another_length_are_refused(self, monkeypatch):
        # a triangle among the 5-cycles, and a 7-cycle: refused when built
        def no_search(*args):
            raise AssertionError("searched before the entries were checked")

        real = enumerate_obstacle_cycles(PAR, 5).cycles
        monkeypatch.setattr(obstacles, "oracle_complete", no_search)
        monkeypatch.setattr(obstacles, "_canonical_blocks", no_search)
        for entry in ((1, 1, 6), (1, 1, 1, 1, 1, 1, 6)):
            with pytest.raises(FormatError) as caught:
                ObstacleCatalogue(PAR, 5, "exhaustive", (entry,) + real)
            label = format_cycle_labels(entry)
            assert str(caught.value) == f"cycle {label!r} does not have 5 labels"

    def test_oversized_catalogue_is_refused_at_once(self, monkeypatch):
        # 6**12 sequences to sample from: refused before any search starts
        def no_search(*args):
            raise AssertionError("searched before the budget check")

        monkeypatch.setattr(obstacles, "oracle_complete", no_search)
        monkeypatch.setattr(obstacles, "_canonical_blocks", no_search)
        catalogue = parse_catalogue("catalogue 6 2 15 12 exhaustive\n")
        with pytest.raises(
            CapacityError,
            match="^2176782336 label sequences exceed the budget of 100000000$",
        ):
            verify_catalogue(catalogue)


class TestCatalogueChecks:
    """A catalogue checks its entries when built, so every one that exists
    is valid."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_entries_are_refused(self, case):
        cycles, message = MALFORMED[case]
        with pytest.raises(FormatError, match=message):
            ObstacleCatalogue(PAR, 5, "exhaustive", tuple(cycles))

    @pytest.mark.parametrize("size", [5.0, "5", None])
    def test_size_must_be_an_integer(self, size):
        with pytest.raises(FormatError, match=f"^catalogue size {size!r} is not an integer$"):
            ObstacleCatalogue(PAR, size, "exhaustive", ())

    def test_entries_must_be_tuples_of_ints(self):
        # a list would not equal the parsed catalogue, and True is no label
        with pytest.raises(FormatError, match="^catalogue entries must be a tuple$"):
            ObstacleCatalogue(PAR, 5, "exhaustive", [(1, 1, 1, 1, 5)])
        for entry in ([1, 1, 1, 1, 5], (1, 1, 1, 1, "5"), (True, 1, 1, 1, 5), (1, 1, 1, 1, 5.0)):
            with pytest.raises(FormatError, match=" is not a tuple of ints$"):
                ObstacleCatalogue(PAR, 5, "exhaustive", (entry,))

    def test_rotation_of_an_obstacle_is_refused(self):
        # 1333 is an obstacle at (3, 1, 8); its rotation 3331 is no entry
        par = Params(3, 1, 8)
        assert (1, 3, 3, 3) in enumerate_obstacle_cycles(par, 4).cycles
        with pytest.raises(FormatError, match="^cycle '3331' is not in canonical form$"):
            ObstacleCatalogue(par, 4, "exhaustive", ((3, 3, 3, 1),))

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_every_catalogue_round_trips(self, data):
        # sizes of any type, unknown methods, and entries of another length,
        # with a label in -1..8, turned, repeated or in any order; most draws
        # are clean, so that many catalogues are built
        draw = data.draw
        par = draw(st.sampled_from([PAR, Params(3, 1, 8), Params(10, 1, 22)]))
        length = draw(st.integers(3, 6))
        size = length
        if not draw(st.integers(0, 3)):
            size = draw(
                st.integers(-1, 7) | st.floats(-1, 7) | st.text("0123456789", max_size=2)
            )
        method = (obstacles.METHODS * 4 + ("wat", ""))[draw(st.integers(0, 9))]
        entries = []
        for _ in range(draw(st.integers(0, 4))):
            flaw = (("",) * 7 + ("length", "label", "turn"))[draw(st.integers(0, 9))]
            n = length + draw(st.sampled_from([-1, 1])) if flaw == "length" else length
            seq = draw(st.lists(st.integers(1, par.delta), min_size=n, max_size=n))
            if flaw == "label":
                seq[draw(st.integers(0, n - 1))] = draw(st.integers(-1, 8))
            seq = canonical_cycle(seq) if n >= 3 else tuple(seq)
            if flaw == "turn":
                turn = draw(st.integers(1, n - 1))
                seq = seq[turn:] + seq[:turn]
            entries.append(seq)
        if draw(st.integers(0, 3)):
            entries.sort()
        if entries and not draw(st.integers(0, 3)):
            entries.append(draw(st.sampled_from(entries)))
        try:
            cat = ObstacleCatalogue(par, size, method, tuple(entries))
        except FormatError:
            return
        assert parse_catalogue(format_catalogue(cat)) == cat


class TestCatalogueFormat:
    def test_labels(self):
        assert format_cycle_labels((1, 1, 5)) == "115"
        assert format_cycle_labels((1, 2, 10)) == "1,2,10"
        assert format_cycle_labels((1, 2, -3)) == "1,2,-3"
        assert format_cycle_labels((0, 9, 9)) == "099"
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

    @pytest.mark.parametrize("text, message", [
        ("", "empty catalogue"),
        ("catalogue 6 x 15 3 exhaustive\n", "non-integer field in catalogue header"),
        # a negative label is quoted in the comma form it was written in
        ("catalogue 6 2 15 3 exhaustive\n1,2,-3\n",
         r"cycle '1,2,-3' has a label outside 1\.\.6"),
    ])
    def test_parse_errors_quote_the_file(self, text, message):
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_catalogue(text)

    @pytest.mark.parametrize("text, message", [
        ("", "empty cycle line"),
        ("1,a", "bad cycle line '1,a'"),
    ])
    def test_parse_cycle_labels_rejects(self, text, message):
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_cycle_labels(text)

    def test_parse_rejects_unacceptable_params(self):
        with pytest.raises(ParameterError, match="k exceeds delta"):
            parse_catalogue("catalogue 6 7 15 5 exhaustive\n")
