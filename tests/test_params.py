"""Parameter validation, triangle classification, magic distances, forks."""

import copy
import dataclasses
import itertools
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from metric_completer import (
    CapacityError,
    EdgeLabelledGraph,
    ForkFamilies,
    ParameterError,
    Params,
    RangeError,
    TriangleStatus,
    classify_triangle,
    default_magic,
    fork_choice,
    fork_families,
    fork_range,
    magic_distances,
    require_magic,
    time_function,
    validate_params,
)
from metric_completer.graphs import violations
from metric_completer.params import MAX_DELTA, _triangle_table

from oracles import families_oracle, family_tag_oracle, magic_oracle

PAR = Params(6, 2, 15)


def acceptable_triples(delta_max):
    for d in range(2, delta_max + 1):
        for k in range(1, d + 1):
            for c in range(2 * d + k + 1, 3 * d + 2):
                yield Params(d, k, c)


class TestValidate:
    def test_accepts_reference_triple(self):
        assert validate_params(6, 2, 15).accepted
        assert validate_params(6, 2, 15).reason is None

    def test_accepts_all_boundary_triples(self):
        # both C endpoints, K = delta, smallest delta
        for d, k, c in [(2, 1, 6), (2, 2, 7), (6, 6, 19), (6, 1, 14)]:
            assert validate_params(d, k, c).accepted, (d, k, c)

    @pytest.mark.parametrize(
        "d,k,c,reason",
        [
            (1, 1, 4, "delta must be at least 2"),
            (6, 7, 15, "k exceeds delta"),
            (6, 2, 14, "c must exceed 2*delta + k = 14"),
            (6, 2, 20, "c exceeds 3*delta + 1 = 19"),
            (0, 1, 4, "delta must be a positive integer"),
            (6, 0, 15, "k must be a positive integer"),
            (6, 2, -1, "c must be a positive integer"),
        ],
    )
    def test_rejections_report_first_clause(self, d, k, c, reason):
        check = validate_params(d, k, c)
        assert not check.accepted
        assert check.reason == reason

    def test_non_integers_rejected(self):
        assert not validate_params(6.0, 2, 15).accepted
        assert not validate_params(6, True, 15).accepted
        assert not validate_params("6", 2, 15).accepted

    def test_require_acceptable_raises(self):
        # construction is the only check: an unacceptable triple never exists
        with pytest.raises(ParameterError) as exc:
            Params(6, 7, 15)
        assert str(exc.value) == (
            "unacceptable parameters delta=6 k=7 c=15: k exceeds delta"
        )
        assert Params(6, 2, 15) == PAR


class TestParamsHash:
    """Params computes its hash once, when built; it must stay the hash of
    an equal triple through every way a Params is copied or rebuilt."""

    def test_equal_triples_hash_equal(self):
        for par in acceptable_triples(6):
            twin = Params(par.delta, par.k, par.c)
            assert twin == par and hash(twin) == hash(par)
            assert hash(par) == hash((par.delta, par.k, par.c))
        assert len({Params(6, 2, 15), Params(6, 2, 15), Params(6, 2, 16)}) == 2

    def test_copies_keep_equality_and_hash(self):
        for par in (PAR, Params(2, 1, 6), Params(100, 1, 202)):
            for twin in (
                copy.copy(par),
                copy.deepcopy(par),
                pickle.loads(pickle.dumps(par)),
                dataclasses.replace(par),
            ):
                assert twin == par and hash(twin) == hash(par)
        moved = dataclasses.replace(PAR, c=16)
        assert moved == Params(6, 2, 16) and hash(moved) == hash(Params(6, 2, 16))
        assert moved != PAR

    def test_still_frozen(self):
        par = Params(6, 2, 15)
        for name, value in (("delta", 7), ("k", 3), ("c", 16)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(par, name, value)
        assert par == PAR and hash(par) == hash(PAR)

    def test_repr_and_fields_unchanged(self):
        assert repr(PAR) == "Params(delta=6, k=2, c=15)"
        assert [f.name for f in dataclasses.fields(PAR)] == ["delta", "k", "c"]
        assert dataclasses.astuple(PAR) == (6, 2, 15)


class TestClassify:
    @pytest.mark.parametrize(
        "triple,status",
        [
            ((1, 1, 2), TriangleStatus.ALLOWED),
            ((1, 3, 5), TriangleStatus.NON_METRIC),
            ((1, 1, 3), TriangleStatus.NON_METRIC),
            ((1, 1, 1), TriangleStatus.ODD_SHORT),
            ((5, 5, 5), TriangleStatus.LONG_PERIMETER),
            ((3, 6, 6), TriangleStatus.LONG_PERIMETER),
            ((4, 4, 4), TriangleStatus.ALLOWED),
        ],
    )
    def test_reference_triples(self, triple, status):
        assert classify_triangle(*triple, PAR) is status

    def test_precedence_non_metric_first(self):
        # 1,1,6 is both non-metric and long (perimeter 8 < 15, so craft one)
        # at (2,2,7): 1,1,2 has odd perimeter... use (2,1,7): triple 2,2,...
        # direct check: a triple violating metric and parity reports non-metric
        par = Params(6, 6, 19)
        # 1,1,5: perimeter 7 odd < 13 and 10 > 7
        assert classify_triangle(1, 1, 5, par) is TriangleStatus.NON_METRIC

    def test_precedence_matches_independent_predicates(self):
        # recompute the three predicates directly; the status must be the
        # first one that fires.  Only non-metric and odd-short can overlap:
        # a long perimeter needs c <= perimeter < 2k+1 <= 2*delta+k < c.
        for par in acceptable_triples(5):
            for t in itertools.product(range(1, par.delta + 1), repeat=3):
                per = sum(t)
                flags = [
                    2 * max(t) > per,
                    per % 2 == 1 and per < 2 * par.k + 1,
                    per >= par.c,
                ]
                order = [
                    TriangleStatus.NON_METRIC,
                    TriangleStatus.ODD_SHORT,
                    TriangleStatus.LONG_PERIMETER,
                ]
                expect = next(
                    (s for s, f in zip(order, flags) if f), TriangleStatus.ALLOWED
                )
                assert classify_triangle(*t, par) is expect, (par, t)
                assert not (flags[1] and flags[2]), (par, t)
                assert not (flags[0] and flags[2]), (par, t)

    @given(
        st.permutations([0, 1, 2]),
        st.tuples(
            st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
        ),
    )
    def test_symmetric_in_all_arguments(self, perm, triple):
        shuffled = tuple(triple[i] for i in perm)
        assert classify_triangle(*shuffled, PAR) is classify_triangle(*triple, PAR)

    def test_out_of_range_distance(self):
        with pytest.raises(RangeError):
            classify_triangle(0, 1, 1, PAR)
        with pytest.raises(RangeError):
            classify_triangle(1, 7, 1, PAR)

    def test_unacceptable_params_rejected(self):
        with pytest.raises(ParameterError):
            classify_triangle(1, 1, 1, Params(6, 7, 15))

    def test_triangle_table_matches_classify_triangle(self):
        # the one cached table that violations, fork_range, the decider and
        # the oracle read in place of classify_triangle; its size matters
        # too, because a label above delta must miss it to reach
        # classify_triangle's check
        allowed = TriangleStatus.ALLOWED
        for par in acceptable_triples(8):
            bad, forbidden = _triangle_table(par)
            span = range(par.delta + 1)
            assert len(bad) == len(forbidden) == len(span), par
            assert all(len(row) == len(span) for plane in bad for row in plane), par
            for a, b, c in itertools.product(span, repeat=3):
                if a and b and c and classify_triangle(a, b, c, par) is not allowed:
                    assert bad[a][b][c] is classify_triangle(a, b, c, par), (par, a, b, c)
                else:
                    assert bad[a][b][c] is None, (par, a, b, c)
            for a in span:
                # forbidden[a]: ascending c, each with the ascending b that
                # bad forbids beside (a, c), and no c that forbids nothing
                cs = [c for c, _ in forbidden[a]]
                assert cs == sorted(set(cs)), (par, a)
                assert all(bs and list(bs) == sorted(set(bs)) for _, bs in forbidden[a])
                listed = {(b, c) for c, bs in forbidden[a] for b in bs}
                marked = {
                    (b, c)
                    for b, c in itertools.product(span, repeat=2)
                    if bad[a][b][c] is not None
                }
                assert listed == marked, (par, a)


class TestTriangleTable:
    def test_one_table_per_class(self):
        # in a fresh interpreter: an engine run caches one table and the
        # ForkFamilies of its magic; violations and the oracle need no magic
        script = (
            "from metric_completer import EdgeLabelledGraph, Params, complete_magic, "
            "fork_families, oracle_complete, violations\n"
            "from metric_completer.params import _triangle_table\n"
            "g = EdgeLabelledGraph(3, [(0, 1, 1), (1, 2, 1)])\n"
            "complete_magic(g, Params(6, 2, 15), 3)\n"
            "print(_triangle_table.cache_info().currsize, fork_families.cache_info().currsize)\n"
            "violations(g, Params(5, 1, 12))\n"
            "oracle_complete(g, Params(4, 1, 10))\n"
            "print(_triangle_table.cache_info().currsize, fork_families.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "1 1\n3 1\n"

    @pytest.mark.parametrize(
        "par", [Params(MAX_DELTA + 1, 1, 2 * MAX_DELTA + 4), Params(10**9, 1, 3 * 10**9 + 1)]
    )
    def test_no_table_above_the_cap(self, par):
        # the table is asked for before the magic distance is resolved, so
        # no list of magic distances is built either
        cached = _triangle_table.cache_info().currsize
        message = f"delta={par.delta} exceeds the cap of {MAX_DELTA}"
        for call in (
            lambda: _triangle_table(par),
            lambda: fork_families(None, par),
            lambda: fork_families(5, par),
            lambda: fork_range(1, 1, par),
            lambda: violations(EdgeLabelledGraph(3, [(0, 1, 1)]), par),
        ):
            with pytest.raises(CapacityError, match=f"^{message}$"):
                call()
        assert _triangle_table.cache_info().currsize == cached


class TestMagic:
    def test_reference_values(self):
        assert magic_distances(PAR) == (3, 4)
        assert magic_distances(Params(2, 1, 7)) == (1, 2)
        assert magic_distances(Params(3, 1, 10)) == (2, 3)

    def test_matches_oracle_exhaustively(self):
        # closed form against the classify_triangle sweep, delta <= 8
        for par in acceptable_triples(8):
            assert magic_distances(par) == magic_oracle(par), par

    def test_nonempty_for_every_acceptable_triple(self):
        for par in acceptable_triples(8):
            assert magic_distances(par), par

    def test_default_is_maximum(self):
        assert default_magic(PAR) == 4
        assert default_magic(Params(2, 1, 7)) == 2

    def test_is_magic_and_require(self):
        require_magic(3, PAR)
        require_magic(4, PAR)
        with pytest.raises(ParameterError, match="2 not magic"):
            require_magic(2, PAR)
        with pytest.raises(ParameterError, match=r"5 not magic \(magic distances: 3 4\)"):
            require_magic(5, PAR)


class TestForkRange:
    def test_reference_rows(self):
        assert fork_range(1, 1, PAR) == (2,)
        assert fork_range(1, 2, PAR) == (1, 2, 3)
        assert fork_range(6, 6, PAR) == (1, 2)
        assert fork_range(2, 4, PAR) == (2, 3, 4, 5, 6)

    def test_symmetric(self):
        for a, b in itertools.product(range(1, 7), repeat=2):
            assert fork_range(a, b, PAR) == fork_range(b, a, PAR)

    def test_nonempty_for_acceptable_params(self):
        for par in acceptable_triples(6):
            for a, b in itertools.product(range(1, par.delta + 1), repeat=2):
                assert fork_range(a, b, par), (par, a, b)

    def test_interior_gaps_only_below_magic(self):
        # the allowed values of a fork are contiguous from the lowest magic
        # distance upward; parity holes can only puncture the range below it
        for par in acceptable_triples(6):
            low = magic_distances(par)[0]
            for a, b in itertools.product(range(1, par.delta + 1), repeat=2):
                upper = [x for x in fork_range(a, b, par) if x >= low]
                if upper:
                    assert upper == list(range(upper[0], upper[-1] + 1)), (par, a, b)

    def test_gap_below_magic_exists(self):
        # regression: at (6,5,18) the fork (1,2) allows 1 and 3 but not 2,
        # so the full range is not an interval
        par = Params(6, 5, 18)
        assert magic_distances(par) == (5,)
        assert fork_range(1, 2, par) == (1, 3)
        assert classify_triangle(1, 2, 2, par) is TriangleStatus.ODD_SHORT


class TestForkChoice:
    def test_reference_choices(self):
        assert fork_choice(1, 1, 4, PAR) == 2
        assert fork_choice(1, 2, 4, PAR) == 3
        assert fork_choice(1, 6, 4, PAR) == 5
        assert fork_choice(5, 6, 4, PAR) == 3
        assert fork_choice(2, 3, 4, PAR) == 4
        assert fork_choice(1, 1, 3, PAR) == 2

    def test_choice_lies_in_range(self):
        for par in acceptable_triples(6):
            for magic in magic_distances(par):
                for a, b in itertools.product(range(1, par.delta + 1), repeat=2):
                    assert fork_choice(a, b, magic, par) in fork_range(a, b, par)

    def test_choice_is_unique_minimizer(self):
        for par in acceptable_triples(6):
            for magic in magic_distances(par):
                for a, b in itertools.product(range(1, par.delta + 1), repeat=2):
                    allowed = fork_range(a, b, par)
                    best = min(abs(x - magic) for x in allowed)
                    ties = [x for x in allowed if abs(x - magic) == best]
                    assert len(ties) == 1, (par, magic, a, b)
                    assert fork_choice(a, b, magic, par) == ties[0]

    def test_equals_case_analysis(self):
        # nearest-to-magic equals the four-way rule: the sum when it falls
        # short of magic, the difference when it exceeds magic, the capped
        # value c - 1 - a - b when that falls short, magic otherwise
        for par in acceptable_triples(6):
            for magic in magic_distances(par):
                for a, b in itertools.product(range(1, par.delta + 1), repeat=2):
                    if a + b < magic:
                        expect = a + b
                    elif abs(a - b) > magic:
                        expect = abs(a - b)
                    elif par.c - 1 - a - b < magic:
                        expect = par.c - 1 - a - b
                    else:
                        expect = magic
                    assert fork_choice(a, b, magic, par) == expect, (par, magic, a, b)

    def test_requires_magic(self):
        with pytest.raises(ParameterError):
            fork_choice(1, 1, 5, PAR)

    def test_rejects_non_integer_magic(self):
        # True == 1 and 4.0 == 4 are magic values by equality; the cache is
        # warmed with the integers first so that it cannot answer for them
        for par, magic, fake in ((Params(2, 1, 7), 1, True), (PAR, 4, 4.0)):
            fork_choice(1, 1, magic, par)
            with pytest.raises(ParameterError, match=rf"{fake} not magic"):
                fork_choice(1, 1, fake, par)

    def test_out_of_range_fork(self):
        with pytest.raises(RangeError):
            fork_choice(7, 1, 4, PAR)


class TestTimeFunction:
    def test_reference_ranks(self):
        # magic 4, delta 6: distances 1,2,3 at odd ranks, 5,6 at even ranks
        assert [time_function(x, 4, 6) for x in (1, 2, 3, 5, 6)] == [1, 3, 5, 2, 0]

    def test_magic_has_no_rank(self):
        with pytest.raises(RangeError, match="filled last"):
            time_function(4, 4, 6)

    def test_injective_over_ranks(self):
        for par in acceptable_triples(8):
            for magic in magic_distances(par):
                ranks = [
                    time_function(x, magic, par.delta)
                    for x in range(1, par.delta + 1)
                    if x != magic
                ]
                assert len(ranks) == len(set(ranks)), (par, magic)

    def test_delta_rank_zero_when_magic_below_delta(self):
        # rank 0 precedes the first step; harmless because no fork has
        # difference delta
        assert time_function(6, 4, 6) == 0
        assert time_function(5, 4, 5) == 0

    def test_distance_at_rank_inverts(self):
        # the schedule lists each inserted distance once, at its rank, in
        # rank order; rank 0 (delta above magic) never carries a fork
        for par in acceptable_triples(8):
            for magic in magic_distances(par):
                schedule = fork_families(magic, par).schedule
                ranks = [rank for rank, _, _ in schedule]
                assert ranks == sorted(set(ranks)), (par, magic)
                assert all(rank >= 1 for rank in ranks), (par, magic)
                for rank, x, forks in schedule:
                    assert time_function(x, magic, par.delta) == rank
                    assert forks, (par, magic, x)
                if magic < par.delta:
                    assert par.delta not in [x for _, x, _ in schedule]

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            time_function(0, 4, 6)
        with pytest.raises(RangeError):
            time_function(7, 4, 6)


class TestForkFamilies:
    def test_reference_families(self):
        fams = fork_families(4, PAR)
        assert fams.family(5) == {(1, 6), (6, 1)}
        assert fams.family(2) == {(1, 1), (6, 6)}
        assert fams.family(3) == {(1, 2), (2, 1), (5, 6), (6, 5)}
        assert fams.family(1) == frozenset()

    def test_buckets_match_generating_rules(self):
        for par in acceptable_triples(6):
            for magic in magic_distances(par):
                fams = fork_families(magic, par)
                expected = families_oracle(magic, par)
                for x, forks in expected.items():
                    assert fams.family(x) == forks, (par, magic, x)
                assert {x: forks for _, x, forks in fams.schedule} == {
                    x: forks for x, forks in expected.items() if forks
                }, (par, magic)

    def test_family_split_at_magic(self):
        # every fork sits in the family its choice names: the sum or cap
        # family below magic, the difference family above, none at magic
        fams = fork_families(4, PAR)
        expected = families_oracle(4, PAR)
        for fork, x in fams.choice.items():
            if x == 4:
                assert all(fork not in forks for forks in expected.values())
            else:
                assert fork in fams.family(x) and fork in expected[x]
                a, b = fork
                if x < 4:
                    assert x in (a + b, PAR.c - 1 - a - b)
                else:
                    assert x == abs(a - b)

    def test_no_fork_for_difference_delta(self):
        # |a - b| <= delta - 1, so the difference family of delta is empty
        for par in acceptable_triples(6):
            for magic in magic_distances(par):
                if magic < par.delta:
                    assert not families_oracle(magic, par)[par.delta]
                    assert not fork_families(magic, par).family(par.delta)

    def test_empty_buckets_are_kept(self):
        # the schedule skips a distance no fork inserts, and family() answers
        # it with the empty set
        fams = fork_families(4, PAR)
        expected = families_oracle(4, PAR)
        assert set(expected) == {1, 2, 3, 5, 6}
        assert [x for _, x, _ in fams.schedule] == [5, 2, 3]
        for x, forks in expected.items():
            assert fams.family(x) == forks
        assert fams.family(1) == frozenset()
        assert isinstance(fams, ForkFamilies)

    def test_no_fork_has_its_own_distance_as_an_arm(self):
        # complete_magic lands each insertion of a rank at once: a pair just
        # filled with x can only be a witness arm if some fork of family(x)
        # has x as an arm
        for par in acceptable_triples(8):
            for magic in magic_distances(par):
                for _, x, forks in fork_families(magic, par).schedule:
                    assert all(x not in fork for fork in forks), (par, magic, x)

    def test_at_most_one_rule_per_fork(self):
        # a fork generates its distance through only one of the three rules,
        # and sits in only one family, so insertion is unambiguous
        for par in acceptable_triples(6):
            for magic in magic_distances(par):
                fams = fork_families(magic, par)
                seen = set()
                for _, x, forks in fams.schedule:
                    assert not (seen & forks), (par, magic, x)
                    seen |= forks
                    for a, b in forks:
                        rules = [a + b == x, abs(a - b) == x, par.c - 1 - a - b == x]
                        assert rules.count(True) == 1, (par, magic, x, (a, b))

    def test_tag_matches_generating_rules(self):
        # every scheduled fork carries the family of the one distance it
        # inserts, its choice, read off the generating rules
        for par in acceptable_triples(6):
            for magic in magic_distances(par):
                fams = fork_families(magic, par)
                scheduled = {fork for _, _, forks in fams.schedule for fork in forks}
                assert set(fams.tag) == scheduled, (par, magic)
                for (a, b), family in fams.tag.items():
                    x = fams.choice[(a, b)]
                    assert (a, b) in fams.family(x)
                    assert family is family_tag_oracle(a, b, x, par), (par, magic, (a, b))
