"""Parameters of the bounded metric classes and the fork machinery.

A class of finite integer metric spaces is described by three integers:
``delta`` bounds every distance, every triangle perimeter must stay strictly
below ``c``, and every odd triangle perimeter must be at least ``2*k + 1``.
This module validates parameter triples, classifies distance triples against
the three constraints (once per triple, into a cached status table), computes
the magic distances, and builds the fork families and insertion schedule that
drive the completion engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping

from .errors import ParameterError, RangeError

Fork = tuple[int, int]


@dataclass(frozen=True)
class Params:
    """Class parameters.

    Distances live in 1..delta.  Acceptability requires delta >= 2,
    1 <= k <= delta and 2*delta + k < c <= 3*delta + 1.  Construction raises
    ParameterError for an unacceptable triple, so every Params is acceptable
    and nothing downstream checks it again.
    """

    delta: int
    k: int
    c: int

    def __post_init__(self):
        check = validate_params(self.delta, self.k, self.c)
        if not check.accepted:
            raise ParameterError(
                f"unacceptable parameters delta={self.delta} k={self.k} "
                f"c={self.c}: {check.reason}"
            )


@dataclass(frozen=True)
class ParamCheck:
    accepted: bool
    reason: str | None = None


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def validate_params(delta, k, c) -> ParamCheck:
    """Check a parameter triple, reporting the first violated clause."""
    for name, value in (("delta", delta), ("k", k), ("c", c)):
        if not _is_positive_int(value):
            return ParamCheck(False, f"{name} must be a positive integer")
    if delta < 2:
        return ParamCheck(False, "delta must be at least 2")
    if k > delta:
        return ParamCheck(False, "k exceeds delta")
    if c <= 2 * delta + k:
        return ParamCheck(False, f"c must exceed 2*delta + k = {2 * delta + k}")
    if c > 3 * delta + 1:
        return ParamCheck(False, f"c exceeds 3*delta + 1 = {3 * delta + 1}")
    return ParamCheck(True)


class TriangleStatus(Enum):
    ALLOWED = "allowed"
    NON_METRIC = "non-metric"
    ODD_SHORT = "odd-short"
    LONG_PERIMETER = "long-perimeter"


def _check_distance(value, params: Params) -> None:
    if not _is_positive_int(value) or value > params.delta:
        raise RangeError(f"distance {value!r} outside 1..{params.delta}")


def classify_triangle(a: int, b: int, c: int, params: Params) -> TriangleStatus:
    """Classify one distance triple against the three class constraints.

    The order is fixed: a triple failing several predicates reports the first
    of non-metric, odd-short, long-perimeter.  Symmetric in a, b, c.
    """
    for value in (a, b, c):
        _check_distance(value, params)
    perimeter = a + b + c
    if 2 * max(a, b, c) > perimeter:
        return TriangleStatus.NON_METRIC
    if perimeter % 2 == 1 and perimeter < 2 * params.k + 1:
        return TriangleStatus.ODD_SHORT
    if perimeter >= params.c:
        return TriangleStatus.LONG_PERIMETER
    return TriangleStatus.ALLOWED


@lru_cache(maxsize=None)
def _status_table(params: Params) -> list[list[list[TriangleStatus | None]]]:
    """status[a][b][c] = classify_triangle(a, b, c, params) over 0..delta,
    None wherever an index is 0.

    A label above delta makes the lookup raise IndexError; callers then call
    classify_triangle, which raises RangeError.
    """
    span = range(params.delta + 1)
    return [
        [
            [classify_triangle(a, b, c, params) if a and b and c else None for c in span]
            for b in span
        ]
        for a in span
    ]


def magic_distances(params: Params) -> tuple[int, ...]:
    """All magic distances, ascending.

    A distance m is magic when max(k, ceil(delta/2)) <= m <= (c-delta-1)//2.
    Equivalently, the triangle (m, m, b) is allowed for every b; the tests
    check this closed form against a classify_triangle sweep.  Nonempty for
    every acceptable triple.
    """
    low = max(params.k, (params.delta + 1) // 2)
    high = (params.c - params.delta - 1) // 2
    return tuple(range(low, high + 1))


def require_magic(magic: int, params: Params) -> None:
    if not _is_positive_int(magic) or magic not in magic_distances(params):
        choices = " ".join(str(m) for m in magic_distances(params))
        raise ParameterError(f"{magic} not magic (magic distances: {choices})")


def default_magic(params: Params) -> int:
    """The magic distance used when a caller does not pick one: the maximum."""
    return magic_distances(params)[-1]


def fork_range(a: int, b: int, params: Params) -> tuple[int, ...]:
    """All distances that close the fork (a, b) into an allowed triangle."""
    _check_distance(a, params)
    _check_distance(b, params)
    row = _status_table(params)[a][b]
    allowed = TriangleStatus.ALLOWED
    return tuple(x for x in range(1, params.delta + 1) if row[x] is allowed)


def fork_choice(a: int, b: int, magic: int, params: Params) -> int:
    """The completion the engine picks for the fork (a, b): the allowed
    distance nearest to magic (see ForkFamilies.choice)."""
    choice = fork_families(magic, params).choice
    _check_distance(a, params)
    _check_distance(b, params)
    return choice[(a, b)]


def time_function(x: int, magic: int, delta: int) -> int:
    """Insertion rank of distance x: 2x - 1 below magic, 2*(delta - x) above.

    The magic distance has no rank; it is filled in the final step.
    """
    if not _is_positive_int(x) or x > delta:
        raise RangeError(f"distance {x!r} outside 1..{delta}")
    if x == magic:
        raise RangeError("the magic distance has no rank; it is filled last")
    if x < magic:
        return 2 * x - 1
    return 2 * (delta - x)


@dataclass(frozen=True)
class ForkFamilies:
    """The fork choices and insertion schedule of one magic distance.

    ``choice[(a, b)]`` is the allowed distance nearest to magic for every fork
    (a, b) over 1..delta.  The allowed values on or above magic form a
    gap-free run, so the nearest value is unique: magic itself when allowed,
    otherwise the endpoint of the allowed range facing magic.

    ``schedule`` lists ``(rank, distance, forks)`` by ascending rank, for each
    distance other than magic that some fork's choice inserts.  Below magic
    the forks are the sum and cap forks of the distance, above magic its
    difference forks; forks whose choice is magic are filled in the final step.

    ``bad[a][b][c]`` is the status table with ALLOWED read as None: the
    status of a forbidden triangle, None for an allowed one or where an index
    is 0.  It does not depend on magic; it is kept here so that no second
    cache keyed on Params is needed.
    """

    magic: int
    choice: Mapping[Fork, int]
    schedule: tuple[tuple[int, int, frozenset[Fork]], ...]
    bad: tuple[tuple[tuple[TriangleStatus | None, ...], ...], ...]

    def family(self, x: int) -> frozenset[Fork]:
        """The forks whose presence inserts distance x (empty if none do)."""
        for _, distance, forks in self.schedule:
            if distance == x:
                return forks
        return frozenset()


@lru_cache(maxsize=None, typed=True)
def fork_families(magic: int | None, params: Params) -> ForkFamilies:
    """Resolve, validate and expand a magic distance.

    ``None`` means default_magic(params); anything that is not a magic
    distance raises ParameterError.  This is the one place a magic distance
    is checked.  Cached per (magic, params), with 4 and 4.0 kept apart.
    """
    if magic is None:
        magic = default_magic(params)
    require_magic(magic, params)
    delta = params.delta
    choice = {}
    inserted: dict[int, set[Fork]] = {}
    for a in range(1, delta + 1):
        for b in range(1, delta + 1):
            x = min(fork_range(a, b, params), key=lambda y: (abs(y - magic), y))
            choice[(a, b)] = x
            if x != magic:
                inserted.setdefault(x, set()).add((a, b))
    schedule = tuple(sorted(
        (time_function(x, magic, delta), x, frozenset(forks))
        for x, forks in inserted.items()
    ))
    allowed = TriangleStatus.ALLOWED
    bad = tuple(
        tuple(tuple(None if s is allowed else s for s in row) for row in plane)
        for plane in _status_table(params)
    )
    return ForkFamilies(magic=magic, choice=choice, schedule=schedule, bad=bad)
