"""Command-line front end.

Subcommands: magic (parameter summary and insertion schedule), forks (the
completion table), complete (run the engine on a graph file), obstacles
(catalogue of non-completable cycles), trace-obstacle (back-trace a failed
completion to a witness).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext, suppress
from itertools import compress, islice
from operator import getitem

from .completion import CompletionStatus, Family, complete_magic
from .errors import (
    DEFAULT_BUDGET,
    CapacityError,
    FormatError,
    ParameterError,
    PreconditionError,
    RangeError,
)
from .graphs import parse_graph
from .obstacles import (
    METHODS,
    enumerate_obstacle_cycles,
    format_catalogue,
    format_cycle_labels,
    obstacle_trace,
    verify_catalogue,
)
from .params import Params, fork_families, fork_range, magic_distances

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_CAPACITY = 3
EXIT_PRECONDITION = 4

# The exit code of each error class that main reports
_EXIT_CODES = {CapacityError: EXIT_CAPACITY, PreconditionError: EXIT_PRECONDITION,
               ParameterError: EXIT_USAGE, RangeError: EXIT_USAGE,
               FormatError: EXIT_USAGE, OSError: EXIT_USAGE}


class _Parser(argparse.ArgumentParser):
    """argparse front end that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_graph(args):
    """The params and graph in the file ``args.graph``, or on stdin for -,
    read as bytes and decoded as UTF-8 once; a closed stdin is refused, and
    --delta, --k and --c, each taken from the file when not given, must
    agree with the file's params."""
    path = args.graph
    if path == "-":
        if sys.stdin is None:
            raise OSError("-: stdin is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    params, g = parse_graph(text)
    stored = (params.delta, params.k, params.c)
    flags = (args.delta, args.k, args.c)
    given = tuple(s if x is None else x for x, s in zip(flags, stored))
    if given != stored:
        raise ParameterError(
            f"parameters {' '.join(map(str, given))} disagree with the graph "
            f"file ({' '.join(map(str, stored))})"
        )
    return params, g


def cmd_magic(args) -> int:
    params = Params(args.delta, args.k, args.c)
    families = fork_families(args.magic, params)
    magic = families.magic
    print("magic:", " ".join(str(m) for m in magic_distances(params)))
    print(f"M = {magic}")
    for rank, x, fam in families.schedule:
        forks = sorted({(min(f), max(f)) for f in fam})
        shown = " ".join(f"({a},{b})" for a, b in forks)
        print(f"rank {rank}: distance {x} from forks {shown}")
    print(f"final: distance {magic} for every remaining pair")
    return EXIT_OK


def cmd_forks(args) -> int:
    params = Params(args.delta, args.k, args.c)
    families = fork_families(args.magic, params)
    magic = families.magic
    print(f"forks for delta={params.delta} k={params.k} c={params.c} M={magic}")
    for a in range(1, params.delta + 1):
        for b in range(a, params.delta + 1):
            allowed = fork_range(a, b, params)
            choice = families.choice[(a, b)]
            cell = " ".join(f"{x}*" if x == choice else str(x) for x in allowed)
            print(f"({a},{b}): {cell}")
    return EXIT_OK


# Records or lines per chunk of output: large enough that writes cost little,
# small enough that a chunk stays far below the whole payload.
_JSON_CHUNK = 4096


def _lines(lines):
    """Yield ``lines``, each ended by a newline, _JSON_CHUNK to a piece."""
    lines = iter(lines)
    while chunk := list(islice(lines, _JSON_CHUNK)):
        yield "\n".join(chunk) + "\n"


def _numerals(trace, params) -> list[str]:
    """The decimal text of each vertex and label of ``trace``, indexed by
    number, for the writers to look up instead of formatting each number
    again."""
    return list(map(str, range(max(trace.vertex_count, params.delta + 1))))


def _complete_text(params, magic, result):
    """Yield the text of ``complete`` in pieces of whole lines, each line
    ended by a newline, so that the whole text is never held at once."""
    trace = result.trace
    yield f"params delta={params.delta} k={params.k} c={params.c} M={magic}\n"
    yield from _lines(step.describe() for step in trace.listed_steps)
    numerals = _numerals(trace, params)
    for _, distance, u, flags in trace.final_rows():
        # TraceStep.describe() of each magic-filled step of the row
        head, tail = f"final: ({u},", f") = {distance}\n"
        yield head + (tail + head).join(compress(numerals, flags)) + tail
    yield result.status.value + "\n"
    yield from _lines("violation: " + v.describe() for v in result.violations)


# The JSON payload of `complete`, written from string templates in the layout
# of json.dumps(payload, indent=2), without the json module: importing it
# added 1.6-1.9 ms to every start of the command line.  Every string in it is
# an enum value of plain ASCII, which needs no escaping.  A record's first
# line has no indent: the list that holds it supplies one (_json_list).
_JSON_HEAD = """\
{
  "params": {
    "delta": %d,
    "k": %d,
    "c": %d
  },
  "magic": %d,
  "status": "%s",
  "steps": """
_JSON_STEP = """\
{
      "rank": %d,
      "distance": %d,
      "u": %d,
      "v": %d,
      "witness": %s,
      "fork": %s,
      "family": "%s"
    }"""
# _JSON_STEP split at its last %d, the value of "v", for the magic-filled rows
_JSON_STEP_HEAD, _JSON_STEP_TAIL = _JSON_STEP.rsplit("%d", 1)
_JSON_FINAL_TAIL = _JSON_STEP_TAIL % ("null", "null", Family.FINAL.value)
_JSON_FORK = """\
[
        %d,
        %d
      ]"""
_JSON_EDGE = """\
[
      %d,
      %d,
      %d
    ]"""
# _JSON_EDGE split around its values: a row's records share the text up to
# v, and what follows depends only on v and d
_JSON_EDGE_OPEN, _JSON_EDGE_U, _JSON_EDGE_V, _JSON_EDGE_CLOSE = _JSON_EDGE.split("%d")
_JSON_VIOLATION = """\
{
      "vertices": [
        %d,
        %d,
        %d
      ],
      "distances": [
        %d,
        %d,
        %d
      ],
      "status": "%s"
    }"""

def _json_list(runs):
    """Yield a JSON list at the payload's top level, one piece per run.

    ``runs`` yields ``(head, values)``: one record ``head + value`` per
    string in ``values``.  Each piece is one join over a run's records, led
    by the bracket or comma before them; a run of more than _JSON_CHUNK
    records is split into pieces of at most _JSON_CHUNK.
    """
    sep = ",\n    "
    lead = "[\n    "  # what the next piece starts with
    for head, values in runs:
        joint = sep + head
        values = iter(values)
        while take := list(islice(values, _JSON_CHUNK)):
            yield lead + head + joint.join(take)
            lead = sep
    yield "[]" if lead != sep else "\n  ]"


def _json_steps(trace, numerals):
    """The runs of _json_list for the trace's steps: one run of the listed
    steps, a whole _JSON_STEP record each, then one run per row of
    magic-filled steps, whose values are ``numerals[v]`` each followed by
    _JSON_FINAL_TAIL, the rest of the record, which is the same for all."""
    yield "", (
        _JSON_STEP % (*step[:4], "null" if step.witness is None else step.witness,
                      "null" if step.fork is None else _JSON_FORK % step.fork,
                      step.family.value)
        for step in trace.listed_steps
    )
    final_values = [x + _JSON_FINAL_TAIL for x in numerals]
    for rank, distance, u, flags in trace.final_rows():
        yield _JSON_STEP_HEAD % (rank, distance, u), compress(final_values, flags)


def _json_edges(trace, numerals):
    """The runs of _json_list for the trace's edges, one per row.  The text
    of an edge after u depends only on v and d; it is looked up in a table
    of each label in use, built on the label's first edge."""
    after_u = [None] * len(numerals)  # label d -> the text after u, by v
    vertices = numerals[:trace.vertex_count]
    for u, vs, ds in trace.edge_rows():
        for d in set(ds):
            if after_u[d] is None:
                tail = _JSON_EDGE_V + numerals[d] + _JSON_EDGE_CLOSE
                after_u[d] = [v + tail for v in vertices]
        head = _JSON_EDGE_OPEN + numerals[u] + _JSON_EDGE_U
        yield head, map(getitem, map(after_u.__getitem__, ds), vs)


def _complete_json(params, magic, result):
    """Yield the JSON payload of ``complete``, ended by a newline, in pieces,
    so that the whole text is never held at once."""
    trace = result.trace
    yield _JSON_HEAD % (params.delta, params.k, params.c, magic, result.status.value)
    numerals = _numerals(trace, params)
    yield from _json_list(_json_steps(trace, numerals))
    yield ',\n  "edges": '
    yield from _json_list(_json_edges(trace, numerals))
    yield ',\n  "violations": '
    yield from _json_list([("", (
        _JSON_VIOLATION % (*v.vertices, *v.distances, v.status.value)
        for v in result.violations
    ))])
    yield "\n}\n"


def _complete_dot(params, magic, result):
    """Yield the dot text of ``complete`` in pieces of whole lines, each
    line ended by a newline, one piece per row of edges."""
    trace = result.trace
    ranks = {(s.u, s.v): s.rank for s in trace.listed_steps}
    fills = trace.final_rows()
    fill = next(fills, None)
    yield "graph completion {\n"
    for u, vs, ds in trace.edge_rows():
        flags, final_rank = b"", None
        if fill is not None and fill[2] == u:
            final_rank, flags = fill[0], fill[3]
            fill = next(fills, None)
        lines = []
        for v, d in zip(vs, ds):
            rank = final_rank if v < len(flags) and flags[v] else ranks.get((u, v))
            if rank is None:
                lines.append(f"  {u} -- {v} [label={d}];\n")
            else:
                lines.append(f"  {u} -- {v} [label={d}, rank={rank}, style=dashed];\n")
        yield "".join(lines)
    yield "}\n"


def cmd_complete(args) -> int:
    params, g = _read_graph(args)
    magic = fork_families(args.magic, params).magic
    result = complete_magic(g, params, magic)
    write = {"text": _complete_text, "json": _complete_json, "dot": _complete_dot}
    sys.stdout.writelines(write[args.format](params, magic, result))
    return EXIT_OK if result.status is CompletionStatus.COMPLETED else EXIT_FAILED


def cmd_obstacles(args) -> int:
    params = Params(args.delta, args.k, args.c)
    # open --output first, so that an unwritable path fails before the search,
    # but in append mode: an existing file is emptied only once the search and
    # the verification over budget (exit 3) are done; a new one goes if they fail
    created = args.output is not None and not os.path.exists(args.output)
    with open(args.output, "a") if args.output is not None else nullcontext(sys.stdout) as out:
        try:
            catalogue = enumerate_obstacle_cycles(
                params, args.n, method=args.method, magic=args.magic, budget=args.budget
            )
            report = verify_catalogue(catalogue, budget=args.budget) if args.verify else None
            if args.output is not None:
                out.truncate(0)
            out.write(format_catalogue(catalogue))
            out.flush()  # a full device fails here, before the summary below
        except BaseException:
            if created:
                os.remove(args.output)
            raise
    print(
        f"n={catalogue.size}: {len(catalogue.cycles)} cycles ({catalogue.method})",
        file=sys.stderr,
    )
    if report is not None:
        if not report.ok:
            print(f"verification failed: {report.failure}", file=sys.stderr)
            return EXIT_USAGE
        print(
            f"verified: {report.entries_checked} entries, "
            f"{report.non_entries_checked} sampled non-entries",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_trace_obstacle(args) -> int:
    params, g = _read_graph(args)
    witness = obstacle_trace(g, params, args.magic)
    sides = ",".join(str(d) for d in witness.seed_distances)
    verts = ",".join(str(v) for v in witness.seed_vertices)
    print(f"seed: vertices ({verts}) distances {sides} {witness.seed_status.value}")
    for exp in witness.expansions:
        p, q = exp.obstacle_edge
        a, b = exp.distances
        print(
            f"level {exp.level}: edge ({p},{q}) expanded via witness "
            f"{exp.witness} distances ({a},{b})"
        )
    print(f"obstacle: cycle {format_cycle_labels(witness.cycle_labels())} "
          f"({witness.obstacle.vertex_count} vertices)")
    for (u, v), d in sorted(witness.obstacle.edges.items()):
        print(f"  edge {u} {v} {d}")
    print("hom: " + " ".join(f"{i}->{x}" for i, x in enumerate(witness.hom)))
    return EXIT_OK


def _budget(text: str) -> int:
    """The value of --budget: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _add_param_flags(sub, required: bool):
    sub.add_argument("--delta", type=int, required=required, default=None)
    sub.add_argument("--k", type=int, required=required, default=None)
    sub.add_argument("--c", type=int, required=required, default=None)
    sub.add_argument("--magic", type=int, default=None,
                     help="magic distance to use (default: the maximum)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metric-completer",
                     description="Completion tools for bounded integer metric classes.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_magic = subs.add_parser("magic", help="magic distances and insertion schedule")
    _add_param_flags(p_magic, required=True)
    p_magic.set_defaults(func=cmd_magic)

    p_forks = subs.add_parser("forks", help="fork completion table")
    _add_param_flags(p_forks, required=True)
    p_forks.set_defaults(func=cmd_forks)

    p_complete = subs.add_parser("complete", help="complete a graph file")
    p_complete.add_argument("graph", help="graph file, or - for stdin")
    _add_param_flags(p_complete, required=False)
    p_complete.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_complete.set_defaults(func=cmd_complete)

    p_obst = subs.add_parser("obstacles", help="catalogue of non-completable cycles")
    _add_param_flags(p_obst, required=True)
    p_obst.add_argument("--n", type=int, required=True, help="cycle length")
    p_obst.add_argument("--method", choices=METHODS, default="exhaustive")
    p_obst.add_argument("--verify", action="store_true",
                        help="cross-check the catalogue against the oracle")
    p_obst.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                        help="oracle assignment cap, cap on delta^n for the "
                             "exhaustive method, which walks the canonical "
                             "cycles, and on the candidate cycles the substitution "
                             "method builds; exit 3 when exceeded")
    p_obst.add_argument("--output", default=None, help="write the catalogue here")
    p_obst.set_defaults(func=cmd_obstacles)

    p_trace = subs.add_parser("trace-obstacle",
                              help="back-trace a failed completion to a witness")
    p_trace.add_argument("graph", help="graph file, or - for stdin")
    _add_param_flags(p_trace, required=False)
    p_trace.set_defaults(func=cmd_trace_obstacle)

    return parser


# One parser per process: building it costs more than a small command's work.
# Parsing leaves no state on it, and its usage and error text go to the
# sys.stderr current at the time.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run the command line ``argv`` and return its exit code.  A failure
    exits with the code of its class in _EXIT_CODES, says ``error:`` unless
    the reader has gone, and sends what a stdout it left unflushable still
    holds to devnull, so that the interpreter's flush at exit stays quiet."""
    args = _parser().parse_args(argv)
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe or a full device raises here, not at exit
        return code
    except tuple(_EXIT_CODES) as exc:
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:  # to devnull, where it has a descriptor (a StringIO has none)
            with suppress(OSError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
