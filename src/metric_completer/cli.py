"""Command-line front end.

Subcommands: magic (parameter summary and insertion schedule), forks (the
completion table), complete (run the engine on a graph file), obstacles
(catalogue of non-completable cycles), trace-obstacle (back-trace a failed
completion to a witness).
"""

from __future__ import annotations

import argparse
import json
import sys

from .completion import CompletionStatus, complete_magic
from .errors import (
    CapacityError,
    FormatError,
    ParameterError,
    PreconditionError,
    RangeError,
)
from .graphs import parse_graph
from .obstacles import (
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


class _Parser(argparse.ArgumentParser):
    """argparse front end that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    return parse_graph(text)


def _file_params(args, file_params: Params) -> Params:
    given = (args.delta, args.k, args.c)
    if any(x is not None for x in given):
        if given != (file_params.delta, file_params.k, file_params.c):
            stated = " ".join(str(x) for x in given)
            stored = f"{file_params.delta} {file_params.k} {file_params.c}"
            raise ParameterError(
                f"parameters {stated} disagree with the graph file ({stored})"
            )
    return file_params


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


def _complete_text(params, magic, result) -> list[str]:
    lines = [f"params delta={params.delta} k={params.k} c={params.c} M={magic}"]
    lines.extend(step.describe() for step in result.trace.steps)
    lines.append(result.status.value)
    lines.extend("violation: " + v.describe() for v in result.violations)
    return lines


def _complete_json(params, magic, result) -> str:
    payload = {
        "params": {"delta": params.delta, "k": params.k, "c": params.c},
        "magic": magic,
        "status": result.status.value,
        "steps": [step.as_dict() for step in result.trace.steps],
        "edges": [[u, v, d] for (u, v), d in sorted(result.trace.final_graph.edges.items())],
        "violations": [
            {
                "vertices": list(v.vertices),
                "distances": list(v.distances),
                "status": v.status.value,
            }
            for v in result.violations
        ],
    }
    return json.dumps(payload, indent=2)


def _complete_dot(result) -> list[str]:
    inserted = {(s.u, s.v): s for s in result.trace.steps}
    lines = ["graph completion {"]
    for (u, v), d in sorted(result.trace.final_graph.edges.items()):
        step = inserted.get((u, v))
        if step is None:
            lines.append(f"  {u} -- {v} [label={d}];")
        else:
            lines.append(f"  {u} -- {v} [label={d}, rank={step.rank}, style=dashed];")
    lines.append("}")
    return lines


def cmd_complete(args) -> int:
    file_params, g = _read_graph(args.graph)
    params = _file_params(args, file_params)
    magic = fork_families(args.magic, params).magic
    result = complete_magic(g, params, magic)
    if args.format == "json":
        print(_complete_json(params, magic, result))
    elif args.format == "dot":
        print("\n".join(_complete_dot(result)))
    else:
        print("\n".join(_complete_text(params, magic, result)))
    if result.status is CompletionStatus.COMPLETED:
        return EXIT_OK
    return EXIT_FAILED


def cmd_obstacles(args) -> int:
    params = Params(args.delta, args.k, args.c)
    catalogue = enumerate_obstacle_cycles(
        params, args.n, method=args.method, magic=args.magic, budget=args.budget
    )
    text = format_catalogue(catalogue)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"n={catalogue.size}: {len(catalogue.cycles)} cycles ({catalogue.method})",
        file=sys.stderr,
    )
    if args.verify:
        report = verify_catalogue(catalogue, budget=args.budget)
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
    file_params, g = _read_graph(args.graph)
    params = _file_params(args, file_params)
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
    p_obst.add_argument("--method", choices=("exhaustive", "substitution"),
                        default="exhaustive")
    p_obst.add_argument("--verify", action="store_true",
                        help="cross-check the catalogue against the oracle")
    p_obst.add_argument("--budget", type=int, default=10**8,
                        help="oracle assignment cap")
    p_obst.add_argument("--output", default=None, help="write the catalogue here")
    p_obst.set_defaults(func=cmd_obstacles)

    p_trace = subs.add_parser("trace-obstacle",
                              help="back-trace a failed completion to a witness")
    p_trace.add_argument("graph", help="graph file, or - for stdin")
    _add_param_flags(p_trace, required=False)
    p_trace.set_defaults(func=cmd_trace_obstacle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, RangeError, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
