"""End-to-end command-line tests, run in process through cli.main."""

import contextlib
import hashlib
import importlib
import inspect
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from metric_completer import (
    CompletionStatus,
    EdgeLabelledGraph,
    Family,
    FormatError,
    ParameterError,
    Params,
    RangeError,
    TriangleStatus,
    complete_magic,
    cycle_graph,
    fork_choice,
    fork_range,
    format_graph,
    magic_distances,
)
import metric_completer
from metric_completer import cli, obstacles
from metric_completer.cli import main
from metric_completer.graphs import MAX_VERTICES, parse_graph
from metric_completer.params import MAX_DELTA, _triangle_table

from oracles import complete_json_oracle, complete_magic_oracle

FORK16 = "params 6 2 15\nvertices 3\nedge 0 1 1\nedge 1 2 6\n"

C11665 = (
    "params 6 2 15\n"
    "vertices 5\n"
    "edge 0 1 1\n"
    "edge 1 2 1\n"
    "edge 2 3 6\n"
    "edge 3 4 6\n"
    "edge 0 4 5\n"
)

C112 = "params 6 2 15\nvertices 3\nedge 0 1 1\nedge 1 2 1\nedge 0 2 2\n"

MAGIC_TEXT = """\
magic: 3 4
M = 4
rank 2: distance 5 from forks (1,6)
rank 3: distance 2 from forks (1,1) (6,6)
rank 5: distance 3 from forks (1,2) (5,6)
final: distance 4 for every remaining pair
"""

FORKS_TEXT = """\
forks for delta=6 k=2 c=15 M=4
(1,1): 2*
(1,2): 1 2 3*
(1,3): 2 3 4*
(1,4): 3 4* 5
(1,5): 4* 5 6
(1,6): 5* 6
(2,2): 1 2 3 4*
(2,3): 1 2 3 4* 5
(2,4): 2 3 4* 5 6
(2,5): 3 4* 5 6
(2,6): 4* 5 6
(3,3): 1 2 3 4* 5 6
(3,4): 1 2 3 4* 5 6
(3,5): 2 3 4* 5 6
(3,6): 3 4* 5
(4,4): 1 2 3 4* 5 6
(4,5): 1 2 3 4* 5
(4,6): 2 3 4*
(5,5): 1 2 3 4*
(5,6): 1 2 3*
(6,6): 1 2*
"""

FORK16_TEXT = """\
params delta=6 k=2 c=15 M=4
rank 2: (0,2) = 5 witness 1 fork (1,6) F-
completed
"""

C11665_TEXT = """\
params delta=6 k=2 c=15 M=4
rank 2: (1,3) = 5 witness 2 fork (1,6) F-
rank 3: (0,2) = 2 witness 1 fork (1,1) F+
rank 3: (2,4) = 2 witness 3 fork (6,6) FC
rank 5: (0,3) = 3 witness 4 fork (5,6) FC
rank 5: (1,4) = 3 witness 2 fork (1,2) F+
failed
violation: non-metric 1,3,5 (vertices 0,1,3)
violation: non-metric 1,3,5 (vertices 0,1,4)
violation: non-metric 2,3,6 (vertices 0,2,3)
violation: non-metric 2,2,5 (vertices 0,2,4)
"""

FORK16_DOT = """\
graph completion {
  0 -- 1 [label=1];
  0 -- 2 [label=5, rank=2, style=dashed];
  1 -- 2 [label=6];
}
"""

UNSORTED_116 = (
    "params 6 2 15\n"
    "vertices 4\n"
    "edge 2 3 6\n"
    "edge 1 3 1\n"
    "edge 0 1 2\n"
    "edge 1 2 1\n"
)

UNSORTED_116_DOT = """\
graph completion {
  0 -- 1 [label=2];
  1 -- 2 [label=1];
  1 -- 3 [label=1];
  2 -- 3 [label=6];
}
"""

TRACE_TEXT = """\
seed: vertices (0,1,3) distances 1,3,5 non-metric
level 5: edge (0,2) expanded via witness 4 distances (5,6)
level 2: edge (1,2) expanded via witness 2 distances (1,6)
obstacle: cycle 11566 (5 vertices)
  edge 0 1 1
  edge 0 3 5
  edge 1 4 1
  edge 2 3 6
  edge 2 4 6
hom: 0->0 1->1 2->3 3->4 4->2
"""

CATALOGUE_3 = "catalogue 6 2 15 3 exhaustive\n" + "".join(
    f"{s}\n"
    for s in (
        "111 113 114 115 116 124 125 126 135 136 146 "
        "225 226 236 366 456 466 555 556 566 666"
    ).split()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_command(argv):
    """The command line of a child Python that runs cli.main(argv) from
    this checkout and exits with its code."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "from metric_completer import cli\n"
        f"sys.exit(cli.main({list(argv)!r}))\n"
    )
    return [sys.executable, "-c", code]


def run_child(argv, redirect="", env=(), **kwargs):
    """Run cli.main(argv) in a child whose stdout is buffered, as it is on a
    file or a device, with ``env`` added to its environment; under sh when
    ``redirect``, such as ">&-", is appended to its command line."""
    command = child_command(argv)
    if redirect:
        command = ["sh", "-c", f"{shlex.join(command)} {redirect}"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | dict(env)
    return subprocess.run(command, stderr=subprocess.PIPE, env=env, timeout=120, **kwargs)


@pytest.fixture
def graph_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestMagic:
    def test_schedule(self, capsys):
        code, out, err = run(capsys, "magic", "--delta", "6", "--k", "2", "--c", "15")
        assert (code, out, err) == (0, MAGIC_TEXT, "")

    def test_explicit_magic(self, capsys):
        code, out, _ = run(
            capsys, "magic", "--delta", "6", "--k", "2", "--c", "15", "--magic", "3"
        )
        assert code == 0
        assert "M = 3" in out

    def test_non_magic_rejected(self, capsys):
        code, _, err = run(
            capsys, "magic", "--delta", "6", "--k", "2", "--c", "15", "--magic", "5"
        )
        assert code == 1
        assert "error: 5 not magic (magic distances: 3 4)" in err


class TestForks:
    def test_table(self, capsys):
        code, out, err = run(capsys, "forks", "--delta", "6", "--k", "2", "--c", "15")
        assert (code, out, err) == (0, FORKS_TEXT, "")

    def test_stars_mark_the_chosen_value(self, capsys):
        _, out, _ = run(capsys, "forks", "--delta", "6", "--k", "2", "--c", "15")
        par = Params(6, 2, 15)
        rows = out.splitlines()[1:]
        assert len(rows) == 21
        for row in rows:
            head, _, tail = row.partition(": ")
            a, b = (int(x) for x in head.strip("()").split(","))
            values = tail.split()
            starred = [int(v[:-1]) for v in values if v.endswith("*")]
            assert starred == [fork_choice(a, b, 4, par)]
            assert [int(v.rstrip("*")) for v in values] == list(fork_range(a, b, par))


class TestComplete:
    def test_text_completed(self, capsys, graph_file):
        path = graph_file("fork16.graph", FORK16)
        code, out, err = run(capsys, "complete", path)
        assert (code, out, err) == (0, FORK16_TEXT, "")

    def test_text_failed(self, capsys, graph_file):
        path = graph_file("c11665.graph", C11665)
        code, out, _ = run(capsys, "complete", path)
        assert (code, out) == (2, C11665_TEXT)

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(FORK16.encode())))
        code, out, _ = run(capsys, "complete", "-")
        assert (code, out) == (0, FORK16_TEXT)

    def test_json(self, capsys, graph_file):
        path = graph_file("c11665.graph", C11665)
        code, out, _ = run(capsys, "complete", path, "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["params"] == {"delta": 6, "k": 2, "c": 15}
        assert payload["magic"] == 4
        assert payload["status"] == "failed"
        assert payload["steps"][0] == {
            "rank": 2,
            "distance": 5,
            "u": 1,
            "v": 3,
            "witness": 2,
            "fork": [1, 6],
            "family": "F-",
        }
        assert [tuple(e) for e in payload["edges"]] == [
            (0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 5), (1, 2, 1),
            (1, 3, 5), (1, 4, 3), (2, 3, 6), (2, 4, 2), (3, 4, 6),
        ]
        assert payload["violations"][0] == {
            "vertices": [0, 1, 3],
            "distances": [1, 3, 5],
            "status": "non-metric",
        }
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_dot(self, capsys, graph_file):
        path = graph_file("fork16.graph", FORK16)
        code, out, _ = run(capsys, "complete", path, "--format", "dot")
        assert (code, out) == (0, FORK16_DOT)

    def test_flags_must_agree_with_file(self, capsys, graph_file):
        path = graph_file("fork16.graph", FORK16)
        code, _, err = run(
            capsys, "complete", path, "--delta", "6", "--k", "2", "--c", "14"
        )
        assert code == 1
        assert err == "error: parameters 6 2 14 disagree with the graph file (6 2 15)\n"

    def test_matching_flags_accepted(self, capsys, graph_file):
        path = graph_file("fork16.graph", FORK16)
        code, _, _ = run(
            capsys, "complete", path, "--delta", "6", "--k", "2", "--c", "15"
        )
        assert code == 0

    def test_one_matching_flag_accepted(self, capsys, graph_file):
        path = graph_file("fork16.graph", FORK16)
        assert run(capsys, "complete", path, "--delta", "6") == run(capsys, "complete", path)

    def test_flags_not_given_are_read_from_the_file(self, capsys, graph_file):
        path = graph_file("fork16.graph", FORK16)
        code, _, err = run(capsys, "complete", path, "--k", "3")
        assert code == 1
        assert err == "error: parameters 6 3 15 disagree with the graph file (6 2 15)\n"

    def test_edges_of_an_input_that_fails_at_once_are_sorted(self, capsys, graph_file):
        # the forbidden triangle 1,1,6 stops the engine before any rank, so the
        # final graph is the input, its edges in file order; both writers sort
        path = graph_file("unsorted.graph", UNSORTED_116)
        _, g = parse_graph(UNSORTED_116)
        result = complete_magic(g, Params(6, 2, 15))
        assert result.trace.steps == ()
        assert list(result.trace.final_graph.edges) == [(2, 3), (1, 3), (0, 1), (1, 2)]
        code, out, err = run(capsys, "complete", path, "--format", "json")
        assert (code, err) == (2, "")
        assert json.loads(out)["edges"] == [[0, 1, 2], [1, 2, 1], [1, 3, 1], [2, 3, 6]]
        assert out == complete_json_oracle(Params(6, 2, 15), 4, result) + "\n"
        code, out, err = run(capsys, "complete", path, "--format", "dot")
        assert (code, out, err) == (2, UNSORTED_116_DOT, "")

    def test_json_in_bounded_memory(self, tmp_path):
        # the empty 1000-vertex graph completes with 499,500 magic-filled
        # steps and as many edges, 97,182,875 bytes of JSON; the command runs
        # in a child whose address space is capped at 128 MB, where the
        # whole text joined at once raises MemoryError, and its output is
        # hashed as it arrives
        path = tmp_path / "empty1000.graph"
        path.write_text(format_graph(Params(6, 2, 15), EdgeLabelledGraph(1000)))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
            f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
            "from metric_completer import cli\n"
            f"sys.exit(cli.main(['complete', {str(path)!r}, '--format', 'json']))\n"
        )
        digest, size = hashlib.sha256(), 0
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            while block := proc.stdout.read(1 << 16):
                digest.update(block)
                size += len(block)
            err = proc.stderr.read()
            returncode = proc.wait(timeout=120)
        assert (returncode, err, size) == (0, b"", 97_182_875)
        assert digest.hexdigest() == (
            "9f98fc4288e5f999480f0ab576b39e47701b6d197f51a4f7921c6f1295f8c0d2"
        )

    def test_runs_are_byte_stable(self, capsys, graph_file):
        path = graph_file("c11665.graph", C11665)
        first = run(capsys, "complete", path, "--format", "json")
        second = run(capsys, "complete", path, "--format", "json")
        assert first == second


def writer_cases():
    """(params, magic, graph) inputs for the JSON writer's differential test."""
    par = Params(6, 2, 15)
    small = [
        EdgeLabelledGraph(0),
        EdgeLabelledGraph(1),
        EdgeLabelledGraph(2),  # one magic-filled step: null witness and fork
        cycle_graph((1, 3, 5)),  # fails at once: no steps
        cycle_graph((1, 1, 6, 6, 5)),  # fails after filling, with violations
        cycle_graph((1, 1, 1, 1)),
        EdgeLabelledGraph(4, [(0, 1, 1), (2, 3, 6)]),
    ]
    cases = [(par, magic, g) for magic in magic_distances(par) for g in small]
    rng = random.Random(31)
    for par in (Params(6, 2, 15), Params(3, 1, 8), Params(5, 3, 16), Params(4, 4, 13)):
        for _ in range(6):
            n = rng.randint(3, 40)
            # a random tree plus a few chords
            pairs = {(rng.randrange(v), v) for v in range(1, n)}
            pairs |= {p for p in itertools.combinations(range(n), 2) if rng.random() < 0.05}
            g = EdgeLabelledGraph(
                n, [(u, v, rng.randint(1, par.delta)) for u, v in sorted(pairs)]
            )
            cases.extend((par, magic, g) for magic in magic_distances(par))
    # labels of two digits on fewer vertices than delta + 1: the writers'
    # numerals must cover the labels as well as the vertices
    par = Params(20, 1, 42)
    for n in range(6):
        for _ in range(3):
            g = EdgeLabelledGraph(n, [
                (u, v, rng.randint(1, par.delta))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ])
            cases.extend((par, magic, g) for magic in magic_distances(par))
    return cases


class TestJsonWriter:
    """cli._complete_json writes the payload from templates; it must equal
    json.dumps(payload, indent=2) of the same result byte for byte."""

    def test_payload_strings_need_no_escaping(self):
        for enum in (CompletionStatus, Family, TriangleStatus):
            for member in enum:
                assert json.dumps(member.value) == f'"{member.value}"'

    def test_equals_json_dumps(self):
        cases = writer_cases()
        statuses = set()
        for par, magic, g in cases:
            res = complete_magic(g, par, magic)
            statuses.add((res.status, bool(res.trace.steps), bool(res.violations)))
            assert "".join(cli._complete_json(par, magic, res)) == complete_json_oracle(
                par, magic, res
            ) + "\n", (par, magic, g)
        # completed, failed at once and failed after filling all occur
        assert {
            (CompletionStatus.COMPLETED, True, False),
            (CompletionStatus.FAILED, False, True),
            (CompletionStatus.FAILED, True, True),
        } <= statuses

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # a list of more records than a chunk holds is written in pieces, and
        # so is a run of magic-filled steps longer than a chunk: row 0 of the
        # empty 5-vertex graph holds 4 of them
        monkeypatch.setattr(cli, "_JSON_CHUNK", chunk)
        par = Params(6, 2, 15)
        cases = writer_cases()[:30] + [(par, magic_distances(par)[-1], EdgeLabelledGraph(5))]
        for par, magic, g in cases:
            res = complete_magic(g, par, magic)
            pieces = list(cli._complete_json(par, magic, res))
            assert "".join(pieces) == complete_json_oracle(par, magic, res) + "\n", (
                par, magic, g)
            records = len(res.trace.steps) + len(res.trace.final_graph.edges)
            assert len(pieces) >= records // chunk
            assert max(piece.count('"rank"') for piece in pieces) <= chunk

    def test_every_format_matches_the_direct_engine(self, capsys, tmp_path):
        assert_writers_match_the_direct_engine(capsys, tmp_path, writer_cases())

    def test_complete_graphs_through_every_writer(self, capsys, tmp_path):
        # K_n with every label 1: at k >= 2 every triangle is odd-short and
        # the input fails at once, with all C(n, 3) triangles reported; at
        # k = 1 it is complete and clean, with no step
        triples = [
            Params(delta, k, c)
            for delta in range(2, 5)
            for k in range(1, delta + 1)
            for c in range(2 * delta + k + 1, 3 * delta + 2)
        ]
        assert len(triples) == 19
        cases = [
            (par, magic_distances(par)[-1], EdgeLabelledGraph(
                n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)]
            ))
            for par in triples
            for n in range(3, 13)
        ]
        assert_writers_match_the_direct_engine(capsys, tmp_path, cases)


def assert_writers_match_the_direct_engine(capsys, tmp_path, cases):
    """``complete`` in every format on each (params, magic, graph) of
    ``cases``, against the triple-loop engine and json.dumps."""
    path = tmp_path / "case.graph"
    for par, magic, g in cases:
        path.write_text(format_graph(par, g))
        ref = complete_magic_oracle(g, par, magic)
        expected = {
            "json": complete_json_oracle(par, magic, ref) + "\n",
            "text": "".join(cli._complete_text(par, magic, ref)),
            "dot": "".join(cli._complete_dot(par, magic, ref)),
        }
        want = 0 if ref.status is CompletionStatus.COMPLETED else 2
        for fmt, text in expected.items():
            code, out, err = run(
                capsys, "complete", str(path), "--magic", str(magic), "--format", fmt
            )
            assert (code, out, err) == (want, text, ""), (par, magic, g, fmt)


class TestObstacles:
    def test_triangle_catalogue(self, capsys):
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15", "--n", "3"
        )
        assert code == 0
        assert out == CATALOGUE_3
        assert err == "n=3: 21 cycles (exhaustive)\n"

    def test_verify_flag(self, capsys):
        code, _, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "3", "--verify",
        )
        assert code == 0
        assert "verified: 21 entries, 20 sampled non-entries" in err

    def test_verify_walks_the_canonical_cycles_twice(self, capsys, monkeypatch):
        # one pass to decide every cycle, one to pick the sampled non-entries
        passes = []
        generate = obstacles._canonical_blocks

        def counting(delta, size):
            passes.append((delta, size))
            return generate(delta, size)

        monkeypatch.setattr(obstacles, "_canonical_blocks", counting)
        code, _, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "6", "--verify",
        )
        assert code == 0
        assert err.endswith("verified: 5 entries, 20 sampled non-entries\n")
        assert passes == [(6, 6), (6, 6)]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "cat.txt"
        code, out, _ = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "3", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == CATALOGUE_3

    @pytest.mark.parametrize(
        "directory, error",
        [
            (True, "[Errno 21] Is a directory: '{}'"),
            (False, "[Errno 2] No such file or directory: ''"),
        ],
        ids=["directory", "empty"],
    )
    def test_output_is_opened_before_the_search(
        self, capsys, tmp_path, monkeypatch, directory, error
    ):
        # an empty path names no file: it is refused at the early open too,
        # and never taken for stdout.  A search that ran would fail with the
        # same text, from removing the file it took for its own, so its
        # calls are counted
        searched = []

        def search(*args, **kwargs):
            searched.append(args)
            raise AssertionError("the search ran before --output was opened")

        monkeypatch.setattr(cli, "enumerate_obstacle_cycles", search)
        output = str(tmp_path) if directory else ""
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "7", "--output", output,
        )
        assert (code, out, searched) == (1, "", [])
        assert err == f"error: {error.format(tmp_path)}\n"

    def test_existing_output_survives_a_failed_search(self, capsys, tmp_path):
        target = tmp_path / "keep.txt"
        target.write_text("precious\n" * 100)
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "9", "--budget", "10", "--output", str(target),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ")
        assert target.read_text() == "precious\n" * 100
        # a search that succeeds replaces the whole file, shorter as its text is
        code, _, _ = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "3", "--output", str(target),
        )
        assert code == 0
        assert target.read_text() == CATALOGUE_3

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("--n", "2"), 1),
            (("--n", "5", "--magic", "9"), 1),
            (("--n", "7", "--verify"), 3),
            (("--n", "5", "--verify", "--budget", "1000"), 3),
        ],
        ids=["n-2", "magic-9", "oracle-budget", "budget-1000"],
    )
    def test_failed_search_leaves_no_new_output(self, capsys, tmp_path, argv, code):
        # a file this run created is removed again; the exit code and stderr
        # are those of the same run without --output
        command = ("obstacles", "--delta", "6", "--k", "2", "--c", "15", *argv)
        expected = run(capsys, *command)
        assert expected[:2] == (code, "")
        target = tmp_path / "new.txt"
        assert run(capsys, *command, "--output", str(target)) == expected
        assert not target.exists()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "11", "--method", "substitution", "--verify"),
            ("--n", "6", "--verify", "--budget", "50000"),
            ("--n", "7", "--verify"),
        ],
        ids=["substitution-11", "budget-50000", "n-7"],
    )
    def test_verification_over_budget_writes_nothing(self, capsys, tmp_path, argv, to_file):
        # the catalogue is verified before it is written: exit 3 leaves
        # stdout empty, prints no summary and keeps an existing --output file
        target = tmp_path / "keep.txt"
        target.write_text("precious\n" * 100)
        output = ("--output", str(target)) if to_file else ()
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15", *argv, *output
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target.read_text() == "precious\n" * 100

    def test_verification_outcomes_keep_their_bytes(self, capsys, monkeypatch):
        # exit 0 and exit 1: the catalogue, its summary, then the verdict
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "3", "--verify",
        )
        assert (code, out) == (0, CATALOGUE_3)
        assert err == "n=3: 21 cycles (exhaustive)\nverified: 21 entries, 20 sampled non-entries\n"
        report = obstacles.CatalogueReport(False, 21, 0, "entry (1, 1, 1) completes")
        monkeypatch.setattr(cli, "verify_catalogue", lambda catalogue, budget: report)
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "3", "--verify",
        )
        assert (code, out) == (1, CATALOGUE_3)
        assert err == (
            "n=3: 21 cycles (exhaustive)\n"
            "verification failed: entry (1, 1, 1) completes\n"
        )

    def test_substitution_method(self, capsys):
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "4", "--method", "substitution",
        )
        assert code == 0
        assert out.startswith("catalogue 6 2 15 4 substitution\n")
        assert err == "n=4: 22 cycles (substitution)\n"

    @pytest.mark.parametrize("n", ["11", "100000000"])
    def test_substitution_stops_at_its_first_empty_generation(self, capsys, n):
        # the substitution method is charged for the candidates it builds,
        # not for 6^n label sequences, and its generations are empty from
        # length 7 on
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", n, "--method", "substitution",
        )
        assert (code, out) == (0, f"catalogue 6 2 15 {n} substitution\n")
        assert err == f"n={n}: 0 cycles (substitution)\n"

    def test_substitution_budget_exceeded(self, capsys):
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "6", "--method", "substitution", "--budget", "100",
        )
        assert (code, out) == (3, "")
        assert err == "error: 114 candidate cycles exceed the budget of 100\n"

    def test_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "6", "--budget", "10",
        )
        assert code == 3
        assert err == "error: 46656 label sequences exceed the budget of 10\n"

    @pytest.mark.parametrize("budget, method, error", [
        ("-5", "exhaustive", "must be at least 1, not -5"),
        ("0", "substitution", "must be at least 1, not 0"),
        ("1e3", "exhaustive", "invalid int value: '1e3'"),
    ])
    def test_budget_below_one_or_not_an_int_is_a_usage_error(
        self, capsys, budget, method, error
    ):
        # refused by the parser, before any work is counted against it
        with pytest.raises(SystemExit) as exc:
            main(["obstacles", "--delta", "6", "--k", "2", "--c", "15",
                  "--n", "5", "--method", method, "--budget", budget])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.endswith(f"obstacles: error: argument --budget: {error}\n")

    @pytest.mark.parametrize("n", ["6000", "100000000"])
    def test_huge_cycle_length_is_refused_at_once(self, capsys, n):
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15", "--n", n,
        )
        assert (code, out) == (3, "")
        assert err == f"error: 6^{n} label sequences exceed the budget of 100000000\n"


class TestTraceObstacle:
    def test_backtrace(self, capsys, graph_file):
        path = graph_file("c11665.graph", C11665)
        code, out, err = run(capsys, "trace-obstacle", path)
        assert (code, out, err) == (0, TRACE_TEXT, "")

    def test_completable_input(self, capsys, graph_file):
        path = graph_file("c112.graph", C112)
        code, _, err = run(capsys, "trace-obstacle", path)
        assert code == 4
        assert err == "error: input completes; nothing to trace\n"

    def test_clique_in_bounded_memory(self, tmp_path):
        # K_300 with every label 1 fails at once on its 4,455,100 odd-short
        # triangles; the witness needs only the first, so the command runs
        # in a child whose address space is capped at 256 MB, where holding
        # every triangle as an object would take over a gigabyte
        n = 300
        path = tmp_path / "k300.graph"
        path.write_text(format_graph(
            Params(6, 2, 15),
            EdgeLabelledGraph(n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)]),
        ))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            f"sys.path.insert(0, {str(Path(obstacles.__file__).parents[1])!r})\n"
            "from metric_completer import cli\n"
            f"sys.exit(cli.main(['trace-obstacle', {str(path)!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, CLIQUE_TRACE_TEXT, "")


CLIQUE_TRACE_TEXT = """\
seed: vertices (0,1,2) distances 1,1,1 odd-short
obstacle: cycle 111 (3 vertices)
  edge 0 1 1
  edge 0 2 1
  edge 1 2 1
hom: 0->0 1->1 2->2
"""


HUGE_GRAPHS = [
    "params 6 2 15\nvertices 100000000\n",
    "params 6 2 15\nvertices 20000\nedge 0 1 1\n",
]


class TestVertexCap:
    @pytest.mark.parametrize("command", ["complete", "trace-obstacle"])
    @pytest.mark.parametrize("text", HUGE_GRAPHS, ids=["1e8", "20000"])
    def test_oversized_graph_is_refused_at_once(self, capsys, graph_file, command, text):
        path = graph_file("huge.graph", text)
        code, out, err = run(capsys, command, path)
        count = text.split()[5]
        assert (code, out) == (3, "")
        assert err == f"error: {count} vertices exceed the engine's cap of 1000\n"


class TestDeltaCap:
    @pytest.mark.parametrize("delta", [MAX_DELTA + 1, 10**9])
    @pytest.mark.parametrize(
        "command", ["magic", "forks", "obstacles", "complete", "trace-obstacle"]
    )
    def test_large_delta_is_refused_at_once(self, capsys, graph_file, command, delta):
        # c = 3*delta + 1 gives the most magic distances, about delta/2 of them
        c = 3 * delta + 1
        if command in ("complete", "trace-obstacle"):
            text = f"params {delta} 1 {c}\nvertices 3\nedge 0 1 1\nedge 1 2 1\n"
            argv = [command, graph_file("wide.graph", text)]
        else:
            argv = [command, "--delta", str(delta), "--k", "1", "--c", str(c)]
            if command == "obstacles":
                argv += ["--n", "3"]
        cached = _triangle_table.cache_info().currsize
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: delta={delta} exceeds the cap of {MAX_DELTA}\n"
        assert _triangle_table.cache_info().currsize == cached


class TestParser:
    COMMANDS = [
        ["obstacles", "--delta", "6", "--k", "2", "--c", "15", "--n", "3", "--verify"],
        ["complete", "GRAPH", "--format", "json"],
        ["magic", "--delta", "6", "--k", "2"],
        ["magic", "--delta", "6", "--k", "2", "--c", "15"],
    ]

    @staticmethod
    def run_each(commands):
        """(exit code, stdout, stderr) of each command, each with streams of
        its own, so that a parser must write to the streams current when it
        runs."""
        runs = []
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            runs.append((code, out.getvalue(), err.getvalue()))
        return runs

    def test_one_parser_serves_every_command(self, graph_file):
        path = graph_file("c11665.graph", C11665)
        commands = [[path if x == "GRAPH" else x for x in argv] for argv in self.COMMANDS]
        fresh = []
        for argv in commands:
            cli._parser.cache_clear()
            fresh += self.run_each([argv])
        cli._parser.cache_clear()
        shared = self.run_each(commands)
        assert cli._parser.cache_info().misses == 1
        assert shared == fresh
        usage = shared[2]
        assert usage[:2] == (1, "")
        assert usage[2].startswith("usage: metric-completer magic [-h]")
        assert usage[2].endswith("error: the following arguments are required: --c\n")
        assert [code for code, _, _ in shared] == [0, 2, 1, 0]
        assert shared[3][1] == MAGIC_TEXT


def test_readme_states_the_caps():
    # the exit-code paragraph names each cap with its current value
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Exit codes:"))
    text = " ".join(paragraph.split())
    vertex_cap = f"more than {MAX_VERTICES} vertices (the engine's cap, `graphs.MAX_VERTICES`"
    assert vertex_cap in text
    assert f"delta is above {MAX_DELTA} (`params.MAX_DELTA`" in text


def readme_section(title):
    """The text of the README section headed ``## title``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return next(part for part in readme.split("\n## ") if part.startswith(title + "\n"))


def fenced(section, language=""):
    """The first fenced block of ``section`` opened by ``language``."""
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


class TestReadme:
    """The README's examples run as it says they do, and its library map
    names only what each module holds."""

    def test_the_commands_exit_as_stated(self, capsys, graph_file):
        # the graph file of the format section is 11665, which does not
        # complete: each complete run exits 2
        path = graph_file("graph.txt", fenced(readme_section("Graph files")))
        commands = [
            shlex.split(line)
            for line in fenced(readme_section("Command line"), "sh").splitlines()
            if line and not line.startswith("#")
        ]
        codes = []
        for program, *argv in commands:
            assert program == "metric-completer"
            codes.append(run(capsys, *(path if x == "graph.txt" else x for x in argv))[0])
        assert [argv[1] for argv in commands] == [
            "magic", "forks", "complete", "complete", "complete", "obstacles", "trace-obstacle",
        ]
        assert codes == [0, 0, 2, 2, 2, 0, 0]

    def test_the_entry_points_run_as_stated(self):
        namespace = {}
        exec(fenced(readme_section("Library map"), "python"), namespace)
        assert namespace["res"].status is CompletionStatus.FAILED

    def test_the_map_names_only_attributes_of_each_module(self):
        rows = [
            line.split(" | ", 1)
            for line in readme_section("Library map").splitlines()
            if line.startswith("| `metric_completer.")
        ]
        assert len(rows) == 6
        listed = set()
        for module_cell, contents in rows:
            module = importlib.import_module(module_cell.strip("|` "))
            names = re.findall(r"`([^`]*)`", contents)
            assert names, module.__name__
            for name in names:
                assert hasattr(module, name), (module.__name__, name)
            listed.update(names)
        # and every name the package exports is listed
        exports = {
            name for name, value in vars(metric_completer).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert exports <= listed, exports - listed


P = "params 6 2 15\n"

# (graph file, the error the reader raises): the first fault in file order
# wins, except that the params line is checked only after the last line, the
# graph's own checks (counts, loops, ranges, conflicts) only after that, and
# labels against delta last
READER_ERRORS = [
    ("vertices 3\nedge 0 1 x\n",
     "FormatError: line 2: non-integer field in 'edge 0 1 x'"),
    (P + "vertices 3\nedge 0 1 9\nedge 2 2 1\n",
     "FormatError: loop at vertex 2"),
    ("params 6 2 99\nvertices 2\nedge 0 0 1\n",
     "ParameterError: unacceptable parameters delta=6 k=2 c=99: "
     "c exceeds 3*delta + 1 = 19"),
    (P + "edge 0 1 1.5  # note\n",
     "FormatError: line 2: non-integer field in 'edge 0 1 1.5'"),
    (P + "vertices 2\nedge 0  1\tx  # y\nedge 0 1\n",
     "FormatError: line 3: non-integer field in 'edge 0  1\\tx'"),
    (P + "vertices 2\nedge 0 1 x#y 1\n",
     "FormatError: line 3: non-integer field in 'edge 0 1 x'"),
    (P + "vertices 2\nwat a\nedge 0 1\n",
     "FormatError: line 3: non-integer field in 'wat a'"),
    (P + "vertices 2\nwat 1 2\nedge 0 1 x\n",
     "FormatError: line 3: unknown keyword 'wat'"),
    (P + "vertices 2\n" + P + "wat 0 1\n",
     "FormatError: line 3: repeated params line"),
    (P + "vertices 2\nvertices 2\nedge 0 1\n",
     "FormatError: line 3: repeated vertices line"),
    (P + "vertices 2\nedge 0 1\nwat 1\n",
     "FormatError: line 3: edge needs u v d"),
    (P + "vertices 2\n  edge\nedge 0 1 x\n",
     "FormatError: line 3: edge needs u v d"),
    (P + "vertices 2\nedge 0 1 6#\nedge 0 1 6 7\nedge 0 1 7\n",
     "FormatError: line 4: edge needs u v d"),
    ("params 6 2 15 1\nvertices 2 3\n",
     "FormatError: line 1: params needs delta k c"),
    (P + "vertices 2 3\nedge 0 1 x\n",
     "FormatError: line 2: vertices needs one count"),
    ("# only comments\n\nedge 0 1 9\n",
     "FormatError: missing params line"),
    (P + "# no vertices\nedge 0 1 9\n",
     "FormatError: missing vertices line"),
    ("params 6 7 15\nvertices 2\nedge 0 1 9\n",
     "ParameterError: unacceptable parameters delta=6 k=7 c=15: k exceeds delta"),
    (P + "vertices -1\nedge 0 0 1\n",
     "FormatError: bad vertex count -1"),
    (P + "vertices 3\nedge 0 1 9\nedge 0 1 1\nedge 1 0 2\nedge 0 5 1\n",
     "FormatError: conflicting distances on edge (0, 1)"),
    (P + "vertices 3\nedge 0 1 9\nedge 1 2 0\n",
     "FormatError: non-positive distance 0 on edge (1, 2)"),
    (P + "vertices 3\nedge 0 1 9\nedge 0 3 1\n",
     "FormatError: edge (0, 3) outside 0..2"),
    (P + "vertices 3\nedge 2 1 8\nedge 0 1 9\n",
     "RangeError: distance 8 on edge (1, 2) exceeds 6"),
    (P + "vertices 3\nedge 0 2 1\nedge 0 1 7\nedge 1 0 7\nedge 1 2 9\n",
     "RangeError: distance 7 on edge (0, 1) exceeds 6"),
]


class TestErrors:
    def test_unacceptable_params(self, capsys):
        code, _, err = run(capsys, "magic", "--delta", "6", "--k", "7", "--c", "15")
        assert code == 1
        assert err == "error: unacceptable parameters delta=6 k=7 c=15: k exceeds delta\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "complete", str(tmp_path / "nope.graph"))
        assert code == 1
        assert "No such file or directory" in err

    @pytest.mark.parametrize("command", ["complete", "trace-obstacle"])
    def test_directory_as_graph_file(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("command", ["complete", "trace-obstacle"])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.graph"
        path.write_bytes(FORK16.encode() + b"# caf\xe9\n")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: not UTF-8 text (invalid continuation byte)\n"

    def test_output_to_a_directory(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "3", "--output", str(tmp_path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_reader_that_stops_early(self, tmp_path):
        # the empty 300-vertex graph completes to about 9 MB of JSON; the
        # reader takes one byte and closes the pipe, and the command ends
        # with exit 1 and says nothing
        path = tmp_path / "empty300.graph"
        path.write_text(format_graph(Params(6, 2, 15), EdgeLabelledGraph(300)))
        with subprocess.Popen(
            child_command(["complete", str(path), "--format", "json"]),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.stderr.read()
            returncode = proc.wait(timeout=120)
        assert (returncode, err) == (1, b"")

    def test_reader_gone_before_a_short_output(self):
        # the magic schedule fits in a buffered stdout, so a closed pipe
        # shows only when the buffer is flushed; that flush comes before
        # main returns, so the command still ends with exit 1 and says nothing
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                child_command(["magic", "--delta", "6", "--k", "2", "--c", "15"]),
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["magic", "--delta", "6", "--k", "2", "--c", "15"],
        ["complete", "FORK16", "--format", "json"],  # fails at the last flush
        ["complete", "EMPTY60", "--format", "json"],  # fails at a write
        # the catalogue is flushed before its summary would go to stderr
        ["obstacles", "--delta", "6", "--k", "2", "--c", "15", "--n", "5"],
    ])
    def test_stdout_on_a_full_device(self, graph_file, argv):
        # the error is said once, and the interpreter's flush at exit, which
        # would fail again, finds nothing left to write
        files = {
            "FORK16": graph_file("fork16.graph", FORK16),
            "EMPTY60": graph_file("empty60.graph",
                                  format_graph(Params(6, 2, 15), EdgeLabelledGraph(60))),
        }
        with open("/dev/full", "w") as full:
            proc = run_child([files.get(x, x) for x in argv], stdout=full)
        assert (proc.returncode, proc.stderr) == (
            1, b"error: [Errno 28] No space left on device\n"
        )

    @pytest.mark.parametrize("command", ["magic", "complete"])
    def test_closed_stdout(self, graph_file, command):
        argv = {
            "magic": ["magic", "--delta", "6", "--k", "2", "--c", "15"],
            "complete": ["complete", graph_file("fork16.graph", FORK16)],
        }[command]
        proc = run_child(argv, redirect=">&-")
        assert (proc.returncode, proc.stderr) == (1, b"error: stdout is closed\n")

    def test_closed_stdin(self):
        proc = run_child(["complete", "-"], redirect="<&-", stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, b"", b"error: -: stdin is closed\n"
        )

    def test_stdin_that_is_not_utf8(self, tmp_path):
        # stdin is decoded as a file is, whatever the locale makes of it
        path = tmp_path / "bad.graph"
        path.write_bytes(b"\xff\xfe\n")
        utf8_mode = {"PYTHONUTF8": "1"}
        from_stdin = run_child(["complete", "-"], input=path.read_bytes(),
                               stdout=subprocess.PIPE, env=utf8_mode)
        from_file = run_child(["complete", str(path)], stdout=subprocess.PIPE, env=utf8_mode)
        assert from_stdin.stderr == b"error: -: not UTF-8 text (invalid start byte)\n"
        assert from_file.stderr == f"error: {path}: not UTF-8 text (invalid start byte)\n".encode()

    def test_broken_pipe_on_a_stdout_without_a_descriptor(self):
        # an in-process stdout with no file descriptor is left as it is
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        out, err = ClosedPipe(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["magic", "--delta", "6", "--k", "2", "--c", "15"])
        assert (code, out.getvalue(), err.getvalue()) == (1, "", "")

    @pytest.mark.parametrize("text, error", READER_ERRORS)
    def test_first_of_several_faults_wins(self, capsys, graph_file, text, error):
        # each file has two or more faults; the reader names the same one,
        # in the same words, and complete exits 1 with it
        with pytest.raises((FormatError, ParameterError, RangeError)) as caught:
            parse_graph(text)
        assert f"{type(caught.value).__name__}: {caught.value}" == error
        code, out, err = run(capsys, "complete", graph_file("bad.graph", text))
        assert (code, out, err) == (1, "", f"error: {error.split(': ', 1)[1]}\n")

    def test_malformed_file(self, capsys, graph_file):
        path = graph_file("bad.graph", "params 6 2 15\nvertices 3\nedge 0 1\n")
        code, _, err = run(capsys, "complete", path)
        assert code == 1
        assert err.startswith("error: ")
        assert "line 3" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 1

    def test_module_entry_point(self, tmp_path):
        # one subprocess check that python -m wiring works
        proc = subprocess.run(
            [sys.executable, "-m", "metric_completer",
             "magic", "--delta", "6", "--k", "2", "--c", "15"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == MAGIC_TEXT
