"""End-to-end command-line tests, run in process through cli.main."""

import json
import subprocess
import sys

import pytest

from metric_completer import Params, fork_choice, fork_range
from metric_completer.cli import main

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
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(FORK16))
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

    def test_runs_are_byte_stable(self, capsys, graph_file):
        path = graph_file("c11665.graph", C11665)
        first = run(capsys, "complete", path, "--format", "json")
        second = run(capsys, "complete", path, "--format", "json")
        assert first == second


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

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "cat.txt"
        code, out, _ = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "3", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == CATALOGUE_3

    def test_substitution_method(self, capsys):
        code, out, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "4", "--method", "substitution",
        )
        assert code == 0
        assert out.startswith("catalogue 6 2 15 4 substitution\n")
        assert err == "n=4: 22 cycles (substitution)\n"

    def test_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys, "obstacles", "--delta", "6", "--k", "2", "--c", "15",
            "--n", "6", "--budget", "10",
        )
        assert code == 3
        assert err == "error: 46656 label sequences exceed the budget of 10\n"

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


class TestErrors:
    def test_unacceptable_params(self, capsys):
        code, _, err = run(capsys, "magic", "--delta", "6", "--k", "7", "--c", "15")
        assert code == 1
        assert err == "error: unacceptable parameters delta=6 k=7 c=15: k exceeds delta\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "complete", str(tmp_path / "nope.graph"))
        assert code == 1
        assert "No such file or directory" in err

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
