"""Self-test of the benchmark's tracer: python3 -m pytest perfbench

The checks of the generators and output checkers run in every benchmark run
(checks.self_test) and feed its ``correct`` field."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracer import Tracer  # noqa: E402


def test_tracer_sees_nested_calls_and_restores_bindings():
    import metric_completer as mc
    from metric_completer import completion

    original = completion.violations
    tracer = Tracer(mc)
    tracer.install()
    try:
        assert completion.violations is not original
        mc.complete_magic(mc.cycle_graph((1, 1, 6, 6, 5)), mc.Params(6, 2, 15))
    finally:
        tracer.uninstall()
    assert completion.violations is original
    table = tracer.summary()
    magic = table["completion.complete_magic"]
    assert magic["calls"] == 1
    assert table["graphs.violations"]["calls"] == 2
    assert 0 < magic["self_s"] < magic["s"]
    assert table["params.classify_triangle"]["calls"] > 0
    assert tracer.children_of("completion.complete_magic", "graphs.violations") == 2
