"""Benchmark of the metric_completer package, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: complete-large, catalogue, oracle-sweep (see workloads.py and
README.md).  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the workload untraced for half of ``--seconds``, replays
the same operations with every public function of the package wrapped, and
reports the per-layer metrics.  Either way outputs are checked outside the
timed section, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the package
sources under ``src/`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"  # generated graph files and span dumps; not committed
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 25


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str:
    """The checked-out commit when the root is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package's Python sources, which identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "metric_completer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(workload) -> list[tuple[float, float]]:
    """Seconds a fresh interpreter takes to import the package and make the
    workload's warm-up call, once per repeat, each with the median of three
    Speedometer samples the same interpreter takes right after; the first
    run only fills the bytecode cache and is discarded."""
    code = (
        "import contextlib, io, sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        + workload.warmup
        + "setup_s = time.perf_counter() - t0\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import workloads\n"
        "print(setup_s, workloads.Speedometer().sample(repeats=3))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        child = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up run failed: {child.stderr.strip()}")
        setup_s, speed_s = map(float, child.stdout.split())
        times.append((setup_s, speed_s))
    return times[1:]


def p90(samples: list[float]) -> float:
    """The inclusive method stays within the samples: with the few samples
    of the CLI workloads the default one extrapolates past the largest."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(run, setup_times, peak_rss_mb, scaled: bool) -> dict:
    """Timing metrics at the reference interpreter speed when ``scaled``,
    else as measured; memory as measured.
    Each set-up time is scaled by the speed its own interpreter measured."""
    from workloads import SPEED_REFERENCE_S

    setup = [setup_s * SPEED_REFERENCE_S / speed_s if scaled else setup_s
             for setup_s, speed_s in setup_times]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (run.units / run.busy_s(scaled), "1/s"),
        "item_ms.p50": (statistics.median(run.samples_ms(scaled)), "ms"),
        "item_ms.p90": (p90(run.samples_ms(scaled)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced, untraced, workload) -> dict:
    """Per-layer metrics per work item of the traced replay, times at the
    reference speed; README.md notes the end-to-end metric each should move."""
    table = tracer.summary()
    items = traced.units
    scale = traced.speed_scale()

    def stat(name, key):
        value = table.get(name, {}).get(key, 0) / items
        return value if key == "calls" else value * scale

    violations_s = stat("graphs.violations", "s") * items
    decided = tracer.children_of("obstacles.enumerate_obstacle_cycles",
                                 "completion.complete_magic")
    kept = workload.obstacles_kept(traced)
    return {
        "graphs.violations.s": (stat("graphs.violations", "s"), "s/item"),
        "graphs.violations.calls": (stat("graphs.violations", "calls"), "calls/item"),
        "graphs.violations.triangles_per_s": (
            tracer.triangles / violations_s if violations_s else 0.0, "1/s"),
        "completion.complete_magic.self_s": (
            stat("completion.complete_magic", "self_s"), "s/item"),
        "completion.complete_magic.calls": (
            stat("completion.complete_magic", "calls"), "calls/item"),
        "params.validate_params.calls": (stat("params.validate_params", "calls"), "calls/item"),
        "params.classify_triangle.calls": (
            stat("params.classify_triangle", "calls"), "calls/item"),
        "params.require_acceptable.calls": (
            stat("params.require_acceptable", "calls"), "calls/item"),
        "graphs.canonical_cycle.calls": (stat("graphs.canonical_cycle", "calls"), "calls/item"),
        "graphs.canonical_cycle.s": (stat("graphs.canonical_cycle", "s"), "s/item"),
        "completion.oracle_complete.calls": (
            stat("completion.oracle_complete", "calls"), "calls/item"),
        "completion.oracle_complete.s": (stat("completion.oracle_complete", "s"), "s/item"),
        "graphs.automorphisms.s": (stat("graphs.automorphisms", "s"), "s/item"),
        "obstacles.obstacle_trace.self_s": (
            stat("obstacles.obstacle_trace", "self_s"), "s/item"),
        "obstacles.hit_ratio": (kept / decided if decided else 0.0, "ratio"),
        "cli.main.self_s": (stat("cli.main", "self_s"), "s/item"),
        "params.fork_families.s": (stat("params.fork_families", "s"), "s/item"),
        "trace.overhead_frac": (
            traced.busy_s(scaled=True) / untraced.busy_s(scaled=True) - 1.0, "frac"),
    }


def clear_caches(package) -> None:
    """Empty every functools cache in the package's modules, so that a replay
    does the same cold-start work (fork families, allowed-triangle tables) as
    the run it repeats."""
    from tracer import LAYERS

    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def check_recorded(workload, run, seed: int) -> None:
    """Compare input and output digests with those recorded in digests.json.

    Outputs of seed-independent workloads are compared on every seed; those
    of seeded inputs only on the recorded seed."""
    recorded = json.loads(DIGESTS.read_text())
    if workload.seeded and seed != recorded["seed"]:
        return
    mine = recorded[workload.name]
    for name, digest in workload.input_digests().items():
        if mine["inputs"][name] != digest:
            run.wrong(name, f"input {name} sha256 {digest}, recorded {mine['inputs'][name]}")
    for name, digest in run.digests.items():
        if mine["stdout"][name] != digest:
            run.wrong(name, f"{name} stdout sha256 {digest}, recorded {mine['stdout'][name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    package_dir = SRC / "metric_completer"
    if not (package_dir / "__init__.py").is_file():
        print(f"error: no package sources at {package_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("metric_completer")
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        print(f"error: imported {package.__file__}, not {package_dir}", file=sys.stderr)
        return 2

    import checks
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT)
    problems = checks.self_test(args.seed)
    setup_times = [] if args.trace else measure_setup(workload)

    budget = args.seconds / 2 if args.trace else args.seconds
    minimum = workload.min_operations()
    run = workload.run(lambda done, elapsed: done >= minimum and elapsed >= budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check(run)
    check_recorded(workload, run, args.seed)
    attempted, failed = run.operations, run.failed
    problems += run.problems

    if args.trace:
        clear_caches(package)
        tracer = Tracer(package)
        tracer.install()
        try:
            traced = workload.run(lambda done, _: done >= run.operations,
                                  reference=run.reference)
        finally:
            tracer.uninstall()
        attempted += traced.operations
        failed += traced.failed
        problems += traced.problems
        metrics = per_layer(tracer, traced, run, workload)
        tracer.write(OUT / f"spans-{workload.name}.tsv.gz")
    else:
        metrics = end_to_end(run, setup_times, peak_rss_mb, scaled=True)
        unscaled = end_to_end(run, setup_times, peak_rss_mb, scaled=False)

    meta = {
        "workload": workload.name,
        "why": workload.why,
        "unit": workload.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.sizes(),
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "setup_samples_s": setup_times,  # (set-up, speed sample) per interpreter
    }
    if not args.trace:
        meta["speed_scale"] = run.speed_scale()
        meta["unscaled"] = {name: value for name, (value, _) in unscaled.items()}
    print("meta " + json.dumps(meta))
    for problem in problems:
        print("problem: " + problem)
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
