"""The three benchmark workloads.

Each is a closed loop with one caller on one thread: the next operation
starts when the previous one returns.  ``run`` executes operations until
``stop(operations_done, wall_seconds)`` says so and returns a ``Run``;
``check`` then inspects the outputs outside the timed section.  Only the call
into the package is timed; capturing and hashing outputs is not.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field

import checks
from inputs import C, DELTA, K, allowed, canonical_cycle_count, large_inputs, parse_edges

# Seconds one speed sample takes at the reference interpreter speed.
SPEED_REFERENCE_S = 0.02
SPEED_SIZE = 120


class Speedometer:
    """Samples how fast the interpreter runs, between operations.

    One sample times a fixed loop that uses no package code: it classifies
    every triangle of a fixed 120-vertex distance matrix against the class,
    allocating no objects the garbage collector tracks.  On a shared machine
    the interpreter's speed changes by up to 2x within seconds; the loop
    slows down with it, so a time scaled by SPEED_REFERENCE_S over the mean
    of the samples taken just before and just after it stays comparable
    across runs.
    """

    def __init__(self):
        rng = random.Random("speed")
        self.matrix = [[rng.randint(1, DELTA) for _ in range(SPEED_SIZE)]
                       for _ in range(SPEED_SIZE)]
        self.table = [[[allowed(a, b, c) for c in range(DELTA + 1)]
                       for b in range(DELTA + 1)] for a in range(DELTA + 1)]

    def sample(self, repeats: int = 1) -> float:
        """Seconds the loop takes, the median of ``repeats`` runs."""
        return statistics.median(self._loop() for _ in range(repeats))

    def _loop(self) -> float:
        m, table, n = self.matrix, self.table, SPEED_SIZE
        t0 = time.perf_counter()
        forbidden = 0
        for i in range(n):
            mi = m[i]
            for j in range(i + 1, n):
                row = table[mi[j]]
                mj = m[j]
                for k in range(j + 1, n):
                    if not row[mi[k]][mj[k]]:
                        forbidden += 1
        return time.perf_counter() - t0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Run:
    operations: int = 0
    units: float = 0.0  # work items behind items_per_s
    # Each stretch of time spent inside the package, and the index of the
    # Speedometer sample taken last before it.
    elapsed_s: array = field(default_factory=lambda: array("d"))
    speed_index: array = field(default_factory=lambda: array("i"))
    # One latency sample per entry: stretches [start, end) over `items` items.
    sample_start: array = field(default_factory=lambda: array("i"))
    sample_end: array = field(default_factory=lambda: array("i"))
    sample_items: array = field(default_factory=lambda: array("d"))
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # output name -> sha256
    operations_by_output: dict[str, int] = field(default_factory=dict)
    failed_by_output: dict[str, int] = field(default_factory=dict)
    wrong_outputs: set[str] = field(default_factory=set)  # all their operations fail
    reference: object = None  # what a replay of this run must reproduce
    speed_s: list[float] = field(default_factory=list)  # Speedometer samples

    def timed(self, elapsed: float) -> None:
        self.elapsed_s.append(elapsed)
        self.speed_index.append(len(self.speed_s) - 1)

    def latency_sample(self, start: int, items: float) -> None:
        """The stretches from index ``start`` on make one latency sample."""
        self.sample_start.append(start)
        self.sample_end.append(len(self.elapsed_s))
        self.sample_items.append(items)

    def _factors(self, scaled: bool) -> list[float]:
        """Per speed sample, the factor for the stretches timed after it:
        SPEED_REFERENCE_S over the mean of it and the next sample."""
        s = self.speed_s
        if not scaled:
            return [1.0] * len(s)
        return [2 * SPEED_REFERENCE_S / (a + b) for a, b in zip(s, s[1:])] + [
            SPEED_REFERENCE_S / s[-1]]

    def _stretches(self, scaled: bool) -> list[float]:
        f = self._factors(scaled)
        return [e * f[i] for e, i in zip(self.elapsed_s, self.speed_index)]

    def busy_s(self, scaled: bool = False) -> float:
        """Time spent inside the package, at the reference interpreter speed
        when ``scaled``."""
        return math.fsum(self._stretches(scaled))

    def samples_ms(self, scaled: bool = False) -> list[float]:
        """Per-item latency samples, at the reference speed when ``scaled``."""
        stretches = self._stretches(scaled)
        return [1000.0 * math.fsum(stretches[a:b]) / items for a, b, items
                in zip(self.sample_start, self.sample_end, self.sample_items)]

    def speed_scale(self) -> float:
        """The factor that brings the run's time inside the package to the
        reference interpreter speed."""
        return self.busy_s(scaled=True) / self.busy_s()

    def fail(self, name: str, problem: str) -> None:
        """One operation that produces output ``name`` went wrong."""
        self.failed_by_output[name] = self.failed_by_output.get(name, 0) + 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def wrong(self, name: str, problem: str) -> None:
        """Output ``name`` is wrong, so every operation producing it failed."""
        self.wrong_outputs.add(name)
        self.problems.append(problem)

    @property
    def failed(self) -> int:
        return sum(
            count if name in self.wrong_outputs else self.failed_by_output.get(name, 0)
            for name, count in self.operations_by_output.items()
        )


@dataclass(frozen=True)
class CliCall:
    name: str
    argv: tuple[str, ...]


class CliWorkload:
    """Calls ``metric_completer.cli.main`` in process, cycling through a
    fixed list of command lines, with stdout and stderr captured.

    A run stops only after whole rounds through the list, so every run does
    the same mix.  One latency sample is the mean time per work item over one
    round: the calls of a round differ in cost, and pooling them would put
    the median between two clusters.
    """

    calls: tuple[CliCall, ...] = ()
    units_per_call = 1.0
    # set-up: import the CLI and print the schedule of the workload's triple
    warmup = (
        "from metric_completer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main(['magic', '--delta', '{DELTA}', '--k', '{K}', '--c', '{C}'])\n"
    )

    def run(self, stop, reference: dict[str, str] | None = None) -> Run:
        """``reference`` maps call names to the stdout digests every call
        must reproduce; by default, the first call of each name sets it."""
        cli = importlib.import_module("metric_completer.cli")
        run = Run()
        self.outputs: dict[str, tuple[int, str, str]] = {}
        expected = dict(reference or {})
        speed = Speedometer()
        begin = time.perf_counter()
        round_start = 0
        while True:
            run.speed_s.append(speed.sample(repeats=3))
            call = self.calls[run.operations % len(self.calls)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(list(call.argv))
                except Exception as exc:  # a crash fails this operation only
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
            run.operations += 1
            run.timed(elapsed)
            run.units += self.units_per_call
            digest = sha256(out.getvalue())
            self.outputs.setdefault(call.name, (code, out.getvalue(), err.getvalue()))
            expected.setdefault(call.name, digest)
            run.digests.setdefault(call.name, digest)
            run.operations_by_output[call.name] = run.operations_by_output.get(call.name, 0) + 1
            if code != 0 or digest != expected[call.name]:
                run.fail(call.name, f"{call.name}: exit {code}, stdout sha256 {digest}"
                                    f" (expected exit 0, {expected[call.name]})")
            if run.operations % len(self.calls):
                continue
            run.latency_sample(round_start, self.units_per_call * len(self.calls))
            round_start = len(run.elapsed_s)
            if stop(run.operations, time.perf_counter() - begin):
                run.speed_s.append(speed.sample(repeats=3))
                run.reference = expected
                return run

    def check(self, run: Run) -> None:
        """Check the first output of each call; a wrong output fails every
        call that reproduced it."""
        for name, (code, stdout, stderr) in self.outputs.items():
            for problem in self.check_output(name, stdout, stderr):
                run.wrong(name, f"{name}: {problem}")

    def min_operations(self) -> int:
        return len(self.calls)

    def obstacles_kept(self, run: Run) -> int:
        return 0


class CompleteLarge(CliWorkload):
    """``complete --format json`` on a labelled tree and ``trace-obstacle``
    on a sparse graph holding an obstacle, both with LARGE_N vertices."""

    name = "complete-large"
    unit = "CLI calls"
    seeded = True
    why = ("n=150 tree completion and sparse-graph trace-obstacle via cli.main: "
           "the violation scan and the insertion loop do nearly all the work")

    def __init__(self, seed: int, workdir):
        self.inputs = large_inputs(seed)
        self.paths = {}
        for name, text in self.inputs.items():
            path = workdir / f"{self.name}-{seed}-{name}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            self.paths[name] = path
        self.calls = (
            CliCall("tree", ("complete", str(self.paths["tree"]), "--format", "json")),
            CliCall("sparse", ("trace-obstacle", str(self.paths["sparse"]))),
        )

    def check_output(self, name, stdout, stderr):
        if name == "tree":
            return checks.check_completion(self.inputs["tree"], stdout)
        return checks.check_witness(self.inputs["sparse"], stdout)

    def input_digests(self) -> dict[str, str]:
        return {name: sha256(text) for name, text in self.inputs.items()}

    def sizes(self) -> dict:
        sizes = {}
        for name, text in self.inputs.items():
            n, edges = parse_edges(text)
            sizes[name] = {"vertices": n, "edges": len(edges)}
        return sizes


class Catalogue(CliWorkload):
    """``obstacles --delta 6 --k 2 --c 15 --n 6 --verify``; the work unit is
    one canonical 6-cycle decided by the engine."""

    name = "catalogue"
    unit = "canonical cycles decided"
    seeded = False
    why = ("obstacles --n 6 --verify: 4291 engine calls on 6-cycles, so per-call "
           "cost (validation, canonical_cycle) dominates")
    size = 6

    def __init__(self, seed: int, workdir):
        argv = ("obstacles", "--delta", str(DELTA), "--k", str(K), "--c", str(C),
                "--n", str(self.size), "--verify")
        self.calls = (CliCall("catalogue", argv),)
        self.units_per_call = float(canonical_cycle_count(DELTA, self.size))

    def check_output(self, name, stdout, stderr):
        return checks.check_catalogue(stdout, stderr)

    def obstacles_kept(self, run: Run) -> int:
        entries = len(self.outputs["catalogue"][1].splitlines()) - 1
        return entries * run.operations

    def input_digests(self) -> dict[str, str]:
        return {}

    def sizes(self) -> dict:
        return {"delta": DELTA, "k": K, "c": C, "n": self.size,
                "cycles_per_call": int(self.units_per_call)}


def acceptable_triples(delta: int):
    for k in range(1, delta + 1):
        for c in range(2 * delta + k + 1, 3 * delta + 2):
            yield delta, k, c


class OracleSweep:
    """The criteria-7/8/10 sweep at delta <= MAX_DELTA through library calls.

    An instance is one acceptable triple and one universe graph: every
    partial graph on at most 4 vertices and every canonical labelled cycle of
    length 5 and 6.  For each instance the oracle decides completability;
    then for every magic distance the engine must agree, every oracle
    completion must stay on the engine's side of the magic distance (each
    excluded value is pinned as an input edge and refused by the oracle), and
    the completion must keep the graph's automorphisms.  Building the
    universe, automorphisms included, is timed once per pass.
    """

    name = "oracle-sweep"
    unit = "sweep instances"
    speed_every = 1000  # instances between speed samples, about 0.2 s of work
    seeded = False
    why = ("criteria-7/8/10 sweep at delta<=3 via library calls: oracle DFS and "
           "engine per-call overhead on graphs of at most 6 vertices")
    max_delta = 3
    # set-up: import the package and complete one cycle at a swept triple
    warmup = (
        "import metric_completer as mc\n"
        "mc.complete_magic(mc.cycle_graph((1, 1, 1, 1, 1)), mc.Params(3, 1, 8))\n"
    )

    def __init__(self, seed: int, workdir):
        self.instances_per_pass = sum(
            len(list(acceptable_triples(d))) * self._universe_size(d)
            for d in range(2, self.max_delta + 1)
        )
        self.order = list(range(self.instances_per_pass))
        random.Random(f"sweep:{seed}").shuffle(self.order)

    @staticmethod
    def _universe_size(delta: int) -> int:
        small = sum((delta + 1) ** (n * (n - 1) // 2) for n in (1, 2, 3, 4))
        return small + sum(canonical_cycle_count(delta, n) for n in (5, 6))

    def _universe(self, mc, delta: int):
        universe = []
        for n in (1, 2, 3, 4):
            pairs = list(itertools.combinations(range(n), 2))
            for labels in itertools.product(range(delta + 1), repeat=len(pairs)):
                g = mc.EdgeLabelledGraph(
                    n, [(u, v, d) for (u, v), d in zip(pairs, labels) if d])
                universe.append((g, mc.automorphisms(g), g.non_edges()))
        seen = set()
        for n in (5, 6):
            for seq in itertools.product(range(1, delta + 1), repeat=n):
                cyc = mc.canonical_cycle(seq)
                if cyc not in seen:
                    seen.add(cyc)
                    g = mc.cycle_graph(cyc)
                    universe.append((g, mc.automorphisms(g), g.non_edges()))
        return universe

    @staticmethod
    def _instance(mc, par, g, autos, holes):
        """Returns (agrees, outcomes): whether the engine passed every check,
        and the oracle decision followed by (magic, completion or verdict)."""
        agrees = True
        completable = mc.oracle_complete(g, par) is not None
        outcomes = [completable]
        pinned_cache = {}
        for magic in mc.magic_distances(par):
            res = mc.complete_magic(g, par, magic)
            done = res.status is mc.CompletionStatus.COMPLETED
            if done != completable:
                agrees = False
                outcomes.append((magic, "disagree"))
                continue
            if not done:
                outcomes.append((magic, "failed"))
                continue
            final = res.trace.final_graph
            outcomes.append((magic, final))
            for u, v in holes:
                mid = final.distance(u, v)
                if mid > magic:
                    wrong = range(1, mid)
                elif mid < magic:
                    wrong = range(mid + 1, par.delta + 1)
                else:
                    continue
                for w in wrong:
                    key = (u, v, w)
                    if key not in pinned_cache:
                        pinned = mc.EdgeLabelledGraph(
                            g.vertex_count,
                            [(x, y, d) for (x, y), d in g.edges.items()] + [(u, v, w)],
                        )
                        pinned_cache[key] = mc.oracle_complete(pinned, par) is not None
                    if pinned_cache[key]:
                        agrees = False
            for phi in autos:
                if any(final.distance(phi[u], phi[v]) != final.distance(u, v)
                       for u, v in final.pairs()):
                    agrees = False
        return agrees, outcomes

    @staticmethod
    def _record(outcomes) -> str:
        """One line per instance: "c" or "n" for the oracle's decision, then
        for each magic distance the completion's labels in pair order."""
        if isinstance(outcomes, Exception):
            return f"error {type(outcomes).__name__}: {outcomes}"
        completable, *per_magic = outcomes
        parts = ["c" if completable else "n"]
        for magic, result in per_magic:
            if isinstance(result, str):
                parts.append(f"{magic}:{result}")
            else:
                parts.append(f"{magic}:" + "".join(
                    str(d) for _, d in sorted(result.edges.items())))
        return " ".join(parts)

    def run(self, stop, reference: list[str] | None = None) -> Run:
        """``reference`` holds the record every instance must reproduce; by
        default, the first pass sets it."""
        mc = importlib.import_module("metric_completer")
        run = Run()
        records = list(reference) if reference else [None] * self.instances_per_pass
        self.records = records
        speed = Speedometer()
        begin = time.perf_counter()
        while True:
            run.speed_s.append(speed.sample())
            t0 = time.perf_counter()
            instances = []
            for delta in range(2, self.max_delta + 1):
                universe = self._universe(mc, delta)
                for delta_k_c in acceptable_triples(delta):
                    par = mc.Params(*delta_k_c)
                    instances.extend((par,) + item for item in universe)
            run.timed(time.perf_counter() - t0)
            if len(instances) != self.instances_per_pass:
                raise RuntimeError(f"universe has {len(instances)} instances, "
                                   f"expected {self.instances_per_pass}")
            for position, index in enumerate(self.order, 1):
                if position % self.speed_every == 0:
                    run.speed_s.append(speed.sample())
                t0 = time.perf_counter()
                try:
                    agrees, outcomes = self._instance(mc, *instances[index])
                except Exception as exc:  # a crash fails this instance only
                    agrees, outcomes = False, exc
                elapsed = time.perf_counter() - t0
                record = self._record(outcomes)
                run.operations += 1
                run.units += 1
                run.timed(elapsed)
                run.latency_sample(len(run.elapsed_s) - 1, 1)
                if records[index] is None:
                    records[index] = record
                if not agrees or record != records[index]:
                    par, g = instances[index][:2]
                    run.fail("results", f"instance {par} {g!r}: {record}")
                if stop(run.operations, time.perf_counter() - begin):
                    run.speed_s.append(speed.sample())
                    run.digests["results"] = self._digest(instances, records)
                    run.operations_by_output["results"] = run.operations
                    run.reference = records
                    return run

    @staticmethod
    def _digest(instances, records) -> str:
        lines = [
            f"{par.delta} {par.k} {par.c} {g.vertex_count} "
            f"{sorted(g.edges.items())} {record}"
            for (par, g, _, _), record in zip(instances, records)
        ]
        return sha256("\n".join(lines))

    def check(self, run: Run) -> None:
        if None in self.records:
            run.wrong("results", "the run did not finish one full pass")

    def min_operations(self) -> int:
        return self.instances_per_pass

    def obstacles_kept(self, run: Run) -> int:
        return 0

    def input_digests(self) -> dict[str, str]:
        return {}

    def sizes(self) -> dict:
        return {"max_delta": self.max_delta,
                "instances_per_pass": self.instances_per_pass}


WORKLOADS = {w.name: w for w in (CompleteLarge, Catalogue, OracleSweep)}
