"""Independent checks of the program's outputs, and self-tests of the checks.

Each check returns a list of problems; an empty list means the output is
correct.  The checks read the program's text output and use only the class
definition in ``inputs.py``.
"""

from __future__ import annotations

import itertools
import json

from inputs import (
    C,
    DELTA,
    K,
    allowed,
    canonical_cycle,
    graph_text,
    large_inputs,
    parse_edges,
    published_catalogue,
)


def check_completion(input_text: str, stdout: str) -> list[str]:
    """``complete --format json`` output of a completing input: input edges
    are kept, every pair is filled and no triangle is forbidden."""
    n, given = parse_edges(input_text)
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if payload.get("status") != "completed":
        return [f"status {payload.get('status')!r}, expected 'completed'"]
    dist = [[0] * n for _ in range(n)]
    for u, v, d in payload["edges"]:
        if not (0 <= u < v < n) or dist[u][v]:
            return [f"bad or repeated pair ({u}, {v})"]
        if not 1 <= d <= DELTA:
            return [f"distance {d} on ({u}, {v}) outside 1..{DELTA}"]
        dist[u][v] = dist[v][u] = d
    problems = []
    missing = sum(1 for u, v in itertools.combinations(range(n), 2) if not dist[u][v])
    if missing:
        problems.append(f"{missing} pairs left unfilled")
    for (u, v), d in given.items():
        if dist[u][v] != d:
            problems.append(f"input edge ({u}, {v}) = {d} changed to {dist[u][v]}")
    if problems:
        return problems
    ok = [[[allowed(a, b, c) for c in range(DELTA + 1)] for b in range(DELTA + 1)]
          for a in range(DELTA + 1)]
    for i, j in itertools.combinations(range(n), 2):
        row = ok[dist[i][j]]
        di, dj = dist[i], dist[j]
        for k in range(j + 1, n):
            if not row[di[k]][dj[k]]:
                problems.append(
                    f"forbidden triangle ({i}, {j}, {k}) = "
                    f"{dist[i][j]},{di[k]},{dj[k]}"
                )
                return problems
    return problems


def check_witness(input_text: str, stdout: str) -> list[str]:
    """``trace-obstacle`` output: the obstacle is one cycle, and its ``hom``
    sends every obstacle edge onto an input edge with the same label."""
    _, given = parse_edges(input_text)
    header = None
    edges = {}
    hom = None
    for line in stdout.splitlines():
        fields = line.split()
        if line.startswith("obstacle: cycle "):
            header = fields
        elif line.startswith("  edge "):
            u, v, d = (int(x) for x in fields[1:])
            edges[(u, v)] = d
        elif line.startswith("hom: "):
            hom = [int(pair.split("->")[1]) for pair in fields[1:]]
    if header is None or hom is None or not edges:
        return ["no obstacle, edge list or hom in the output"]
    size = int(header[3].lstrip("("))
    if len(hom) != size or len(edges) != size:
        return [f"obstacle of {size} vertices has {len(edges)} edges, hom of {len(hom)}"]
    problems = []
    for (u, v), d in sorted(edges.items()):
        x, y = hom[u], hom[v]
        if given.get((min(x, y), max(x, y))) != d:
            problems.append(f"obstacle edge ({u}, {v}) = {d} maps to non-edge ({x}, {y})")
    neighbours = {u: [] for u in range(size)}
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    if any(len(ws) != 2 for ws in neighbours.values()):
        return problems + ["obstacle is not a cycle"]
    walk = [0, neighbours[0][0]]
    while len(walk) < size:
        prev, here = walk[-2], walk[-1]
        walk.append(next(w for w in neighbours[here] if w != prev))
    if len(set(walk)) != size or walk[0] not in neighbours[walk[-1]]:
        return problems + ["obstacle is not a single cycle"]
    labels = [edges[(min(p, q), max(p, q))] for p, q in zip(walk, walk[1:] + walk[:1])]
    if "".join(map(str, canonical_cycle(labels))) != header[2].replace(",", ""):
        problems.append(f"printed cycle {header[2]} does not match its edges")
    return problems


def check_catalogue(stdout: str, stderr: str) -> list[str]:
    """``obstacles ... --n 6 --verify`` output: exactly the published n=6
    list, and a ``verified:`` line."""
    lines = stdout.splitlines()
    problems = []
    if not lines or lines[0] != f"catalogue {DELTA} {K} {C} 6 exhaustive":
        problems.append(f"unexpected header {lines[:1]}")
    entries = tuple(tuple(int(ch) for ch in line) for line in lines[1:])
    if entries != published_catalogue():
        problems.append(f"catalogue {entries} differs from the published list")
    if not any(line.startswith("verified: ") for line in stderr.splitlines()):
        problems.append("no verified: line")
    return problems


def selftest_generator(seed: int) -> list[str]:
    """The same seed gives byte-identical graph files; another seed does not."""
    first, again, other = large_inputs(seed), large_inputs(seed), large_inputs(seed + 1)
    problems = [f"{name} input differs between two generations"
                for name in first if first[name] != again[name]]
    problems += [f"{name} input is the same for seeds {seed} and {seed + 1}"
                 for name in first if first[name] == other[name]]
    return problems


def selftest_forbidden_triangle() -> list[str]:
    """check_completion accepts a valid completion and flags the same one
    with a single forbidden triangle injected."""
    n = 5
    given = {(0, 1): 1, (1, 2): 1}
    filled = {pair: 4 for pair in itertools.combinations(range(n), 2)}
    filled.update(given)
    filled[(0, 2)] = 2

    def output(edges):
        return json.dumps({"status": "completed",
                           "edges": [[u, v, d] for (u, v), d in sorted(edges.items())]})

    problems = []
    if check_completion(graph_text(n, given), output(filled)):
        problems.append("check_completion rejects a valid completion")
    filled[(0, 2)] = 6  # triangle 0,1,2 becomes 1,1,6: non-metric
    if not check_completion(graph_text(n, given), output(filled)):
        problems.append("check_completion misses an injected forbidden triangle")
    return problems


def selftest_dropped_entry() -> list[str]:
    """check_catalogue accepts the published list and flags it with one
    entry dropped."""
    entries = ["".join(map(str, cyc)) for cyc in published_catalogue()]
    header = f"catalogue {DELTA} {K} {C} 6 exhaustive"
    verified = f"verified: {len(entries)} entries, 20 sampled non-entries\n"
    problems = []
    if check_catalogue("\n".join([header] + entries) + "\n", verified):
        problems.append("check_catalogue rejects the published list")
    if not check_catalogue("\n".join([header] + entries[1:]) + "\n", verified):
        problems.append("check_catalogue misses a dropped entry")
    return problems


def self_test(seed: int) -> list[str]:
    return selftest_generator(seed) + selftest_forbidden_triangle() + selftest_dropped_entry()
