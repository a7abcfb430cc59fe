"""Every name a library module imports is used in that module, every
private name a library module defines is read by the library, no library
module imports the test-only code, the library imports nothing beyond the
standard library and itself, nor the gc module, one function classifies
triangles, the vertex cap is raised only where the distance matrix is
built, a catalogue's entries are checked only where it is built, a
completion's trace and result are built only through their constructors,
in the engine's module, that module builds no graph through the
checked constructor, and the search budget's default and refusal are
written only beside CapacityError."""

import ast
import sys
from pathlib import Path

import pytest

import metric_completer

PACKAGE = Path(metric_completer.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.rglob("*.py"))  # every library module, __init__ too
TEST_ONLY = {"tests", "oracles"}
OWN = metric_completer.__name__


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of ``source``
    reads; ``from __future__`` imports are compiler directives and exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def private_names(tree: ast.Module) -> dict[str, int]:
    """Module-level names of ``tree`` with one leading underscore, bound by
    def, class or assignment (tuple unpacking included), with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                (name.id, name.lineno)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
        else:
            continue
        for name, line in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, line)
    return bound


def dead_privates(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module of ``sources``, the private module-level names it binds
    that no module of ``sources`` reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {
        module: [
            f"{name} (line {line})"
            for name, line in private_names(tree).items()
            if name not in read
        ]
        for module, tree in trees.items()
    }


LIBRARY = {path.name: path.read_text() for path in SOURCES}


def test_scan_flags_a_dead_private():
    sources = {
        "a.py": (
            "def _read(): pass\n"
            "def _dead(): _dead()\n"
            "class _Shape: pass\n"
            "_x, (_y, z) = 1, (2, 3)\n"
            "_n: int = 0\n"
            "__all__ = []\n"
            "def public(): _unset = 1\n"
            "_LIMIT = 5\n"
        ),
        "b.py": "from .a import _read, _Shape\nimport a\n_read()\nprint(a._LIMIT, _y)\n",
    }
    # _dead reads itself, which counts; a local _unset is not module-level
    assert dead_privates(sources) == {
        "a.py": ["_Shape (line 3)", "_x (line 4)", "_n (line 5)"],
        "b.py": [],
    }


def test_scan_flags_an_orphaned_library_helper():
    # a private that only a test reads is dead: tests are not scanned
    sources = dict(LIBRARY)
    sources["completion.py"] += "\n\ndef _orphaned_values(g, params, budget):\n    pass\n"
    dead = dead_privates(sources)["completion.py"]
    assert dead == [f"_orphaned_values (line {len(sources['completion.py'].splitlines()) - 1})"]


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_no_dead_privates(name):
    assert dead_privates(LIBRARY)[name] == []


def imports_of(source: str, names: set[str]) -> list[str]:
    """Import statements of ``source`` that reach a module named in
    ``names``, under any package path, relative ones included."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(names & set(name.split(".")) for name in modules):
            out.append(f"line {node.lineno}")
    return out


def imports_of_test_code(source: str) -> list[str]:
    """Import statements of ``source`` that reach into ``tests`` or ``oracles``."""
    return imports_of(source, TEST_ONLY)


def test_scan_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom .x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_module_is_scanned():
    names = {p.name for p in MODULES}
    assert {"cli.py", "completion.py", "graphs.py", "obstacles.py", "params.py"} <= names


def test_scan_flags_imports_of_test_code():
    source = (
        "import oracles\n"
        "from tests.oracles import x\n"
        "from . import oracles\n"
        "import os.path\n"
        "from .graphs import violations\n"
    )
    assert imports_of_test_code(source) == ["line 1", "line 2", "line 3"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_does_not_import_test_code(path):
    assert imports_of_test_code(path.read_text()) == []


def test_scan_flags_an_import_of_gc():
    source = (
        "import gc\n"
        "def f():\n"
        "    from gc import disable\n"
        "import os, gc as collector\n"
        "from . import graphs\n"
    )
    assert imports_of(source, {"gc"}) == ["line 1", "line 4", "line 3"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_never_touches_gc(path):
    # the result path stays light on the collector through what it
    # allocates; no library module switches or tunes the collector
    assert imports_of(path.read_text(), {"gc"}) == []


def test_every_source_is_scanned():
    names = {p.name for p in SOURCES}
    assert {"__init__.py", "__main__.py", "obstacles.py", "params.py"} <= names


def imports_beyond_stdlib(source: str) -> list[str]:
    """Top-level modules that ``source`` imports absolutely and that are
    neither in the standard library nor the package itself."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        for name in modules:
            top = name.split(".")[0]
            if top != OWN and top not in sys.stdlib_module_names:
                out.append(f"{top} (line {node.lineno})")
    return out


def test_scan_flags_imports_beyond_stdlib():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from hypothesis import given\n"
        "from . import graphs\n"
        "from .params import Params\n"
        "from metric_completer.errors import RangeError\n"
        "import xml.etree.ElementTree\n"
    )
    assert imports_beyond_stdlib(source) == ["numpy (line 2)", "hypothesis (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_only_stdlib(path):
    assert imports_beyond_stdlib(path.read_text()) == []


def nodes_by_def(sources: dict[str, str]):
    """Yield ``(module, function, node)`` for every node of ``sources``,
    parents first, with the innermost enclosing def; a node outside any def
    is under ``<module>``."""

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        yield module, where, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, module, where)

    for module, source in sorted(sources.items()):
        yield from visit(ast.parse(source), module, "<module>")


def callers_of(sources: dict[str, str], name: str, owner: str | None = None) -> list[str]:
    """``module:function`` for each call of ``name`` in ``sources``, by
    name or as an attribute, named after the innermost enclosing def;
    a call outside any def is under ``<module>``.  With ``owner``, only
    the calls ``owner.name(...)`` count."""
    out = []
    for module, where, node in nodes_by_def(sources):
        if isinstance(node, ast.Call):
            func = node.func
            if owner is None:
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            else:
                held = getattr(getattr(func, "value", None), "id", None)
                called = getattr(func, "attr", None) if held == owner else None
            if called == name:
                out.append(f"{module}:{where}")
    return out


def raisers_of(sources: dict[str, str], exception: str, reading: str) -> list[str]:
    """``module:function``, as callers_of names it, for each ``raise
    exception(...)`` in ``sources`` whose arguments read the name
    ``reading``."""
    out = []
    for module, where, node in nodes_by_def(sources):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == exception:
            read = {n.id for arg in exc.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
            if reading in read:
                out.append(f"{module}:{where}")
    return out


def test_scan_finds_every_caller():
    sources = {
        "a.py": (
            "from .p import f\n"
            "f(1)\n"
            "def outer():\n"
            "    def inner():\n"
            "        return p.f(2)\n"
            "    return [f(x) for x in g()]\n"
        ),
        "b.py": "def h():\n    return f\n",
    }
    assert callers_of(sources, "f") == ["a.py:<module>", "a.py:inner", "a.py:outer"]


def test_scan_finds_every_raise_reading_a_name():
    sources = {
        "a.py": (
            "raise CapacityError(f'{n} over {CAP}')\n"
            "class G:\n"
            "    def matrix(self):\n"
            "        if self.n > CAP:\n"
            "            raise CapacityError(f'{self.n} over {CAP}')\n"
            "        raise CapacityError('other cap')\n"
            "def check(n):\n"
            "    raise RangeError(f'{n} over {CAP}')\n"
        ),
    }
    assert raisers_of(sources, "CapacityError", "CAP") == ["a.py:<module>", "a.py:matrix"]


def test_the_vertex_cap_is_raised_only_where_the_matrix_is_built():
    # the engine, the baseline, violations and the oracle all build their
    # n-by-n matrix through EdgeLabelledGraph.matrix, which holds the cap
    assert raisers_of(LIBRARY, "CapacityError", "MAX_VERTICES") == ["graphs.py:matrix"]


def test_triangles_are_classified_only_into_the_table():
    # every other reader of "is this triangle allowed" goes through
    # params._triangle_table, the one source of truth
    assert callers_of(LIBRARY, "classify_triangle") == ["params.py:_triangle_table"]


def test_forbidden_triangles_are_listed_by_two_scans_only():
    # violations reads every forbidden triangle through the row scan below
    # BITSET_MIN_VERTICES and one bitset walk from there on
    assert callers_of(LIBRARY, "TriangleViolation") == ["graphs.py:_row_scan", "graphs.py:_walk"]


def test_catalogue_entries_are_canonicalized_only_where_built():
    # ObstacleCatalogue checks its entries once, when built; the parser, the
    # verifier and the sampler rely on that.  The other callers read an
    # obstacle off a back-trace and canonicalize substitution candidates
    assert callers_of(LIBRARY, "canonical_cycle") == [
        "obstacles.py:cycle_labels",
        "obstacles.py:__post_init__",
        "obstacles.py:enumerate_obstacle_cycles",
    ]


def test_scan_finds_calls_through_an_owner():
    sources = {
        "a.py": (
            "def make(cls):\n"
            "    return object.__new__(cls)\n"
            "def step():\n"
            "    return tuple.__new__(T, (1,))\n"
            "def outer():\n"
            "    def inner():\n"
            "        return object.__new__(T)\n"
        ),
    }
    assert callers_of(sources, "__new__", "object") == ["a.py:make", "a.py:inner"]
    assert callers_of(sources, "__new__") == ["a.py:make", "a.py:step", "a.py:inner"]


def test_completion_results_are_built_by_their_constructors_in_completion():
    # every producer builds the one trace form through its constructor, in
    # the engine's module; only the graph's trusted constructor bypasses
    # __init__
    for name in ("CompletionTrace", "CompletionResult"):
        callers = callers_of(LIBRARY, name)
        assert callers and all(c.startswith("completion.py:") for c in callers), name
    assert callers_of(LIBRARY, "__new__", "object") == ["graphs.py:_trusted"]


def test_completion_builds_no_graph_through_the_checked_constructor():
    # every graph the engine's module builds comes from input it has checked
    # already, so it takes the trusted constructor
    callers = callers_of(LIBRARY, "EdgeLabelledGraph")
    assert [c for c in callers if c.startswith("completion.py:")] == []


def budget_rule_sites(sources: dict[str, str]) -> list[str]:
    """``module:function what`` for each piece of the search budget rule in
    ``sources``: the default 10**8, as a power or as its value; a
    CapacityError built with a text naming "the budget of"; and an import of
    a private name from the completion module."""
    out = []
    for module, where, node in nodes_by_def(sources):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            sides = (node.left, node.right)
            if all(isinstance(side, ast.Constant) for side in sides):
                if node.left.value**node.right.value == 10**8:
                    out.append(f"{module}:{where} {ast.unparse(node)}")
        elif isinstance(node, ast.Constant) and node.value == 10**8:
            out.append(f"{module}:{where} {node.value}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CapacityError":
            texts = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant)]
            if any("the budget of" in str(text) for text in texts):
                out.append(f"{module}:{where} refusal")
        elif isinstance(node, ast.ImportFrom):
            if node.module not in ("completion", f"{OWN}.completion"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.append(f"{module}:{where} imports {alias.name}")
    return out


def test_scan_finds_every_piece_of_the_budget_rule():
    sources = {
        "a.py": (
            "from .completion import _count, oracle_complete\n"
            "from metric_completer.completion import _over\n"
            "from .errors import _check_budget\n"
            "def f(budget=10**8, cap=100000000):\n"
            "    raise CapacityError(f'{n} sequences exceed the budget of {budget}')\n"
            "def g():\n"
            "    raise CapacityError('over the cap')\n"
            "    return 10**9, 2**8, 10**x\n"
        ),
    }
    assert budget_rule_sites(sources) == [
        "a.py:<module> imports _count",
        "a.py:<module> imports _over",
        "a.py:f 10 ** 8",
        "a.py:f 100000000",
        "a.py:f refusal",
    ]


def test_the_budget_rule_sits_beside_capacity_error():
    # one default for --budget and the library's searches, one check that
    # refuses a count over the budget; obstacles reaches into no private
    # name of completion for either
    assert budget_rule_sites(LIBRARY) == [
        "errors.py:<module> 10 ** 8",
        "errors.py:_check_budget refusal",
    ]
