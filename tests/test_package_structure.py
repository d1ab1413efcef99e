"""Structural properties of the ``skewlab`` sources, read from their syntax
trees: stdlib-only imports without ``dataclasses``, an acyclic import graph
between the package's modules, no function that calls itself, no
definition that nothing reads, no definition that only tests read,
beyond a short list of public names, and no record constructor that only
stores its fields."""

import ast
import subprocess
import sys
from collections import Counter
from collections.abc import Iterator
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skewlab"


def parsed_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def internal_imports(tree: ast.Module, modules: set[str]) -> set[str]:
    """Package modules that ``tree`` imports: ``from .a import x`` names a,
    ``from . import a, b`` names a and b."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names if alias.name in modules)
    return found


def absolute_imports(tree: ast.Module) -> list[str]:
    """Top-level names of the modules ``tree`` imports by absolute name."""
    tops = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.append(node.module.partition(".")[0])
    return tops


def test_every_import_is_stdlib():
    foreign = [(name, top) for name, tree in parsed_modules().items()
               for top in absolute_imports(tree)
               if top not in sys.stdlib_module_names and top != "skewlab"]
    assert foreign == []


def test_no_module_imports_dataclasses():
    """Result types are ``record.Record`` slot classes: ``dataclasses`` costs
    its import (with ``inspect``) and generated code per class at every start."""
    assert [name for name, tree in parsed_modules().items()
            if "dataclasses" in absolute_imports(tree)] == []


def run_fresh(code: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``code`` in a fresh interpreter without
    site packages that imports ``skewlab`` from the sources. ``-I`` ignores
    PYTHONDONTWRITEBYTECODE, so ``-B`` keeps bytecode out of the sources."""
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n" + code
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """In a fresh interpreter without site packages, importing the command
    line loads none of these modules: annotations are never evaluated, so
    their names come from ``collections.abc``, not ``typing``, and
    ``counting``, which needs ``fractions`` and ``decimal``, runs on first use."""
    assert run_fresh(
        "import skewlab.cli\n"
        "print(sorted({'dataclasses', 'decimal', 'fractions', 'inspect', 'typing'}"
        " & set(sys.modules)))") == (0, "[]\n", "")


def test_lazy_modules_run_on_first_use():
    """``constructions``, ``counting`` and ``sperner`` are in ``sys.modules``
    from the package import on, but run only when first read: a solver
    command runs none of them, ``gamma-dist`` runs ``counting`` alone, and
    ``vars()`` runs a module, as the bench tracer's does. Every name in
    ``skewlab.__all__`` is its defining module's object."""
    assert run_fresh("""
import os, types
import skewlab, skewlab.cli
lazy = ("skewlab.constructions", "skewlab.counting", "skewlab.sperner")
def ran():
    return [type(sys.modules[name]) is types.ModuleType for name in lazy]
skewlab.cli.main(["exact-m", "--n", "3", "--out", os.devnull])
print(ran())
skewlab.cli.main(["gamma-dist", "--n", "3", "--out", os.devnull])
print(ran())
print("enumerate_C" in vars(sys.modules["skewlab.constructions"]), ran())
found = {name: getattr(skewlab, name) for name in skewlab.__all__}
print(len(found), all(vars(sys.modules[obj.__module__])[name] is obj
                      for name, obj in found.items()))
""") == (0, "[False, False, False]\n[False, True, False]\nTrue [True, True, False]\n"
            "36 True\n", "")


def storing_only_record_inits(tree: ast.Module) -> list[str]:
    """``Record`` subclasses whose own ``__init__`` raises nothing: storing
    the fields is ``Record.__init__``'s job, so a hand-written one exists
    only to validate."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Record" for base in node.bases)
            for init in node.body
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            and not any(isinstance(n, ast.Raise) for n in ast.walk(init))]


def test_record_inits_only_validate():
    assert storing_only_record_inits(ast.parse(
        "class A(Record):\n    def __init__(self, x):\n        self.x = x\n"
        "class B(Record):\n    def __init__(self, x):\n        if x < 0:\n"
        "            raise ValueError\n"
        "class C:\n    def __init__(self, x):\n        self.x = x\n")) == ["A"]
    assert {name: found for name, tree in parsed_modules().items()
            if (found := storing_only_record_inits(tree))} == {}


def test_internal_import_graph_is_acyclic():
    trees = parsed_modules()
    graph = {name: internal_imports(tree, set(trees)) for name, tree in trees.items()}
    assert graph["cli"] >= {"counting", "report", "solver", "sperner"}  # `from . import`
    assert all(deps <= set(trees) for deps in graph.values()), graph
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def self_calls(tree: ast.Module) -> list[str]:
    """Functions whose bodies call themselves: by bare name for module-level
    and nested functions, through ``self.``/``cls.`` for methods (where a
    bare name is the module-level function of that name)."""
    found = []

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if in_class:
                        hit = (isinstance(f, ast.Attribute) and f.attr == child.name
                               and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))
                    else:
                        hit = isinstance(f, ast.Name) and f.id == child.name
                    if hit:
                        found.append(child.name)
                visit(child, in_class=False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, in_class=False)
    return found


def test_no_function_calls_itself():
    assert self_calls(ast.parse("def f(n):\n    return f(n - 1)\n")) == ["f"]
    assert self_calls(ast.parse(
        "class A:\n    def size(self):\n        return self.size()\n")) == ["size"]
    assert self_calls(ast.parse(
        "class A:\n    def size(self):\n        return size(self)\n")) == []
    recursive = {name: calls for name, tree in parsed_modules().items()
                 if (calls := self_calls(tree))}
    assert recursive == {}


def mentions(tree: ast.AST) -> Iterator[str | None]:
    """Every name ``tree`` mentions as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from (node.name, node.asname)


def definitions(tree: ast.Module) -> Iterator[ast.AST]:
    """Functions, methods and classes of ``tree``, dunders excepted."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield node


def unreferenced_definitions(defined: dict[str, ast.Module],
                             readers: list[ast.Module]) -> list[str]:
    """Definitions of ``defined`` whose name no ``readers`` tree mentions."""
    named = {name for tree in readers for name in mentions(tree)}
    return [f"{module}:{node.lineno} {node.name}"
            for module, tree in defined.items() for node in definitions(tree)
            if node.name not in named]


def private_definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Private (a leading underscore) definitions of ``tree`` and names bound
    by its module-level assignments, dunders excepted, each with its node."""
    for node in definitions(tree):
        if node.name.startswith("_"):
            yield node.name, node
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if (isinstance(target, ast.Name) and target.id.startswith("_")
                    and not target.id.endswith("__")):
                yield target.id, node


def unreferenced_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Private definitions of ``trees`` that the trees mention only inside
    the definition itself."""
    total = Counter(name for tree in trees.values() for name in mentions(tree))
    return [f"{module}:{node.lineno} {name}"
            for module, tree in trees.items() for name, node in private_definitions(tree)
            if Counter(mentions(node))[name] == total[name]]


def test_every_definition_is_referenced():
    assert unreferenced_definitions(
        {"m": ast.parse("class A:\n    def used(self): pass\n    def dead(self): pass\n"
                        "    def __len__(self): return 0\n")},
        [ast.parse("A().used()\n")]) == ["m:3 dead"]
    root = PACKAGE.parents[1]
    readers = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
               for folder in ("src", "tests", "bench")
               for path in sorted((root / folder).rglob("*.py"))]
    assert unreferenced_definitions(parsed_modules(), readers) == []


def test_every_private_definition_is_read_by_the_package():
    """A private helper that only tests call, or only itself, is dead code:
    tests may not keep it alive."""
    assert unreferenced_private_definitions({"m": ast.parse(
        "def _used():\n    return 1\n"
        "def _self_only():\n    return _self_only\n"
        "class _K:\n    def __len__(self):\n        return 0\n"
        "    def _helper(self):\n        return _used()\n"
        "x = _K()\n")}) == ["m:3 _self_only", "m:8 _helper"]
    assert unreferenced_private_definitions({"m": ast.parse(
        "_READ = 1\n_DEAD = (1 << _READ) - 1\n_TYPED: int = _READ\n"
        "__version__ = '0'\ndef f():\n    _local = 2\n    return _local\n")}) == [
        "m:2 _DEAD", "m:3 _TYPED"]
    assert unreferenced_private_definitions(parsed_modules()) == []


# Public definitions that nothing in the package reads, kept on purpose.
READ_ONLY_OUTSIDE_THE_PACKAGE = {
    # the paper's definitions, which the README lists as the string primitives
    "weight", "support", "influence", "gamma", "skewincident",
    # bench/checks.py parses the ``exact-m`` witness with it
    "from_literals",
}


def unread_public_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Public definitions of ``trees`` that no tree mentions outside the
    definition itself, where ``__init__`` does not count: a re-export is not
    a read."""
    readers = {name: tree for name, tree in trees.items() if name != "__init__"}
    total = Counter(name for tree in readers.values() for name in mentions(tree))
    return [f"{module}:{node.lineno} {node.name}"
            for module, tree in readers.items() for node in definitions(tree)
            if not node.name.startswith("_")
            and Counter(mentions(node))[node.name] == total[node.name]]


def test_every_public_definition_is_read_by_the_package():
    """A public name that only tests, the bench or a re-export read is either
    a second route, which belongs in ``tests/oracles.py``, or dead code."""
    assert unread_public_definitions({
        "__init__": ast.parse("from .m import dead, used\n"),
        "m": ast.parse("def used():\n    return 1\n"
                       "def dead():\n    return dead\n"
                       "class K:\n    def __len__(self):\n        return used()\n"
                       "k = K()\n"),
    }) == ["m:3 dead"]
    unread = unread_public_definitions(parsed_modules())
    assert {entry.rpartition(" ")[2] for entry in unread} == READ_ONLY_OUTSIDE_THE_PACKAGE, unread
