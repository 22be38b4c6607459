"""The seams between the package's modules, read from their source with ast.

``multigrid`` sits below the solve API: it may import the lattice and
``monotone``, nothing above them.  ``solver`` imports from ``multigrid``
only the names it reads, so a test that patches a multigrid name on
``solver`` fails with AttributeError instead of patching nothing.
``scenario`` reads every param when the scenario loads, through the table
``_PARAMS``; it imports nothing that builds a grid or solves, and a task
executor in ``cli`` only computes.  No module compares a lattice's
``labels`` with a bare integer: it names the label.  The lattice's index
and distance rules live in ``domain/lattice.py`` alone, and a full
coordinate array is built only where user data is evaluated at nodes.
"""

import ast
from pathlib import Path

import pytest

from artifact import cli, multigrid, scenario, solver


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def _imports(module):
    """(source module, bound name) of each name ``module`` imports, relative
    imports resolved against its package; ``from . import x`` counts as
    importing module ``package.x``."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                package = module.__package__.split(".")
                base = ".".join(package[: len(package) - node.level + 1])
                source = f"{base}.{source}" if source else base
            for alias in node.names:
                bound = alias.asname or alias.name
                yield (f"{source}.{alias.name}" if not node.module else source), bound


def test_multigrid_imports_nothing_above_the_lattice_and_monotone():
    sources = {source for source, _ in _imports(multigrid) if source.startswith("artifact")}
    assert sources, "no package import found: the reader is broken"
    assert sources <= {"artifact.domain.lattice", "artifact.monotone"}, sources
    for above in ("solver", "cli", "capacity", "levelsets"):
        assert f"artifact.{above}" not in sources


def test_scenario_imports_nothing_that_builds_a_grid_or_solves():
    sources = {source for source, _ in _imports(scenario) if source.startswith("artifact")}
    assert sources, "no package import found: the reader is broken"
    assert sources <= {"artifact._expr", "artifact.domain.shapes", "artifact.monotone"}, sources


def test_solver_reads_every_multigrid_name_it_imports(monkeypatch):
    read = {node.id for node in ast.walk(_tree(solver)) if isinstance(node, ast.Name)}
    imported = [bound for source, bound in _imports(solver) if source == "artifact.multigrid"]
    assert imported, "solver imports nothing from multigrid: the reader is broken"
    assert [name for name in imported if name not in read] == []
    # Names that only multigrid reads are not on solver, so a patch there
    # fails loudly.
    for name in ("_galerkin_product", "_parity_classes", "_PlainLevel", "_StencilLevel"):
        with pytest.raises(AttributeError):
            monkeypatch.setattr(solver, name, None)


def _readers(spec):
    """The name of every reader in a param table of ``cli``."""
    if isinstance(spec, list):
        yield from _readers(spec[0])
    elif isinstance(spec, dict):
        for entry in spec.values():
            yield from _readers(entry[0] if isinstance(entry, tuple) else entry)
    else:
        yield spec.__name__


def test_task_executors_read_no_param():
    readers = {"_read", "_finite_numbers"}
    for table in cli._PARAMS.values():
        readers.update(_readers(table))
    assert {"_as_number", "_shape", "_expression", "_point", "_count"} <= readers
    functions = {
        node.name: node for node in _tree(cli).body if isinstance(node, ast.FunctionDef)
    }
    executors = [name for name in functions if name.startswith("_run_")]
    assert sorted(executors) == sorted(fn.__name__ for fn in cli._EXECUTORS.values())
    # Each executor and every function of cli it reaches.
    for executor in executors:
        reached, todo = set(), [executor]
        while todo:
            name = todo.pop()
            if name in reached:
                continue
            reached.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Name):
                    assert node.id not in readers, f"{executor} reaches {node.id} in {name}"
                    assert node.id != "ScenarioError", f"{executor} names ScenarioError in {name}"
                    if node.id in functions:
                        todo.append(node.id)


def _is_labels(node):
    """Whether ``node`` reads ``labels`` or an attribute ``labels``,
    through any subscripts."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Name) and node.id == "labels") or (
        isinstance(node, ast.Attribute) and node.attr == "labels")


def _is_int_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def test_no_module_compares_labels_with_an_integer_literal():
    package = Path(cli.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert package / "capacity.py" in modules and package / "domain" / "lattice.py" in modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_labels, operands)) and any(map(_is_int_literal, operands)):
                    found.append(f"{path.relative_to(package)}:{node.lineno}")
    assert found == [], "compare labels with BOUNDARY, INTERIOR or EXTERIOR"


def _package_trees():
    """(path relative to the package, parsed module) of every module."""
    package = Path(cli.__file__).parent
    return [(path.relative_to(package).as_posix(), ast.parse(path.read_text()))
            for path in sorted(package.rglob("*.py"))]


def _top_level_functions(tree):
    """(name, node) of each function of a module and each method of its
    classes, as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_lattice_geometry_has_one_owner():
    trees = _package_trees()
    assert "domain/lattice.py" in dict(trees), "no lattice module found: the reader is broken"
    # The cell-corner and shift rules are lattice's, so these modules slice
    # nothing by hand.
    for path, tree in trees:
        if path in ("monotone.py", "levelsets.py", "capacity.py"):
            calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) and node.func.id == "slice"]
            assert calls == [], f"{path} calls slice( at lines {calls}"
    defined = {}
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("offset_slices", "cell_view"):
                defined.setdefault(node.name, []).append(path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "distance_squared":
                defined.setdefault(node.name, []).append(path)
    assert defined == {name: ["domain/lattice.py"]
                       for name in ("offset_slices", "cell_view", "distance_squared")}
    # A full coordinate array, only where user data is evaluated at nodes.
    callers = set()
    for path, tree in trees:
        for name, function in _top_level_functions(tree):
            for node in ast.walk(function):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "points"):
                    callers.add(f"{path[:-3]}.{name}")
    assert callers == {"solver.solve_dirichlet", "solver.verify_comparison",
                       "capacity.barrier_build", "capacity.locality_check",
                       "cli._run_dirichlet"}
