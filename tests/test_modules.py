"""The seams between the package's modules, read from their source with ast.

``multigrid`` sits below the solve API: it may import the lattice and
``monotone``, nothing above them.  ``solver`` imports from ``multigrid``
only the names it reads, so a test that patches a multigrid name on
``solver`` fails with AttributeError instead of patching nothing.  In
``cli`` every param is read when the scenario loads, through the table
``_PARAMS``; a task executor only computes.
"""

import ast
from pathlib import Path

import pytest

from artifact import cli, multigrid, solver


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
