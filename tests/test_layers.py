"""The package's modules are layers: each imports only modules that come
before it in ``ORDER``, so synthesis sits on top of the built loop, and only
the command line imports synthesis. The package root imports nothing."""
import ast
import os

import pytest

import netdes
import netdes.supervision
import netdes.synthesis
from test_cli import fresh_python

ORDER = ["events", "automaton", "config", "textio", "channels", "attacker",
         "plant", "supervision", "fixtures", "synthesis", "cli"]
PACKAGE = os.path.dirname(netdes.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))


def imported_modules(module: str) -> set:
    """The package modules that ``module`` imports, at any depth of its code."""
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("netdes"):
            rest = node.module.split(".")[1:]
            found.update(rest[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("netdes."))
    return found


def test_every_module_has_a_layer():
    modules = {f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py")}
    assert modules - {"__init__"} == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_module_imports_only_earlier_layers(module):
    earlier = set(ORDER[:ORDER.index(module)])
    assert imported_modules(module) <= earlier, module


def test_only_the_command_line_imports_synthesis():
    importers = {m for m in [*ORDER, "__init__"] if "synthesis" in imported_modules(m)}
    assert importers == {"cli"}


def test_importing_the_package_loads_none_of_its_modules():
    proc = fresh_python("-c", "import sys, netdes; "
                        "print(sorted(m for m in sys.modules if m.startswith('netdes.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_detection_state_keeps_its_synthesis_name():
    assert netdes.synthesis.MONITOR_EMPTY is netdes.supervision.MONITOR_EMPTY
    assert netdes.supervision.MONITOR_EMPTY == frozenset()


def unused_imports(path: str) -> list:
    """The names that the module-level imports of ``path`` bind and that its
    code never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(
    [os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py")]
    + [os.path.join(TESTS, f) for f in os.listdir(TESTS) if f.endswith(".py")]),
    ids=os.path.basename)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path) == []
