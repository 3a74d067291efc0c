"""The package's modules are layers: each imports only modules that come
before it in ``ORDER``, so synthesis sits on top of the built loop, and only
the command line and the package itself import synthesis."""
import ast
import os

import pytest

import netdes
import netdes.supervision
import netdes.synthesis

ORDER = ["events", "automaton", "config", "textio", "channels", "attacker",
         "plant", "supervision", "fixtures", "synthesis", "cli"]
PACKAGE = os.path.dirname(netdes.__file__)


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


def test_only_the_command_line_and_the_package_import_synthesis():
    importers = {m for m in [*ORDER, "__init__"] if "synthesis" in imported_modules(m)}
    assert importers == {"cli", "__init__"}


def test_the_detection_state_keeps_its_synthesis_name():
    assert netdes.synthesis.MONITOR_EMPTY is netdes.supervision.MONITOR_EMPTY
    assert netdes.supervision.MONITOR_EMPTY == frozenset()
