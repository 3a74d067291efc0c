"""The CI workflow names tests by pytest node id; CI cannot tell a renamed or
deleted test from a passing one until it runs, so the ids are checked here."""
import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")


def test_workflow_test_ids_name_existing_tests():
    with open(WORKFLOW, encoding="utf-8") as fh:
        ids = re.findall(r"\btests/[\w/]+\.py(?:::\w+)?", fh.read())
    assert ids
    for node_id in ids:
        path, _sep, name = node_id.partition("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if name:
            defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert name in defined, node_id
