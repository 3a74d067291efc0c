"""Check that every line of code in ``src/netdes`` runs under the suite.

Runs the tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records the lines run in
``src/netdes``. It then lists every line with code on it that never ran (a
``raise`` among them is named as such) and counts the ``raise`` statements
that ran. Exits 1 if the suite fails or such a line exists. The body of an
``if __name__ == "__main__":`` guard is not counted. Code run in a child
interpreter (the CLI tests start some) is not seen, so a line that only a
child runs needs an in-process test too. Extra arguments go to pytest::

    python tests/raise_coverage.py [pytest arguments]
"""
import ast
import os
import sys
import threading
import types

import pytest

TESTS = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
PACKAGE = os.path.join(SRC, "netdes")


def raise_and_main_lines(path: str) -> tuple:
    """The lines of ``path`` that start a ``raise``, and the lines of the
    bodies of its ``if __name__ == "__main__":`` guards."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    raises = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    main = {line for node in tree.body if isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'"
            for line in range(node.body[0].lineno, node.body[-1].end_lineno + 1)}
    return raises, main


def code_lines(path: str) -> set:
    """The lines of ``path`` that hold code a line tracer can see run."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list) -> int:
    sys.path.insert(0, SRC)
    ran = {os.path.join(PACKAGE, f): set() for f in os.listdir(PACKAGE) if f.endswith(".py")}
    local_for = {}  # code file name -> its line tracer, or None outside the package

    def line_tracer(lines: set):
        def trace(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def trace_call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename not in local_for:
            lines = ran.get(os.path.realpath(filename))
            local_for[filename] = None if lines is None else line_tracer(lines)
        return local_for[filename]

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main(["-q", TESTS, *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = raises_missed = total = 0
    for path in sorted(ran):
        raises, main = raise_and_main_lines(path)
        total += len(raises)
        for line in sorted((code_lines(path) | raises) - main - ran[path]):
            kind = "raise" if line in raises else "line"
            print(f"{os.path.relpath(path)}:{line}: {kind} never ran")
            missed += 1
            raises_missed += line in raises
    print(f"{total - raises_missed} of {total} raise statements in src/netdes ran; "
          f"{missed} lines of code never ran")
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
