"""Count the code lines of ``src/netdes`` and of ``tests``: lines that hold
a token other than a comment or a line break, docstrings excluded. A string
that spans lines counts on each of them. Prints one line per module of
``src/netdes``, their total and the total of ``tests``; it gates nothing.
pytest does not collect this file (its name does not start with
``test_``)::

    python tests/code_lines.py
"""
import ast
import io
import os
import sys
import tokenize

TESTS = os.path.dirname(os.path.realpath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "netdes")
LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
          tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    lines = {n for tok in tokenize.tokenize(io.BytesIO(source).readline)
             if tok.type not in LAYOUT for n in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source)))


def sources(directory: str) -> list:
    return sorted(name for name in os.listdir(directory) if name.endswith(".py"))


def main() -> int:
    total = 0
    for name in sources(PACKAGE):
        n = code_lines(os.path.join(PACKAGE, name))
        total += n
        print(f"{n:6} {name}")
    print(f"{total:6} src/netdes")
    tests = sum(code_lines(os.path.join(TESTS, name)) for name in sources(TESTS))
    print(f"{tests:6} tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
