"""Count the code lines and the ``raise`` statements of ``src/netdes`` and
of ``tests``. A code line holds a token other than a comment or a line
break, docstrings excluded; a string that spans lines counts on each of
them. Prints one line per module of ``src/netdes`` (code lines, then
raises), their totals and the totals of ``tests``; it gates nothing. pytest
does not collect this file (its name does not start with ``test_``)::

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


def counts(path: str) -> tuple:
    """The code lines and the ``raise`` statements of ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
    tree = ast.parse(source)
    lines = {n for tok in tokenize.tokenize(io.BytesIO(source).readline)
             if tok.type not in LAYOUT for n in range(tok.start[0], tok.end[0] + 1)}
    return (len(lines - docstring_lines(tree)),
            sum(isinstance(node, ast.Raise) for node in ast.walk(tree)))


def sources(directory: str) -> list:
    return sorted(name for name in os.listdir(directory) if name.endswith(".py"))


def total(directory: str) -> tuple:
    every = [counts(os.path.join(directory, name)) for name in sources(directory)]
    return sum(n for n, _r in every), sum(r for _n, r in every)


def main() -> int:
    print("  code raise")
    for name in sources(PACKAGE):
        print("{:6} {:5} {}".format(*counts(os.path.join(PACKAGE, name)), name))
    print("{:6} {:5} src/netdes".format(*total(PACKAGE)))
    print("{:6} {:5} tests".format(*total(TESTS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
