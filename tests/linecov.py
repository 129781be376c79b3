"""Statements of src/amalgam that the test suite never runs.

Run from anywhere, with stdlib and pytest only:

    python tests/linecov.py [pytest arguments]

It runs the suite in this process under ``sys.settrace``, prints each
statement of ``src/amalgam`` that no test reached as ``file:line: source``,
and exits 1 if there is one (or the suite failed).  A statement runs when
any line it owns runs: its whole span, less the spans of statements nested
in it.  Docstrings, ``global`` and ``nonlocal`` declarations and the body of
``if __name__ == "__main__"`` are not counted.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "amalgam"


def owners(path):
    """Line -> innermost counted statement's first line, for one module."""
    owner, skipped = {}, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or id(node) in skipped:
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, [])
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skipped.add(id(body[0]))  # a docstring, or a string used as one
        if id(node) not in skipped and not isinstance(node, (ast.Global, ast.Nonlocal)):
            # ast.walk is breadth first: a nested statement claims its lines later
            owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.lineno))
    return owner


def main(args):
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
    missed = 0
    for name, path in files.items():
        owner = owners(path)
        hit = {owner[n] for n in ran[name] if n in owner}
        source = path.read_text(encoding="utf-8").splitlines()
        for first in sorted(set(owner.values()) - hit):
            print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
            missed += 1
    print(f"{missed} statements of src/amalgam never ran")
    return int(missed > 0 or status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
