"""Statements of src/amalgam that the test suite, or the benchmark's traffic,
never runs.

Run from anywhere, with stdlib and pytest only:

    python tests/linecov.py [pytest arguments]
    python tests/linecov.py --bench [WORKLOAD|all]

It runs the suite in this process under ``sys.settrace``, prints each
statement of ``src/amalgam`` that no test reached as ``file:line: source``,
and exits 1 if there is one (or the suite failed).  A statement runs when
any line it owns runs: its whole span, less the spans of statements nested
in it.  Docstrings, ``global`` and ``nonlocal`` declarations and the body of
``if __name__ == "__main__"`` are not counted.

``--bench`` runs no test.  It writes one pool entry of each variant class
per stratum of the workload (every workload by default) with
``perfbench/corpus.py`` into a temporary directory, drives their CLI calls
through ``amalgam.cli.main`` in this process under the same trace, as the
benchmark's worker does, prints the statements those calls never ran, and
exits 0: what the benchmark does not exercise, it does not verify.
"""

import ast
import os
import sys
import tempfile
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


class Retrace:
    """Sets the trace function again before each test: CPython unsets it when
    an exception, such as the RecursionError a deep-nesting test provokes, is
    raised inside it, and every later test would count as never run."""

    def __init__(self, trace):
        self.trace = trace

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)


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

    bench = args[:1] == ["--bench"]
    sys.path.insert(0, str(SRC.parent))
    sys.settrace(trace)
    try:
        if bench:
            status = drive(args[1] if len(args) > 1 else "all")
        else:
            status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args],
                                 plugins=[Retrace(trace)])
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
    print(f"{missed} statements of src/amalgam never ran" + (" on this traffic" if bench else ""))
    return 0 if bench else int(missed > 0 or status != 0)


def drive(name):
    """Run the CLI calls of a few pool entries per stratum of the workload
    ``name``, or of every workload for "all"; print each workload's call count
    and how many exited non-zero."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    from amalgam import cli

    if name != "all" and name not in corpus.WORKLOADS:
        sys.exit(f"unknown workload {name!r}: one of {', '.join(corpus.WORKLOADS)} or all")
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "out"))
        n = 0
        for w in corpus.WORKLOADS.values() if name == "all" else [corpus.WORKLOADS[name]]:
            codes = []
            for s, st in enumerate(w.strata):
                for c in range(w.classes):
                    # one entry of each variant class, as a corpus balances them; the
                    # entry's place in its class varies, and with it the (p, q) pair
                    members = range(c, st.pool, w.classes)
                    doc = corpus.materialise(
                        corpus.make_entry(w, s, members[c % len(members)]), tmp, n)
                    codes += [cli.main(step["argv"]) for step in doc["steps"]]
                    n += 1
            print(f"{w.name}: {len(codes)} calls, {len(codes) - codes.count(0)} exited non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
