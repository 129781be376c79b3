"""The benchmark's tracer wraps amalgam functions by name; each must exist.

``perfbench/tracer.py`` is read as source, not imported, so the check
neither runs nor writes anything under ``perfbench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TABLES = ("SPANS", "GENERATORS", "COUNTED")


def _traced_names():
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in TABLES:
                    tables[target.id] = ast.literal_eval(node.value)
    assert sorted(tables) == sorted(TABLES)
    return [(table, module, attr)
            for table, spec in sorted(tables.items())
            for module, attrs in spec.items()
            for attr in attrs]


def test_every_traced_name_exists():
    names = _traced_names()
    assert len(names) > 50  # the tables were found and read
    missing = [f"{table}: amalgam.{module}.{attr}" for table, module, attr in names
               if not hasattr(importlib.import_module(f"amalgam.{module}"), attr)]
    assert not missing, missing


def test_arguments_the_tracer_reads_by_position_keep_their_place():
    # the tracer reads these arguments from ``args`` by index: a reordered
    # signature would miscount silently in a traced run
    for module, fn, index, name in (("duality", "campanato_norm", 6, "extra_candidates"),
                                    ("jsonio", "load_json", 0, "path"),
                                    ("jsonio", "dump_json", 1, "path"),
                                    ("_kernels", "cell_sums", 0, "labels")):
        params = inspect.signature(getattr(importlib.import_module(f"amalgam.{module}"), fn))
        assert list(params.parameters)[index] == name, (module, fn)
