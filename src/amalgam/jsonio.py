"""Canonical JSON documents for spaces, martingales, decompositions.

All documents carry a ``"schema": "amalgam/1"`` field and are emitted in
canonical form (sorted keys, default shortest-repr floats) so certificates
diff cleanly.  Stopping-time infinity is encoded as JSON null.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .atoms import AtomTriple, BoundsCertificate, Decomposition, DEFNS, FLAVORS
from .atoms import source_norm_for  # noqa: F401  (re-exported)
from .martingale import Martingale, from_terminal
from .space import INFINITY, FilteredSpace, StoppingTime, conditional_expectation

SCHEMA = "amalgam/1"


class SchemaError(ValueError):
    """Malformed document; message names the offending field."""


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _require(doc, key, kind=None, where="document"):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    val = doc[key]
    # JSON true/false decode to bool, a subclass of int; no field takes one
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise SchemaError(f"{where}: field {key!r} has wrong type")
    return val


def _check_schema(doc, where):
    if _require(doc, "schema", str, where) != SCHEMA:
        raise SchemaError(f"{where}: unsupported schema {doc['schema']!r}")


def space_to_doc(space: FilteredSpace) -> dict:
    return {
        "schema": SCHEMA,
        "outcomes": [str(o) for o in space.outcomes],
        "prob": [float(x) for x in space.prob],
        "filtration": [space.cells(n) for n in range(space.depth + 1)],
        "blocks": space.block_cells(),
    }


def space_from_doc(doc) -> FilteredSpace:
    _check_schema(doc, "space")
    outcomes = _require(doc, "outcomes", list, "space")
    prob = _require(doc, "prob", list, "space")
    filtration = _require(doc, "filtration", list, "space")
    blocks = _require(doc, "blocks", list, "space")
    try:
        return FilteredSpace(outcomes, np.asarray(prob, dtype=float), filtration, blocks)
    except Exception as exc:
        raise SchemaError(f"space: {exc}") from exc


def martingale_to_doc(f: Martingale) -> dict:
    return {
        "schema": SCHEMA,
        "space": space_to_doc(f.space),
        "levels": [[float(x) for x in row] for row in f.levels],
    }


def martingale_from_doc(doc) -> Martingale:
    _check_schema(doc, "martingale")
    space = space_from_doc(_require(doc, "space", dict, "martingale"))
    try:
        if "levels" in doc:
            return Martingale(space, np.asarray(doc["levels"], dtype=float))
        if "terminal" in doc:
            return from_terminal(space, np.asarray(doc["terminal"], dtype=float))
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"martingale: {exc}") from exc
    raise SchemaError("martingale: needs 'levels' or 'terminal'")


def function_to_doc(space: FilteredSpace, values) -> dict:
    return {
        "schema": SCHEMA,
        "space": space_to_doc(space),
        "values": [float(x) for x in space.rv(values)],
    }


def function_from_doc(doc):
    _check_schema(doc, "function")
    space = space_from_doc(_require(doc, "space", dict, "function"))
    values = _require(doc, "values", list, "function")
    try:
        return space, space.rv(np.asarray(values, dtype=float))
    except Exception as exc:
        raise SchemaError(f"function: {exc}") from exc


def _nu_to_list(nu: StoppingTime):
    return [None if t == INFINITY else int(t) for t in nu.times]


def decomposition_to_doc(d: Decomposition) -> dict:
    return {
        "schema": SCHEMA,
        "flavor": d.flavor,
        "defn": d.defn,
        "p": d.p,
        "q": d.q,
        "triples": [
            {
                "k": t.k,
                "lambda": float(t.lam),
                "nu": _nu_to_list(t.nu),
                "atom_terminal": [float(x) for x in t.terminal],
            }
            for t in d.triples
        ],
    }


def certificate_to_doc(cert: BoundsCertificate) -> dict:
    """Source norm and per-eta entries of a two-sided bound certificate."""
    return {
        "source_norm": cert.source_norm,
        "entries": [dataclasses.asdict(e) for e in cert.entries],
    }


def decomposition_from_doc(doc, space: FilteredSpace) -> Decomposition:
    """Rebuild a decomposition against a known space.

    Atom level tables are regenerated from their terminals by
    conditioning, which reproduces the original tables exactly because
    atoms are martingales.
    """
    _check_schema(doc, "decomposition")
    flavor = _require(doc, "flavor", str, "decomposition")
    defn = _require(doc, "defn", str, "decomposition")
    if flavor not in FLAVORS:
        raise SchemaError(f"decomposition: unknown flavor {flavor!r}")
    if defn not in DEFNS:
        raise SchemaError(f"decomposition: unknown defn {defn!r}")
    p = float(_require(doc, "p", (int, float), "decomposition"))
    q = float(_require(doc, "q", (int, float), "decomposition"))
    triples = []
    for i, td in enumerate(_require(doc, "triples", list, "decomposition")):
        where = f"decomposition.triples[{i}]"
        k = int(_require(td, "k", int, where))
        lam = float(_require(td, "lambda", (int, float), where))
        nu_list = _require(td, "nu", list, where)
        if len(nu_list) != space.size:
            raise SchemaError(f"{where}: nu has wrong length")
        times = np.array(
            [INFINITY if t is None else int(t) for t in nu_list], dtype=np.int64
        )
        try:
            nu = StoppingTime(space, times)
            terminal = space.rv(np.asarray(td["atom_terminal"], dtype=float))
        except KeyError:
            raise SchemaError(f"{where}: missing field 'atom_terminal'") from None
        except Exception as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        # rebuild the level table by conditioning; a tampered terminal is
        # kept as-is so verification reports the violation instead
        levels = np.vstack(
            [conditional_expectation(space, terminal, n) for n in range(space.depth + 1)]
        )
        atom = Martingale(space, levels, validate=False)
        triples.append(AtomTriple(k, lam, atom, nu, flavor, defn))
    d = Decomposition(space, flavor, defn, p, q, triples, source_norm=0.0)
    return d


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def dump_json(doc, path=None):
    text = canonical_dumps(doc)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
