"""Canonical JSON documents for spaces, martingales, decompositions.

All documents carry a ``"schema": "amalgam/1"`` field and are emitted in
canonical form (sorted keys, default shortest-repr floats) so certificates
diff cleanly.  Stopping-time infinity is encoded as JSON null.
"""

from __future__ import annotations

import collections
import io
import json
import math

import numpy as np
import orjson

from .atoms import AtomTriple, BoundsCertificate, Decomposition, DEFNS, FLAVORS
from .martingale import Martingale, from_terminal
from .norms import source_norm_for
from .space import INFINITY, FilteredSpace, StoppingTime, require_finite, same_space

SCHEMA = "amalgam/1"


class SchemaError(ValueError):
    """Malformed document; message names the offending field."""


def canonical_dumps(doc) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, faster.

    A numpy array is written as its list, a 1-D int64 array as stopping times
    with INFINITY as null.  What json.dumps refuses raises TypeError here too.

    One orjson call writes the document as _prepared leaves it: keys sorted,
    and each value whose orjson text is not json's replaced by the string
    "\\0".  orjson writes that as "\\u0000", which no printable ASCII string,
    the only other strings left, can produce (their backslashes are doubled);
    one split puts json's texts of the replaced values back.  A document with
    a key that is no printable ASCII string, or nested too deeply for orjson,
    is written by json.dumps itself.
    """
    odd = []
    try:
        text = orjson.dumps(_prepared(doc, odd),
                            option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY).decode()
    except (_OddKey, orjson.JSONEncodeError, RecursionError):
        # orjson refuses nesting past 255 levels; json.dumps goes deeper
        return json.dumps(doc, sort_keys=True, indent=2, default=_listed) + "\n"
    if odd:
        pieces = [None] * (2 * len(odd) + 1)
        pieces[::2] = text.split('"\\u0000"')
        # json's text of each odd value: a scalar, so with no newline
        pieces[1::2] = json.dumps(odd, separators=("\n", ": "))[1:-1].split("\n")
        text = "".join(pieces)
    return text + "\n"


class _OddKey(Exception):
    """A dict key that is no printable ASCII string."""


def _prepared(x, odd):
    """``x`` with each value orjson writes otherwise than json.dumps appended
    to ``odd``, in document order, and replaced by "\\0".  A float in the band
    where repr writes no exponent, an int orjson takes and a printable ASCII
    string are written alike."""
    t = type(x)
    if t is float:
        if x == 0 or 1e-4 <= abs(x) < 1e16:
            return x
    elif t is int:
        if -2 ** 63 <= x < 2 ** 64:
            return x
    elif t is str:
        if _plain(x):
            return x
    elif x is None or t is bool:
        return x
    elif isinstance(x, dict):
        if not (set(map(type, x)) <= {str} and _plain("".join(x))):
            raise _OddKey
        return {k: _prepared(v, odd) for k, v in sorted(x.items())}
    elif isinstance(x, (list, tuple)):
        return [_prepared(v, odd) for v in x]
    elif isinstance(x, np.ndarray):
        if t is np.ndarray and x.ndim == 1 and x.flags.c_contiguous and (
                x.dtype == np.int64 and INFINITY not in x
                or x.dtype == np.float64 and _in_band(x)):
            return x
        listed = _listed(x)  # of a 1-D int64 row: ints orjson takes, and None
        return listed if x.ndim == 1 and x.dtype == np.int64 else _prepared(listed, odd)
    odd.append(x)
    return "\0"


def _plain(s):
    return s.isascii() and s.isprintable()


def _in_band(x):
    """Whether each value of the float64 row ``x`` is 0 or in the plain band."""
    a = np.abs(x)
    return bool(((x == 0) | (a >= 1e-4) & (a < 1e16)).all())


def _listed(x):
    """The list of the numpy array ``x``, with INFINITY as None in a 1-D int64
    row; for any other object, json's refusal."""
    if not isinstance(x, np.ndarray):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if x.ndim == 1 and x.dtype == np.int64:
        x, stops = x.astype(object), x == INFINITY
        x[stops] = None
    return x.tolist()


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


def _float(doc, key, where):
    """A number field as a float; a JSON integer beyond the float range is refused."""
    try:
        return float(_require(doc, key, (int, float), where))
    except OverflowError:
        raise SchemaError(f"{where}: field {key!r} is out of the float range") from None


def _numbers(values, key):
    """A list of JSON numbers, or a list of such lists, as a float array.  Entries
    are checked by type: np.asarray reads true as 1.0, "0.125" as 0.125, null as nan."""
    rows = values if type(values) is list and values and type(values[0]) is list else [values]
    if not all(type(row) is list and set(map(type, row)) <= {int, float} for row in rows):
        raise SchemaError(f"field {key!r} has wrong type")
    return np.asarray(values, dtype=float)


def _check_schema(doc, where):
    if _require(doc, "schema", str, where) != SCHEMA:
        raise SchemaError(f"{where}: unsupported schema {doc['schema']!r}")


def space_to_doc(space: FilteredSpace) -> dict:
    outcomes = [str(o) for o in space.outcomes]
    if len(set(outcomes)) < len(outcomes):
        shared = collections.Counter(outcomes).most_common(1)[0][0]
        raise SchemaError(f"space: distinct outcomes share the string {shared!r}, "
                          "so the document would not read back")
    return {
        "schema": SCHEMA,
        "outcomes": outcomes,
        "prob": space.prob.tolist(),
        "filtration": [_names(space.cells(n)) for n in range(space.depth + 1)],
        "blocks": _names(space.block_cells()),
    }


def _names(cells):
    """Cells with each member written as the outcomes are, so any outcome reads back."""
    return [list(map(str, cell)) for cell in cells]


def space_from_doc(doc) -> FilteredSpace:
    _check_schema(doc, "space")
    outcomes = _require(doc, "outcomes", list, "space")
    prob = _require(doc, "prob", list, "space")
    filtration = [_cells(level, f"filtration[{n}]")
                  for n, level in enumerate(_require(doc, "filtration", list, "space"))]
    blocks = _cells(_require(doc, "blocks", list, "space"), "blocks")
    try:
        return FilteredSpace(outcomes, _numbers(prob, "prob"), filtration, blocks)
    except Exception as exc:
        raise SchemaError(f"space: {exc}") from exc


def _cells(cells, where):
    """``cells`` if it is an array of arrays: FilteredSpace would read a string
    cell as its characters and an object cell as its keys."""
    if type(cells) is not list or not set(map(type, cells)) <= {list}:
        raise SchemaError(f"space: {where} must be an array of arrays")
    return cells


def martingale_to_doc(f: Martingale) -> dict:
    return {
        "schema": SCHEMA,
        "space": space_to_doc(f.space),
        "levels": f.levels.tolist(),
    }


def martingale_from_doc(doc) -> Martingale:
    _check_schema(doc, "martingale")
    space = space_from_doc(_require(doc, "space", dict, "martingale"))
    try:
        if "levels" in doc:
            return Martingale(space, _numbers(doc["levels"], "levels"))
        if "terminal" in doc:
            return from_terminal(space, _numbers(doc["terminal"], "terminal"))
    except Exception as exc:
        raise SchemaError(f"martingale: {exc}") from exc
    raise SchemaError("martingale: needs 'levels' or 'terminal'")


def function_to_doc(space: FilteredSpace, values) -> dict:
    return {
        "schema": SCHEMA,
        "space": space_to_doc(space),
        "values": space.rv(values).tolist(),
    }


def function_from_doc(doc, space=None, space_doc=None):
    """(space, values) of a function document.

    Given a decoded ``space`` and the ``space_doc`` it came from, a space
    object equal to ``space_doc`` is not decoded again: ``space`` is used.
    """
    _check_schema(doc, "function")
    own_doc = _require(doc, "space", dict, "function")
    if space is None or own_doc != space_doc:
        space = space_from_doc(own_doc)
    values = _require(doc, "values", list, "function")
    try:
        x = space.rv(_numbers(values, "values"))
        require_finite(x, "values")
    except Exception as exc:
        raise SchemaError(f"function: {exc}") from exc
    return space, x


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
                "nu": t.nu.times,
                "atom_terminal": t.terminal,
            }
            for t in d.triples
        ],
    }


def certificate_to_doc(cert: BoundsCertificate) -> dict:
    """Source norm and per-eta entries of a two-sided bound certificate."""
    return {
        "source_norm": cert.source_norm,
        "entries": [{"eta": e.eta, "aggregate": e.aggregate, "budget": e.budget,
                     "upper_ok": e.upper_ok, "converse_ok": e.converse_ok}
                    for e in cert.entries],
    }


def decomposition_from_doc(doc, space: FilteredSpace) -> Decomposition:
    """Rebuild a decomposition against a known space.

    Each atom is kept as its terminal, as read, so that verification reports a
    tampered atom rather than this reader.  Each triple is checked for the
    values every decomposition decompose returns has: lambda finite and at
    least 0, nu a stopping time, the atom terminal finite.  The triples equal
    those of the decomposition written, bit for bit.
    """
    _check_schema(doc, "decomposition")
    flavor = _require(doc, "flavor", str, "decomposition")
    defn = _require(doc, "defn", str, "decomposition")
    if flavor not in FLAVORS:
        raise SchemaError(f"decomposition: unknown flavor {flavor!r}")
    if defn not in DEFNS:
        raise SchemaError(f"decomposition: unknown defn {defn!r}")
    p = _float(doc, "p", "decomposition")
    q = _float(doc, "q", "decomposition")
    triples = []
    for i, td in enumerate(_require(doc, "triples", list, "decomposition")):
        where = f"decomposition.triples[{i}]"
        k = int(_require(td, "k", int, where))
        lam = _float(td, "lambda", where)
        nu_list = _require(td, "nu", list, where)
        if len(nu_list) != space.size:
            raise SchemaError(f"{where}: nu has wrong length")
        # a time is a JSON integer or null; int() would pass 1.5 or true as 1
        if not set(map(type, nu_list)) <= {int, type(None)}:
            raise SchemaError(f"{where}: field 'nu' has wrong type")
        values = _require(td, "atom_terminal", list, where)
        try:
            terminal = space.rv(_numbers(values, "atom_terminal"))
        except Exception as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        if not (math.isfinite(lam) and lam >= 0.0):
            raise SchemaError(f"{where}: field 'lambda' must be finite and at least 0")
        try:
            # the typed cast is exact, or refuses a time beyond int64
            nu = StoppingTime(space, np.asarray([INFINITY if t is None else t for t in nu_list],
                                                dtype=np.int64))
            require_finite(terminal, "atom_terminal")
        except Exception as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        triples.append(AtomTriple(k, lam, terminal, nu))
    return Decomposition(space, flavor, defn, p, q, triples, source_norm=0.0)


def read(path) -> bytes:
    """The bytes of the file at ``path``; a SchemaError names the path it cannot read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_json(path, raw=None):
    """The document at ``path``, or in its bytes ``raw``, as orjson reads it, or as
    _loads does where orjson refuses the bytes, so every error is json.loads's.
    Where both read the bytes, orjson differs only in reading an integer beyond
    64 bits as a float (see _decoded); it also reads nesting json.loads refuses."""
    raw = read(path) if raw is None else raw
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        return _loads(path, raw)


def _loads(path, raw):
    """json.loads of the text UTF-8 text mode reads from ``raw``, with each
    refusal of the text a SchemaError naming ``path``."""
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError:
        raise SchemaError(f"{path}: nested too deeply") from None


def _decoded(path, raw, build):
    """build(doc)[0] of the document at ``path``, or in its bytes ``raw``, as
    json.loads reads it; build(doc)[1] are the outcome names read.

    orjson's float for an integer beyond 64 bits fails each integer field's type
    check, and a number array reads the integer as that float: only as an outcome
    name can it stand for another value.  So where build refuses load_json's
    document, or reads a name that is no string, build takes json.loads's.
    """
    raw = read(path) if raw is None else raw
    try:
        result, names = build(load_json(path, raw))
        if set(map(type, names)) <= {str}:
            return result
    except (SchemaError, RecursionError):  # RecursionError: a repr or == of deep nesting
        pass
    return build(_loads(path, raw))[0]


def load_martingale(path, raw=None):
    """(f, space document) of the martingale file at ``path``, or of its bytes
    ``raw``: the document is the one load_function takes."""

    def build(doc):
        f = martingale_from_doc(doc)
        return (f, doc["space"]), f.space.outcomes

    return _decoded(path, raw, build)


def load_function(path, f, space_doc=None):
    """The values of the function document at ``path`` on f's space, or a
    SchemaError when it lives on another.  ``space_doc`` is the space document
    load_martingale returned with f: a space member equal to it is f's space."""

    def build(doc):
        space, values = function_from_doc(doc, f.space, space_doc)
        return (space, values), space.outcomes

    space, values = _decoded(path, None, build)
    if not same_space(space, f.space):
        raise SchemaError("martingale and function live on different spaces")
    return values


def dump_decomposition(d: Decomposition, cert: BoundsCertificate, path=None):
    """dump_json of the decomposition_to_doc of ``d`` with ``cert`` as its "certificate"."""
    return dump_json({**decomposition_to_doc(d), "certificate": certificate_to_doc(cert)}, path)


def load_decomposition(path, f: Martingale, raw=None) -> Decomposition:
    """The decomposition document at ``path``, or in its bytes ``raw``, of the
    martingale ``f``, with its source norm set."""
    d = _decoded(path, raw, lambda doc: (decomposition_from_doc(doc, f.space), ()))
    d.source_norm = source_norm_for(f, d.flavor, d.p, d.q)
    return d


def dump_json(doc, path=None):
    text = canonical_dumps(doc)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
