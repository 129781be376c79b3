"""The document boundary: the canonical writer, partition decoding, stopping
times read from documents, the space a `duality` g lives on, and the CLI
parser that every call shares."""

import ast
import enum
import functools
import io
import json
import math
import operator
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import orjson
import pytest
from hypothesis import example, given, strategies as st

from amalgam import (INFINITY, FilteredSpace, SpaceError, StoppingTime, atoms, certify_bounds,
                     cli, decompose, from_terminal, jsonio)
from amalgam.cli import main
from amalgam.norms import source_norm_for
from amalgam.space import same_space

# -- canonical writer ------------------------------------------------------------

_text = st.text(st.sampled_from('ab[]{}",:\\\n\t é☃😀')) | st.text()
# floats either side of the band where repr writes no exponent, and ints either
# side of orjson's range: there orjson's text and json's part
_BAND_EDGES = [1e-5, -1e-5, 9.99e-5, -9.99e-5, math.nextafter(1e-4, 0), 1e-4,
               math.nextafter(1e16, 0), 1e16, 1.5e-7]
_INT_EDGES = [2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64]
_scalars = (st.none() | st.booleans() | st.integers() | _text
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, *_BAND_EDGES, *_INT_EDGES]))
_json_values = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(_text, kids, max_size=6),
    max_leaves=40,
)


# strings orjson writes otherwise than json, "\\u0000" as the text of the
# writer's stand-in, and keys that are no printable ASCII
_ODD_STRINGS = ["\x00", "\\u0000", '"\\u0000"', "\x7f", "\ud800", "é", ""]


@given(_json_values)
@example({"s": _ODD_STRINGS, "\\u0000": [*_BAND_EDGES, *_INT_EDGES], '"\\u0000"': {"": "\\u0000"}})
@example({"é": [1.5, {"a": 2 ** 64, "b": "\x00"}], "a": {"\x00": [1e16, 0.5]}})
@example({"b": {"é": None}, "a": 0.5})
@example([{"\ud800": 1}, {"": "\\u0000"}])
def test_canonical_dumps_is_json_dumps(doc):
    assert jsonio.canonical_dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_canonical_dumps_of_mixed_lists_and_tuples():
    for doc in ([1.5, [2, "x["], {"a": []}, "}"], ["[", {}], [None, -0.0, [[]]],
                {"b": {"c": "one", "d": [True]}, "a": ("t", 1)}, ("a", ["b"]), [],
                {"k": 1, "l": [{"m": ",\n  "}], "j": "{"}):
        assert jsonio.canonical_dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.inf,
            -math.inf, math.nan]
_INT64 = np.iinfo(np.int64)
_TIMES = [0, 1, 9, -1, INFINITY, INFINITY - 1, _INT64.min]


@st.composite
def _rows(draw, shared):
    """A float64 row drawn from a few values, so most repeat, or an int64 row
    of stopping times with INFINITY and other int64 values; of 0, 1 or many
    entries.  Rows of one dtype draw from ``shared`` values too."""
    n = draw(st.sampled_from([0, 1, 2, 9, 15, 16, 17, 300]))
    if draw(st.booleans()):
        own = st.floats() | st.sampled_from(_SPECIAL)
        dtype = np.float64
    else:
        own = st.integers(_INT64.min, _INT64.max) | st.sampled_from(_TIMES)
        dtype = np.int64
    pool = draw(st.lists(own, min_size=1, max_size=6)) + shared[dtype]
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 16))).integers(0, len(pool), n)
    return np.array(pool, dtype=dtype)[picks]


_shared_rows = st.fixed_dictionaries({
    np.float64: st.lists(st.floats() | st.sampled_from(_SPECIAL), max_size=3),
    np.int64: st.lists(st.sampled_from(_TIMES), max_size=3),
}).flatmap(lambda shared: st.lists(_rows(shared), min_size=1, max_size=4))

# every case at once: both dtypes at two depths, values shared across rows,
# short and long rows, and rows[0] written twice
_ALL_ROWS = [
    np.array((_SPECIAL * 2)[:17]),
    np.array([0, 1, INFINITY, INFINITY - 1, _INT64.min, -1, 9] * 2 + [INFINITY] * 2, dtype=np.int64),
    np.array(_SPECIAL[::-1] + [0.5, -0.0, 0.5, 5e-324, -5e-324]),
    np.array([INFINITY, -1, _INT64.min, 0, 3] * 3 + [2, 2], dtype=np.int64),
    np.array(_SPECIAL[:8] * 2),
    np.array(_TIMES * 2 + [5], dtype=np.int64),
    np.array(_SPECIAL * 30),
    np.array([-0.0, 0.0]),
    np.array([INFINITY], dtype=np.int64),
]
assert sorted(map(len, _ALL_ROWS)) == [1, 2, 15, 15, 16, 16, 17, 17, 300]


def _listed(doc):
    """doc with each row as its list, INFINITY written as None."""
    if isinstance(doc, np.ndarray):
        return [None if v == INFINITY and doc.dtype == np.int64 else v for v in doc.tolist()]
    if isinstance(doc, dict):
        return {k: _listed(v) for k, v in doc.items()}
    return [_listed(v) for v in doc] if isinstance(doc, list) else doc


@example(_ALL_ROWS, None)
@example([np.array(_BAND_EDGES), *(np.array([0.5, x, -0.0]) for x in _BAND_EDGES),
          np.array([math.nextafter(1e16, 0), 1e-4])], _ODD_STRINGS)
@given(_shared_rows, _json_values)
def test_canonical_dumps_of_rows_is_json_dumps_of_their_lists(rows, other):
    doc = {"rows": rows,
           "triple": {"nu": rows[0], "lambda": 0.5, "other": other, "deeper": {"rows": rows[1:]}}}
    want = json.dumps(_listed(doc), sort_keys=True, indent=2) + "\n"
    assert jsonio.canonical_dumps(doc) == want
    assert jsonio.canonical_dumps(rows[0]) == json.dumps(_listed(rows[0]), indent=2) + "\n"


def test_an_array_after_a_scalar_in_a_list_is_written_as_its_list():
    doc = {"b": [1.5, {"c": np.linspace(0, 1, 17)}], "d": [2, np.arange(3), "x"]}
    want = {"b": [1.5, {"c": np.linspace(0, 1, 17).tolist()}], "d": [2, [0, 1, 2], "x"]}
    assert jsonio.canonical_dumps(doc) == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_rows_that_are_not_1d_float64_or_int64_are_written_as_their_lists():
    for row in (np.array([[0.5, -0.0], [1.0, 0.5]]), np.array([1, 2], dtype=np.int32),
                np.array([True, False]), np.array([0.5, 0.25], dtype=">f8")):
        assert jsonio.canonical_dumps({"r": row}) == json.dumps({"r": row.tolist()}, indent=2) + "\n"


def test_a_0d_array_is_written_as_its_item():
    for x in (np.array(0.5), np.array(1e-5), np.array(-0.0), np.array(3), np.array(INFINITY),
              np.array(True), np.array(2, dtype=np.int32)):
        for key in ("a", "é"):
            doc = {key: x, "b": [x, np.array([x, x])]}
            want = {key: x.tolist(), "b": [x.tolist(), _listed(np.array([x, x]))]}
            assert jsonio.canonical_dumps(doc) == json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert jsonio.canonical_dumps(x) == json.dumps(x.tolist()) + "\n"


def test_rows_under_a_key_that_is_no_printable_ascii_are_written_as_their_lists():
    # such a document is written by json.dumps itself, each array as its list
    rows = [np.array([0.5, 1e-5, -0.0]), np.array([3, INFINITY], dtype=np.int64),
            np.array([[1, 2]]), np.array([], dtype=np.int64), np.arange(6.0)[::2]]
    doc = {"é": rows, "a": {"\x7f": rows[1]}}
    want = {"é": [_listed(r) if r.ndim == 1 else r.tolist() for r in rows],
            "a": {"\x7f": _listed(rows[1])}}
    assert jsonio.canonical_dumps(doc) == json.dumps(want, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("depth", [254, 255, 256, 400, 700, 5000])
def test_nesting_orjson_refuses_is_written_as_json_dumps_writes_it(depth):
    # orjson writes 255 levels and the writer's walk about 490; json.dumps about 990
    doc = [1e-5]
    for _ in range(depth - 1):
        doc = {"a": doc, "b": 1e-5}
    try:
        want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except RecursionError:
        with pytest.raises(RecursionError):
            jsonio.canonical_dumps(doc)
    else:
        assert jsonio.canonical_dumps(doc) == want


def test_a_strided_or_masked_row_is_written_as_its_list():
    for row in (np.arange(8.0)[::2], np.arange(8, dtype=np.int64)[::-3], np.arange(8.0)[::2] * 1e-9,
                np.ma.masked_array([0.5, 1.0, 2.0], mask=[0, 1, 0]),
                np.ma.masked_array([1, 2], mask=[1, 0])):
        assert jsonio.canonical_dumps({"r": row}) == json.dumps({"r": row.tolist()}, indent=2) + "\n"


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1, 2}, object(),
                                   np.array([np.int64(1)], dtype=object)],
                         ids=["int64", "bool_", "set", "object", "object-array"])
@pytest.mark.parametrize("key", ["a", "é"])
def test_canonical_dumps_refuses_what_json_dumps_refuses(key, value):
    listed = value.tolist() if isinstance(value, np.ndarray) else value
    with pytest.raises(TypeError):
        json.dumps({key: [0.5, listed]}, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        jsonio.canonical_dumps({key: [0.5, value]})


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


class _Level(enum.IntEnum):
    TOP = 7


def test_subclasses_are_written_as_json_dumps_writes_them():
    doc = _Dict(b=_List([_Str("x"), _Str("\x00"), _Int(2 ** 64), _Int(3), _Float(0.5),
                         _Float(1e16), _Level.TOP, np.float64(1e-7), np.float64(0.25)]),
                a=(_Dict(c=_Float("nan")), _List()))
    assert jsonio.canonical_dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert jsonio.canonical_dumps({_Str("k"): 1}) == json.dumps({"k": 1}, indent=2) + "\n"


def test_orjson_writes_each_float_of_the_plain_band_as_repr():
    # canonical_dumps leaves a float with 1e-4 <= |x| < 1e16, or 0, to orjson:
    # its text must be repr's, as a float and in a float64 row
    lo, hi = 1e-4, math.nextafter(1e16, 0)
    assert "e" in repr(math.nextafter(lo, 0)) and "e" in repr(1e16)
    edges = [lo, math.nextafter(lo, 1), hi, math.nextafter(hi, 0), 0.0, -0.0, 0.1, 1.0, 0.5,
             1e15, 123456789.123, 2.0 ** 53, 2.0 ** 53 + 2]
    bits = np.array([lo, hi]).view(np.int64)
    rng = np.random.default_rng(20240)
    sample = rng.integers(bits[0], bits[1], 50_000, endpoint=True).view(np.float64)
    row = np.concatenate([edges, np.negative(edges), sample, -sample])
    for x in row.tolist():
        assert orjson.dumps(x) == repr(x).encode(), x
    assert (orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)
            == ("[" + ",".join(map(repr, row.tolist())) + "]").encode())


# -- malformed spaces --------------------------------------------------------------

_GOOD = {"filtration": [[["a", "b", "c"]], [["a", "b"], ["c"]]], "blocks": [["a", "b", "c"]]}
# (field, level, cells, message); the first fault in cell order is the one named
_MALFORMED = [
    ("filtration", 1, [["a", "b"], []], "filtration level 1: empty cell"),
    ("filtration", 1, [["a", "b"], ["z"]], "filtration level 1: unknown outcome 'z'"),
    ("filtration", 1, [["a", "b"], ["b", "c"]], "filtration level 1: outcome 'b' in two cells"),
    ("filtration", 1, [["a"], ["c"]], "filtration level 1: cells do not cover the outcome set"),
    ("blocks", None, [["a", "b"], [], ["z"]], "blocks: empty cell"),
    ("blocks", None, [["a", "a"], [], ["c"]], "blocks: outcome 'a' in two cells"),
    ("blocks", None, [["z"], ["a", "a"]], "blocks: unknown outcome 'z'"),
    ("blocks", None, [["a", "b"]], "blocks: cells do not cover the outcome set"),
]


def _space_doc(field, level, cells):
    doc = {"schema": jsonio.SCHEMA, "outcomes": ["a", "b", "c"],
           "prob": [0.25, 0.25, 0.5], **json.loads(json.dumps(_GOOD))}
    if level is None:
        doc[field] = cells
    else:
        doc[field][level] = cells
    return doc


def _construct(doc):
    return FilteredSpace(doc["outcomes"], doc["prob"], doc["filtration"], doc["blocks"])


def _norms_of(tmp_path, space_doc):
    mp = tmp_path / "mart.json"
    mp.write_text(json.dumps({"schema": jsonio.SCHEMA, "space": space_doc,
                              "terminal": [1.0, 1.0, -1.0]}))
    return main(["norms", "--input", str(mp), "--p", "1", "--q", "1"])


@pytest.mark.parametrize("field, level, cells, message", _MALFORMED)
def test_malformed_space_is_named(tmp_path, capsys, field, level, cells, message):
    doc = _space_doc(field, level, cells)
    with pytest.raises(SpaceError) as info:
        _construct(doc)
    assert str(info.value) == message
    assert _norms_of(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: space: {message}\n"
    assert captured.out == ""


# (field, level, entry, where) over the outcomes a, b and cd: the string "ab",
# or the keys of {"a": 0, "b": 1}, once read as the cell ["a", "b"]
_NOT_ARRAYS = [
    ("filtration", 1, ["ab", ["cd"]], "filtration[1]"),
    ("filtration", 1, [["cd"], {"a": 0, "b": 1}], "filtration[1]"),
    ("filtration", 1, {"ab": 0, "cd": 1}, "filtration[1]"),
    ("blocks", None, ["ab", ["cd"]], "blocks"),
    ("blocks", None, [{"a": 0, "b": 1}, ["cd"]], "blocks"),
]


@pytest.mark.parametrize("field, level, entry, where", _NOT_ARRAYS)
def test_a_space_level_or_cell_that_is_no_array_is_named(tmp_path, capsys, field, level,
                                                         entry, where):
    doc = {"schema": jsonio.SCHEMA, "outcomes": ["a", "b", "cd"], "prob": [0.25, 0.25, 0.5],
           "filtration": [[["a", "b", "cd"]], [["a", "b"], ["cd"]]], "blocks": [["a", "b", "cd"]]}
    if level is None:
        doc[field] = entry
    else:
        doc[field][level] = entry
    assert _norms_of(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: space: {where} must be an array of arrays\n"
    assert captured.out == ""


@pytest.mark.parametrize("field", ["filtration level 1", "blocks"])
def test_a_string_cell_is_refused(field):
    level = ["ab", ["cd"]]
    filtration = [[["a", "b", "cd"]], level if field != "blocks" else [["a", "b"], ["cd"]]]
    blocks = level if field == "blocks" else [["a", "b", "cd"]]
    with pytest.raises(SpaceError, match=f"^{field}: cell 'ab' is a string, not a list of "
                                         "outcomes$"):
        FilteredSpace(["a", "b", "cd"], [0.25, 0.25, 0.5], filtration, blocks)


def test_martingale_not_adapted_at_its_last_level_is_input_error(tmp_path, capsys):
    space = {"schema": jsonio.SCHEMA, "outcomes": ["a", "b"], "prob": [0.5, 0.5],
             "filtration": [[["a", "b"]], [["a", "b"]]], "blocks": [["a", "b"]]}
    mp = tmp_path / "mart.json"
    mp.write_text(json.dumps({"schema": jsonio.SCHEMA, "space": space,
                              "levels": [[0, 0], [1, -1]]}))
    assert main(["norms", "--input", str(mp), "--p", "1", "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: martingale: level 1 is not measurable at time 1\n"
    assert captured.out == ""


def test_well_formed_space_decodes(tmp_path, capsys):
    space = _construct(_space_doc("blocks", None, [["c"], ["b", "a"]]))
    assert space.block_labels.tolist() == [1, 1, 0]
    assert space.level_labels[1].tolist() == [0, 0, 1]
    assert _norms_of(tmp_path, _space_doc("blocks", None, [["c"], ["b", "a"]])) == 0


def test_unhashable_outcome_is_input_error(tmp_path, capsys):
    doc = _space_doc("filtration", 1, [["a", ["b"]], ["c"]])
    with pytest.raises(SpaceError, match=r"unknown outcome \['b'\]"):
        _construct(doc)
    assert _norms_of(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: space: ")
    assert captured.out == ""


# -- stopping times in decomposition documents ----------------------------------


def _dyadic3():
    outcomes = [f"w{i}" for i in range(8)]
    filtration = [[outcomes[j:j + (8 >> n)] for j in range(0, 8, 8 >> n)] for n in range(4)]
    return FilteredSpace(outcomes, np.full(8, 1 / 8), filtration, [outcomes])


@pytest.mark.parametrize("tamper", ["half", "true"])
def test_verify_rejects_non_integer_stopping_times(tmp_path, capsys, tamper):
    space = _dyadic3()
    f = from_terminal(space, [3.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0, -3.0])
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", "--output", dp]) == 0
    doc = jsonio.load_json(dp)
    finite = [(t, i) for t, td in enumerate(doc["triples"])
              for i, x in enumerate(td["nu"]) if x is not None]
    assert finite
    for t, i in finite:
        nu = doc["triples"][t]["nu"]
        nu[i] = nu[i] + 0.5 if tamper == "half" else True
    jsonio.dump_json(doc, dp)
    with pytest.raises(jsonio.SchemaError, match="'nu' has wrong type"):
        jsonio.decomposition_from_doc(doc, space)
    capsys.readouterr()
    assert main(["verify", "--input", mp, "--decomposition", dp]) == 2
    assert "'nu' has wrong type" in capsys.readouterr().err


# -- malformed documents ----------------------------------------------------------

_DROP = object()
# (id, document, path, replacement): a callable maps the old value, _DROP
# deletes the field.  "f" is a martingale, "dec" its decomposition, "g" a
# function document; `verify` reads f and dec, `duality` f and g.
_MUTATIONS = [
    ("levels-short-row", "f", ("levels", 2), lambda v: v[:-1]),
    ("levels-missing-row", "f", ("levels",), lambda v: v[:-1]),
    ("levels-nested", "f", ("levels", 2, 0), [1.0]),
    ("levels-null-entry", "f", ("levels", 2, 0), None),
    ("levels-nan", "f", ("levels", 2, 0), math.nan),
    ("levels-huge-int", "f", ("levels", 2, 0), 10**400),
    ("levels-string", "f", ("levels",), "x"),
    ("levels-null", "f", ("levels",), None),
    ("levels-true", "f", ("levels", 2, 0), True),
    ("levels-numeric-string", "f", ("levels", 2, 0), "0.125"),
    ("levels-missing", "f", ("levels",), _DROP),
    ("space-missing", "f", ("space",), _DROP),
    ("schema-unknown", "f", ("schema",), "amalgam/0"),
    ("prob-short", "f", ("space", "prob"), lambda v: v[:-1]),
    ("prob-null-entry", "f", ("space", "prob", 0), None),
    ("prob-nested", "f", ("space", "prob", 0), [0.125]),
    ("prob-negative", "f", ("space", "prob", 0), -0.125),
    ("prob-huge-int", "f", ("space", "prob", 0), 10**400),
    ("prob-null", "f", ("space", "prob"), None),
    ("prob-true", "f", ("space", "prob", 0), True),
    ("prob-numeric-string", "f", ("space", "prob", 0), "0.125"),
    ("cells-null-cell", "f", ("space", "filtration", 1, 0), None),
    ("cells-int-outcome", "f", ("space", "filtration", 1, 0, 0), 3),
    ("cells-nested-outcome", "f", ("space", "filtration", 1, 0, 0), ["w0"]),
    ("cells-truncated", "f", ("space", "filtration", 3), lambda v: v[:-1]),
    ("filtration-missing-level", "f", ("space", "filtration"), lambda v: v[:-1]),
    ("blocks-null-cell", "f", ("space", "blocks", 0), None),
    ("outcomes-null-entry", "f", ("space", "outcomes", 0), None),
    ("outcomes-short", "f", ("space", "outcomes"), lambda v: v[:-1]),
    ("lambda-negative", "dec", ("triples", 0, "lambda"), -1.0),
    ("lambda-nan", "dec", ("triples", 0, "lambda"), math.nan),
    ("lambda-huge-int", "dec", ("triples", 0, "lambda"), 10**400),
    ("lambda-string", "dec", ("triples", 0, "lambda"), "1"),
    ("lambda-true", "dec", ("triples", 0, "lambda"), True),
    ("p-huge-int", "dec", ("p",), 10**400),
    ("p-tiny", "dec", ("p",), 1e-300),
    ("p-zero", "dec", ("p",), 0),
    ("p-null", "dec", ("p",), None),
    ("q-huge-int", "dec", ("q",), 10**400),
    ("q-nan", "dec", ("q",), math.nan),
    ("flavor-unknown", "dec", ("flavor",), "bogus"),
    ("defn-unknown", "dec", ("defn",), "bogus"),
    ("k-float", "dec", ("triples", 0, "k"), 0.5),
    ("triples-null", "dec", ("triples",), None),
    ("triple-null", "dec", ("triples", 0), None),
    ("nu-short", "dec", ("triples", 0, "nu"), lambda v: v[:-1]),
    ("nu-null", "dec", ("triples", 0, "nu"), None),
    ("nu-nested", "dec", ("triples", 0, "nu", 0), [0]),
    ("nu-string-entry", "dec", ("triples", 0, "nu", 0), "0"),
    ("nu-negative", "dec", ("triples", 0, "nu", 0), -1),
    ("nu-huge-int", "dec", ("triples", 0, "nu", 0), 10**400),
    ("terminal-true", "dec", ("triples", 0, "atom_terminal", 0), True),
    ("terminal-numeric-string", "dec", ("triples", 0, "atom_terminal", 0), "0.125"),
    ("terminal-short", "dec", ("triples", 0, "atom_terminal"), lambda v: v[:-1]),
    ("terminal-null-entry", "dec", ("triples", 0, "atom_terminal", 0), None),
    ("terminal-nested", "dec", ("triples", 0, "atom_terminal", 0), [1.0]),
    ("terminal-huge-int", "dec", ("triples", 0, "atom_terminal", 0), 10**400),
    ("terminal-string", "dec", ("triples", 0, "atom_terminal"), "x"),
    ("terminal-missing", "dec", ("triples", 0, "atom_terminal"), _DROP),
    ("values-short", "g", ("values",), lambda v: v[:-1]),
    ("values-null-entry", "g", ("values", 0), None),
    ("values-true", "g", ("values", 0), True),
    ("values-numeric-string", "g", ("values", 0), "0.125"),
    ("values-nan", "g", ("values", 0), math.nan),
    ("values-nested", "g", ("values", 0), [1.0]),
    ("values-huge-int", "g", ("values", 0), 10**400),
    ("values-null", "g", ("values",), None),
    ("g-on-another-space", "g", ("space", "prob"), [0.25, 0.0625, 0.0625, *[0.125] * 5]),
    ("g-space-missing", "g", ("space",), _DROP),
]


@pytest.fixture
def valid_documents(tmp_path):
    """Paths of a martingale, its decomposition at (p, q) = (0.5, 1), whose
    upper two rungs stop on 3/4 of the mass, and a function document."""
    space = _dyadic3()
    f = from_terminal(space, [3.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0, -3.0])
    paths = {role: str(tmp_path / f"{role}.json") for role in ("f", "dec", "g")}
    jsonio.dump_json(jsonio.martingale_to_doc(f), paths["f"])
    assert main(["decompose", "--input", paths["f"], "--p", "0.5", "--q", "1",
                 "--output", paths["dec"]]) == 0
    jsonio.dump_json(jsonio.function_to_doc(space, [1.0, -1.0, 2.0, -2.0, 0.0, 0.0, 3.0, -3.0]),
                     paths["g"])
    return paths


@pytest.mark.parametrize("role, path, new", [m[1:] for m in _MUTATIONS],
                         ids=[m[0] for m in _MUTATIONS])
def test_malformed_document_is_input_error(tmp_path, capsys, valid_documents, role, path, new):
    paths = dict(valid_documents)
    doc = jsonio.load_json(paths[role])
    *parents, key = path
    node = functools.reduce(operator.getitem, parents, doc)
    if new is _DROP:
        del node[key]
    else:
        node[key] = new(node[key]) if callable(new) else new
    paths[role] = str(tmp_path / "mutated.json")
    with open(paths[role], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = (["duality", "--input", paths["f"], "--g", paths["g"], "--p", "0.5", "--q", "1"]
            if role == "g" else ["verify", "--input", paths["f"], "--decomposition", paths["dec"]])
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("entry", [True, "0.125", None, [0.125]])
@pytest.mark.parametrize("key", ["prob", "levels", "terminal"])
def test_numbers_are_checked_by_type(tmp_path, capsys, key, entry):
    # np.asarray would read true as 1.0 and "0.125" as 0.125
    doc = _worked_doc()
    if key == "terminal":
        doc["terminal"] = doc.pop("levels")[-1]
    where, row = ("space", doc["space"]["prob"]) if key == "prob" else (
        "martingale", doc["levels"][-1] if key == "levels" else doc["terminal"])
    row[0] = entry
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.martingale_from_doc(doc)
    assert str(info.value) == f"{where}: field {key!r} has wrong type"
    mp = tmp_path / "mart.json"
    mp.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["norms", "--input", str(mp), "--p", "1", "--q", "1"]) == 2
    assert capsys.readouterr().err == f"error: {where}: field {key!r} has wrong type\n"


def test_verify_reports_a_rung_that_stops_nowhere(tmp_path, capsys, valid_documents):
    # P(B) = 0: the zero atom passes with bound 0 and the rung weighs 0, but
    # the rung is missing from the reconstruction
    doc = jsonio.load_json(valid_documents["dec"])
    dropped = doc["triples"][0]
    dropped["nu"] = [None] * 8
    dropped["atom_terminal"] = [0.0] * 8
    jsonio.dump_json(doc, valid_documents["dec"])
    capsys.readouterr()
    assert main(["verify", "--input", valid_documents["f"], "--decomposition",
                 valid_documents["dec"], "--r", "2,inf"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["reconstruction"]["ok"]
    assert out["atoms"]["ok"] and out["bounds"]["ok"]
    reports = [r for r in out["atoms"]["reports"] if r["k"] == dropped["k"]]
    assert [(r["r"], r["passed"], r["measured"], r["bound"]) for r in reports] == [
        (2.0, True, 0.0, 0.0), ("inf", True, 0.0, 0.0)]


def test_decompose_refuses_a_support_size_below_the_normal_floats(tmp_path, capsys):
    space = _dyadic3()
    f = from_terminal(space, [3.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0, -3.0])
    mp = str(tmp_path / "mart.json")
    jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
    # 0.75^(1/p) underflows to 0 at p = 0.0002, so lambda_k would be 0
    assert main(["decompose", "--input", mp, "--p", "0.0002", "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: p = 0.0002 is too small: a rung of mass 0.75 has support "
                            "size 0.0, not a normal float\n")


# -- values near the top of the float range -------------------------------------


def _near_the_top(name):
    """(space, terminal) whose norms, ladder thresholds or lambdas reach 2^1024."""
    if name == "two":
        space = FilteredSpace(["a", "b"], [0.5, 0.5], [[["a", "b"]], [["a"], ["b"]]],
                              [["a", "b"]])
        return space, [1e308, -1e308]
    if name == "four":
        outcomes = ["w1", "w2", "w3", "w4"]
        space = FilteredSpace(outcomes, [0.25] * 4, [[outcomes], [outcomes[:2], outcomes[2:]],
                                                     [[o] for o in outcomes]], [outcomes])
        return space, [6e307, -2e307, -2e307, -2e307]
    if name == "eight":
        s = _dyadic3()
        space = FilteredSpace(s.outcomes, s.prob, [s.cells(n) for n in range(4)],
                              [[o] for o in s.outcomes])
        return space, [1e308, -1e308] * 4
    if name == "three":
        # neighbouring levels of opposite sign: f_2 - f_1 at b is beyond the float range
        space = FilteredSpace(["a", "b", "c"], [0.01, 0.49, 0.5],
                              [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], ["b"], ["c"]]],
                              [["a", "b", "c"]])
        return space, [-1.7e308, 1.7e308, -1.632e308]
    return _dyadic3(), [3.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0, -3.0]


# (space, command, code); a refusal names the rung whose lambda is 2^1024
_NEAR_THE_TOP = [
    ("two", ["decompose", "--p", "1", "--q", "1"], 2),
    ("two", ["duality", "--p", "0.5", "--q", "1"], 2),
    ("four", ["decompose", "--flavor", "s", "--defn", "weighted", "--p", "1", "--q", "1"], 0),
    ("eight", ["norms", "--p", "1", "--q", "0.5"], 0),
    ("three", ["norms", "--p", "1", "--q", "1"], 0),
    ("plain", ["decompose", "--p", "1", "--q", "1", "--eta-grid", "0.001"], 0),
]


@pytest.mark.parametrize("name, argv, code", _NEAR_THE_TOP,
                         ids=[f"{n}-{a[0]}" for n, a, _ in _NEAR_THE_TOP])
def test_results_beyond_the_float_range_are_inf_or_refused(tmp_path, capsys, name, argv, code):
    space, terminal = _near_the_top(name)
    mp, gp = str(tmp_path / "mart.json"), str(tmp_path / "g.json")
    jsonio.dump_json({"schema": jsonio.SCHEMA, "space": jsonio.space_to_doc(space),
                      "terminal": terminal}, mp)
    if argv[0] == "duality":
        jsonio.dump_json(jsonio.function_to_doc(space, [1.0, -1.0]), gp)
        argv = [*argv, "--g", gp]
    assert main([*argv, "--input", mp]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == ("error: rung k = 1023: lambda_k = 2^1024 * 1.0 is inf, "
                                "not a positive finite float\n")
        return
    doc = json.loads(captured.out)
    if name == "three":
        # s(f) is finite; S(f) at a is about 3.7e308, so hardy_S and q_space are not
        norms = doc["norms"]
        assert norms["hardy_s"] == pytest.approx(1.666e308, rel=1e-12)
        assert norms["hardy_S"] == norms["q_space"] == math.inf
    elif argv[0] == "norms":
        # every norm is 8 * 1e308 or more
        assert list(doc["norms"].values()) == [math.inf] * 5
    else:
        entries = doc["certificate"]["entries"]
        assert entries[0]["budget"] == math.inf
        assert all(e["upper_ok"] and e["converse_ok"] for e in entries)


# -- the space of duality's g ----------------------------------------------------


def _duality_argv(tmp_path, f, g_space_doc):
    mp, gp = str(tmp_path / "mart.json"), str(tmp_path / "g.json")
    jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
    g = [3.0, -1.0, 2.0, -2.0]  # zero mean under _tilted's weights
    jsonio.dump_json({"schema": jsonio.SCHEMA, "space": g_space_doc, "values": g}, gp)
    return ["duality", "--input", mp, "--g", gp, "--p", "0.5", "--q", "1"]


def _tilted():
    space = FilteredSpace(["w1", "w2", "w3", "w4"], [0.125, 0.375, 0.25, 0.25],
                          [[["w1", "w2", "w3", "w4"]], [["w1", "w2"], ["w3", "w4"]],
                           [["w1"], ["w2"], ["w3"], ["w4"]]],
                          [["w1", "w2"], ["w3", "w4"]])
    return space, from_terminal(space, [2.0, 0.0, -1.0, 0.0])


@pytest.mark.parametrize("argv", [
    ["duality", "--mode", "exact", "--p", "1", "--q", "1"],
    ["duality", "--mode", "heuristic", "--p", "0.5", "--q", "1"],
    ["norms", "--p", "1", "--q", "1"],
])
def test_a_finite_g_whose_centred_levels_overflow_is_refused(tmp_path, capsys, argv):
    # g's mean, 1.2e292, is within SLACK of 0, but -max - mean is beyond the float range
    outcomes = ["a", "b", "c"]
    space = FilteredSpace(outcomes, [0.5191163258730965, 0.458204489701599, 0.022679184425304533],
                          [[outcomes], [[o] for o in outcomes]], [outcomes])
    g = [-1.1940921598734821e308, 1.4418081092205702e308, -sys.float_info.max]
    message = "terminal value minus its mean 1.2302942142496346e+292 must be finite"
    with pytest.raises(SpaceError) as info:
        from_terminal(space, g)
    assert str(info.value) == message
    mp, gp = str(tmp_path / "mart.json"), str(tmp_path / "g.json")
    f = from_terminal(space, [1.0, -1.0, -2.685803643958842])
    if argv[0] == "duality":
        jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
        jsonio.dump_json(jsonio.function_to_doc(space, g), gp)
        argv = [*argv, "--g", gp]
    else:  # a martingale document given by its terminal
        jsonio.dump_json({"schema": jsonio.SCHEMA, "space": jsonio.space_to_doc(space),
                          "terminal": g}, mp)
        message = "martingale: " + message
    assert main([*argv, "--input", mp]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("tamper", ["prob", "filtration", "blocks"])
def test_duality_rejects_g_on_another_space(tmp_path, capsys, tamper):
    space, f = _tilted()
    doc = jsonio.space_to_doc(space)
    if tamper == "prob":
        doc["prob"] = [0.375, 0.125, 0.25, 0.25]
    elif tamper == "filtration":
        doc["filtration"][1] = [["w1", "w3"], ["w2", "w4"]]
    else:
        doc["blocks"] = [["w1", "w2", "w3", "w4"]]
    capsys.readouterr()
    assert main(_duality_argv(tmp_path, f, doc)) == 2
    captured = capsys.readouterr()
    assert "martingale and function live on different spaces" in captured.err
    assert captured.out == ""


def test_duality_accepts_g_on_the_same_space_written_differently(tmp_path, capsys):
    space, f = _tilted()
    doc = jsonio.space_to_doc(space)
    argv = _duality_argv(tmp_path, f, doc)
    assert main(argv) == 0
    same = capsys.readouterr().out
    doc["filtration"][1].reverse()
    doc["filtration"][2].reverse()
    doc["blocks"] = [["w4", "w3"], ["w2", "w1"]]
    assert main(_duality_argv(tmp_path, f, doc)) == 0
    assert capsys.readouterr().out == same


def test_function_on_an_equal_space_document_is_not_decoded_again():
    space, _ = _tilted()
    space_doc = jsonio.space_to_doc(space)
    doc = jsonio.function_to_doc(space, [1.0, -1.0, 2.0, -2.0])
    got, values = jsonio.function_from_doc(json.loads(jsonio.canonical_dumps(doc)),
                                           space, space_doc)
    assert got is space
    assert values.tolist() == [1.0, -1.0, 2.0, -2.0]
    other, _ = jsonio.function_from_doc(doc)
    assert other is not space


@pytest.mark.parametrize("entry, message", [
    (None, "field 'values' has wrong type"), (True, "field 'values' has wrong type"),
    ("1.0", "field 'values' has wrong type"), (math.inf, "values must be finite"),
])
def test_function_values_are_checked_where_they_are_read(entry, message):
    space, _ = _tilted()
    doc = jsonio.function_to_doc(space, [1.0, -1.0, 2.0, -2.0])
    doc["values"][0] = entry
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.function_from_doc(doc)
    assert str(info.value) == f"function: {message}"


# -- one decode per martingale document ------------------------------------------


def _worked_doc():
    space = _dyadic3()
    f = from_terminal(space, [3.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0, -3.0])
    return jsonio.martingale_to_doc(f)


def test_repeat_call_does_not_decode_again(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(doc):
        calls.append(doc)
        return decode(doc)

    decode = jsonio.martingale_from_doc
    monkeypatch.setattr(jsonio, "martingale_from_doc", counted)
    monkeypatch.setattr(cli, "_martingale", None)
    mp = str(tmp_path / "mart.json")
    jsonio.dump_json(_worked_doc(), mp)
    argv = ["norms", "--input", mp, "--p", "1", "--q", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith(first)


def test_repeat_duality_decodes_no_space(tmp_path, monkeypatch, capsys):
    # g's space document equals f's, and the memo keeps f's to compare with
    calls = []

    def counted(doc):
        calls.append(doc)
        return decode(doc)

    decode = jsonio.space_from_doc
    monkeypatch.setattr(jsonio, "space_from_doc", counted)
    monkeypatch.setattr(cli, "_martingale", None)
    mp, gp = str(tmp_path / "mart.json"), str(tmp_path / "g.json")
    jsonio.dump_json(_worked_doc(), mp)
    jsonio.dump_json(jsonio.function_to_doc(_dyadic3(), [1.0, -1.0, 2.0, -2.0, 0.0, 0.0, 3.0,
                                                         -3.0]), gp)
    argv = ["duality", "--input", mp, "--g", gp, "--p", "0.5", "--q", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert len(calls) == 1


def test_file_rewritten_in_place_is_decoded_again(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_martingale", None)
    mp = tmp_path / "mart.json"
    doc = _worked_doc()
    jsonio.dump_json(doc, str(mp))
    before = cli._load_martingale(str(mp))
    last = doc["levels"][-1]
    last[0], last[1] = last[1], last[0]  # siblings of equal mass: still a martingale
    size = mp.stat().st_size
    jsonio.dump_json(doc, str(mp))
    assert mp.stat().st_size == size
    after = cli._load_martingale(str(mp))
    assert after is not before and cli._martingale[2] == doc["space"]
    assert after.levels.tolist() == doc["levels"]


def test_failed_decode_is_not_remembered(tmp_path, capsys):
    mp = tmp_path / "mart.json"
    mp.write_text('{"schema": ', encoding="utf-8")
    argv = ["norms", "--input", str(mp), "--p", "1", "--q", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {mp}: invalid JSON at line 1, column 12\n"
    assert captured.out == ""
    jsonio.dump_json(_worked_doc(), str(mp))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 1.0


def test_remembered_arrays_are_read_only(tmp_path):
    mp = str(tmp_path / "mart.json")
    jsonio.dump_json(_worked_doc(), mp)
    f = cli._load_martingale(mp)
    assert cli._load_martingale(mp) is f
    held = {k: a for k, a in vars(f.space).items() if isinstance(a, np.ndarray)}
    assert {"prob", "cell_offsets", "cell_labels", "cell_masses"} <= set(held)
    for array in (f.levels, f.terminal, *held.values(), *f.space.level_labels):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


# -- decoding: orjson, and json.loads where orjson refuses the bytes --------------


def _stdlib(data, path="doc.json"):
    """json.loads of the text UTF-8 text mode reads from ``data``, with each
    refusal of the text worded as load_json words it."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise jsonio.SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:
        raise jsonio.SchemaError(f"{path}: nested too deeply") from None


def _outcome(read, *args):
    """repr of what ``read(*args)`` returns, "deep" where that repr recurses too
    deeply, or the (type name, message) of its error."""
    try:
        got = read(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    try:
        return repr(got)
    except RecursionError:
        return "deep"


def _floated(x):
    """x with each integer beyond 64 bits as the float orjson reads it as."""
    if type(x) is int and not -2 ** 63 <= x < 2 ** 64:
        return float(x)
    if type(x) is list:
        return list(map(_floated, x))
    if type(x) is dict:
        return {k: _floated(v) for k, v in x.items()}
    return x


_BIG = [2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 64 + 2 ** 11, -2 ** 63, -2 ** 63 - 1, 10 ** 30,
        -10 ** 30]
#: number texts json.dumps never writes, strings orjson refuses, and ints beyond 64 bits
_LITERALS = ["-0", "-0.0", "5e-324", "2.4703282292062328e-324", "1E+2", "1e-400", "1e400",
             "-1e400", "NaN", "Infinity", "-Infinity", str(10 ** 400), *map(str, _BIG),
             '"\\ud800"', '"\\udfff\\ud800"', '"\\ud83d\\ude00"']
_LAYOUTS = ["{literal}", "[{value}, {literal}]", '{{"v": {literal}, "w": {value}}}',
            '{{"v": {value}, "v": {literal}}}']
_EDITS = ["", "cut", "x", ",", "}", "]", " ", "\r", "\ufeff", "\x00", "[", '"']


@st.composite
def _json_texts(draw):
    """The bytes of a drawn value beside a literal, maybe edited at a drawn place,
    maybe nested 100,000 deep, maybe with a byte that is no UTF-8."""
    value = draw(st.recursive(_scalars | st.sampled_from(_BIG),
                              lambda kids: st.lists(kids, max_size=4)
                              | st.dictionaries(_text, kids, max_size=4), max_leaves=12))
    text = draw(st.sampled_from(_LAYOUTS)).format(
        literal=draw(st.sampled_from(_LITERALS)),
        value=json.dumps(value, indent=draw(st.sampled_from([None, 2])),
                         ensure_ascii=draw(st.booleans())))
    edit = draw(st.sampled_from(_EDITS))
    i = draw(st.integers(0, len(text)))
    text = text[:i] + (text[i:] if edit == "cut" else edit + text[i:])
    depth = draw(st.sampled_from([0, 0, 0, 100_000]))
    data = ("[" * depth + text + "]" * depth).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        j = draw(st.integers(0, len(data)))
        data = data[:j] + b"\xff" + data[j:]
    return data


@given(_json_texts())
@example(b"[" * 100_000 + b"0" + b"]" * 100_000)
@example(b"[" * 100_000)
def test_load_json_reads_each_text_as_json_loads(data):
    want = _outcome(_stdlib, data)
    got = _outcome(jsonio.load_json, "doc.json", data)
    if got == want:
        return
    if want == ("SchemaError", "doc.json: nested too deeply"):
        assert got == "deep"  # orjson reads nesting past json.loads's recursion limit
    else:  # orjson reads an integer beyond 64 bits as a float
        assert got == repr(_floated(_stdlib(data))) != want


def _g_texts():
    """(f's document, g's text, g's space member text) on _dyadic3, written canonically."""
    doc = _worked_doc()
    g = jsonio.function_to_doc(_dyadic3(), [1.0, -1.0, 2.0, -2.0, 0.0, 0.0, 3.0, -3.0])
    member = jsonio.canonical_dumps({"space": doc["space"]})[len('{\n  "space": '):-len("\n}\n")]
    return doc, jsonio.canonical_dumps(g), member


def _leaves(x, path=()):
    """The path of every scalar in x."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else None
    if items is None:
        return [path]
    return [leaf for k, v in items for leaf in _leaves(v, (*path, k))]


def _put(doc, path, value):
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value


def _rename(space_doc, old, new, where):
    """Name outcome ``old`` ``new`` in the outcomes, in the cells, or in both."""
    if where != "cells":
        space_doc["outcomes"] = [new if o == old else o for o in space_doc["outcomes"]]
    if where != "outcomes":
        for cells in (*space_doc["filtration"], space_doc["blocks"]):
            for cell in cells:
                cell[:] = [new if o == old else o for o in cell]


def _dec_doc():
    d = decompose(jsonio.martingale_from_doc(_worked_doc()), 1.0, 1.0)
    return json.loads(jsonio.dump_decomposition(d, certify_bounds(d)))


def _loaded_as_json_loads_reads_them(work, f_doc, g_doc, d_doc):
    """Each loader reads the three documents, written by json.dumps in ``work``,
    as a reader on json.loads alone does."""
    paths = [os.path.join(work, name) for name in ("mart.json", "g.json", "dec.json")]
    for path, doc in zip(paths, (f_doc, g_doc, d_doc)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    mp, gp, dp = paths

    def martingale(load):
        f, space_doc = load(mp)
        return repr(f.space.outcomes), f.levels.tobytes(), repr(space_doc)

    def reference(path):
        doc = _stdlib(jsonio.read(path), path)
        return jsonio.martingale_from_doc(doc), doc["space"]

    want = _outcome(martingale, reference)
    assert _outcome(martingale, jsonio.load_martingale) == want
    if isinstance(want, str):
        f, space_doc = reference(mp)

        def function(path, f, space_doc):
            space, values = jsonio.function_from_doc(_stdlib(jsonio.read(path), path), f.space,
                                                     space_doc)
            if not same_space(space, f.space):
                raise jsonio.SchemaError("martingale and function live on different spaces")
            return values

        want = _outcome(lambda *args: function(*args).tobytes(), gp, f, space_doc)
        assert _outcome(lambda *args: jsonio.load_function(*args).tobytes(), gp,
                        *jsonio.load_martingale(mp)) == want

    f = jsonio.martingale_from_doc(_worked_doc())

    def decomposition(d):
        return (d.flavor, d.defn, repr((d.p, d.q, d.source_norm)),
                [(repr(t.k), repr(t.lam), t.nu.times.tobytes(), t.terminal.tobytes())
                 for t in d.triples])

    def reference_d(path, f):
        d = jsonio.decomposition_from_doc(_stdlib(jsonio.read(path), path), f.space)
        d.source_norm = source_norm_for(f, d.flavor, d.p, d.q)
        return decomposition(d)

    assert (_outcome(lambda *args: decomposition(jsonio.load_decomposition(*args)), dp, f)
            == _outcome(reference_d, dp, f))


_VALUES = [*_BIG, 10 ** 400, 1e30, 2.0 ** 64, 0.125, 1, True, None, "w1"]


@st.composite
def _edited(draw, doc, space_of=None):
    """``doc`` with up to three drawn edits: a leaf replaced, or an outcome of the
    space ``space_of(doc)`` renamed in the outcomes, in the cells or in both."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.sampled_from(_VALUES))
        if space_of is not None and draw(st.booleans()):
            space = space_of(doc)
            _rename(space, draw(st.sampled_from(space["outcomes"])), value,
                    draw(st.sampled_from(["both", "outcomes", "cells"])))
        else:
            _put(doc, draw(st.sampled_from(_leaves(doc))), value)
    return doc


@given(_edited(_worked_doc(), operator.itemgetter("space")),
       _edited(json.loads(_g_texts()[1]), operator.itemgetter("space")), _edited(_dec_doc()))
def test_each_loader_reads_a_document_as_json_loads_reads_it(f_doc, g_doc, d_doc):
    with tempfile.TemporaryDirectory() as work:
        _loaded_as_json_loads_reads_them(work, f_doc, g_doc, d_doc)


def _renamed(doc, old, new, where="both"):
    doc = json.loads(json.dumps(doc))
    _rename(doc["space"], old, new, where)
    return doc


@pytest.mark.parametrize("case", ["names beyond 64 bits", "f's name read as g's",
                                  "a cell name read as an outcome's", "k", "nu", "level"])
def test_integers_beyond_64_bits_read_as_json_loads_reads_them(tmp_path, case):
    # orjson reads each as a float: a type check refuses it in k and nu, a name check
    # where it names an outcome, and a number array reads it as json.loads's integer
    f_doc, g_doc, d_doc = _worked_doc(), json.loads(_g_texts()[1]), _dec_doc()
    if case == "names beyond 64 bits":  # orjson reads both as 2^64 + 2^12: duplicate outcomes
        f_doc = _renamed(_renamed(f_doc, "w0", 2 ** 64 + 2 ** 12 + 1), "w1", 2 ** 64 + 2 ** 12)
        g_doc = _renamed(g_doc, "w0", 2 ** 64 + 2 ** 12 + 1)
    elif case == "f's name read as g's":  # 2^64 and 2^64 + 1 both read as 2^64 by orjson
        f_doc, g_doc = _renamed(f_doc, "w0", 2 ** 64 + 1), _renamed(g_doc, "w0", 2 ** 64)
    elif case == "a cell name read as an outcome's":  # -2^63 - 1 reads as -2^63 by orjson
        f_doc = _renamed(_renamed(f_doc, "w0", -2 ** 63, "outcomes"), "w0", -2 ** 63 - 1,
                         "cells")
    elif case == "k":
        d_doc["triples"][0]["k"] = 2 ** 64 + 1
    elif case == "nu":
        d_doc["triples"][0]["nu"][0] = 2 ** 64
    else:
        f_doc["levels"][3][0] = 10 ** 30
    _loaded_as_json_loads_reads_them(str(tmp_path), f_doc, g_doc, d_doc)


def test_g_space_written_as_in_f_is_f_space_document(tmp_path, monkeypatch):
    # g's space member equals f's space document by value, though not written
    # as in f's file, so it is never decoded
    doc, g_text, member = _g_texts()
    mp, gp = str(tmp_path / "mart.json"), tmp_path / "g.json"
    jsonio.dump_json(doc, mp)
    gp.write_text(g_text.replace(member, json.dumps(json.loads(member))), encoding="utf-8")
    f, space_doc = jsonio.load_martingale(mp)
    assert space_doc == doc["space"]
    calls = _counted(monkeypatch, jsonio, "space_from_doc")
    values = jsonio.load_function(str(gp), f, space_doc)
    assert calls == [] and values.tolist() == json.loads(g_text)["values"]


@pytest.mark.parametrize("role", ["input", "g", "decomposition"])
@pytest.mark.parametrize("shape", ["closed", "NaN inside", "unclosed"])
def test_a_document_nested_too_deeply_is_input_error(tmp_path, capsys, role, shape):
    # orjson reads the closed text and refuses the others; json.loads reaches its recursion limit
    inner = "NaN" if shape == "NaN inside" else "0"
    text = "[" * 100_000 + inner + "]" * (0 if shape == "unclosed" else 100_000)
    mp, gp, dp = (str(tmp_path / name) for name in ("mart.json", "g.json", "dec.json"))
    doc, g_text, _ = _g_texts()
    jsonio.dump_json(doc, mp)
    with open(gp, "w", encoding="utf-8") as fh:
        fh.write(g_text)
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", "--output", dp]) == 0
    bad = {"input": mp, "g": gp, "decomposition": dp}[role]
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = (["verify", "--input", mp, "--decomposition", dp] if role == "decomposition"
            else ["duality", "--input", mp, "--g", gp, "--p", "1", "--q", "1"])
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: nested too deeply\n")


def test_function_on_another_space_is_refused_where_it_is_loaded(tmp_path):
    doc, g_text, member = _g_texts()
    tilted = jsonio.space_to_doc(_dyadic3())
    tilted["prob"] = [0.0625, 0.1875] + [0.125] * 6
    mp, gp = str(tmp_path / "mart.json"), str(tmp_path / "g.json")
    jsonio.dump_json(doc, mp)
    jsonio.dump_json({**json.loads(g_text), "space": tilted}, gp)
    f, kept = jsonio.load_martingale(mp)
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.load_function(gp, f, kept)
    assert str(info.value) == "martingale and function live on different spaces"


@pytest.mark.parametrize("fault", ["garbage", "bom", "cut in the space", "cut after the space",
                                   "cut before the brace", "trailing comma", "no colon",
                                   "bare name"])
def test_g_with_a_copy_of_f_space_and_a_fault_is_refused_as_json_loads_refuses_it(
        tmp_path, capsys, fault):
    doc, g_text, member = _g_texts()
    end = g_text.index(member) + len(member)
    text = {"garbage": g_text + "x",
            "bom": "\ufeff" + g_text,
            "cut in the space": g_text[:end - 30],
            "cut after the space": g_text[:end],
            "cut before the brace": g_text.rstrip()[:-1],
            "trailing comma": g_text.rstrip()[:-1] + ",}",
            "no colon": g_text.replace('"values":', '"values"'),
            "bare name": g_text.replace('"values":', "values:")}[fault]
    mp, gp = str(tmp_path / "mart.json"), tmp_path / "g.json"
    jsonio.dump_json(doc, mp)
    gp.write_bytes(text.encode("utf-8"))
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    argv = ["duality", "--input", mp, "--g", str(gp), "--p", "0.5", "--q", "1"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {gp}: invalid JSON at line {want.value.lineno}, column {want.value.colno}\n")


def _duality_of(tmp_path, doc, g_text):
    mp, gp = str(tmp_path / "mart.json"), tmp_path / "g.json"
    jsonio.dump_json(doc, mp)
    gp.write_text(g_text, encoding="utf-8")
    return main(["duality", "--input", mp, "--g", str(gp), "--p", "0.5", "--q", "1"])


@pytest.mark.parametrize("order", ["f's last", "f's first"])
def test_g_with_two_space_members_keeps_the_last(tmp_path, monkeypatch, capsys, order):
    doc, g_text, member = _g_texts()
    assert _duality_of(tmp_path, doc, g_text) == 0
    want = capsys.readouterr()
    tilted = jsonio.space_to_doc(_dyadic3())
    tilted["prob"] = [0.0625, 0.1875] + [0.125] * 6
    other = jsonio.canonical_dumps(tilted)[:-1].replace("\n", "\n  ")
    pair = [member, other] if order == "f's first" else [other, member]
    text = g_text.replace(f'"space": {member},', '"space": {},\n  "space": {},'.format(*pair))
    assert json.loads(text)["space"] == json.loads(pair[1])
    monkeypatch.setattr(cli, "_martingale", None)
    code = _duality_of(tmp_path, doc, text)
    if order == "f's last":
        assert (code, capsys.readouterr()) == (0, want)
    else:
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: martingale and function live on different spaces\n")


@pytest.mark.parametrize("written", ["compact", "reordered", "tilted"])
def test_g_space_written_otherwise_is_decoded_and_compared(tmp_path, monkeypatch, capsys,
                                                           written):
    doc, g_text, member = _g_texts()
    assert _duality_of(tmp_path, doc, g_text) == 0
    want = capsys.readouterr()
    space_doc = json.loads(member)
    if written == "compact":
        other = json.dumps(space_doc)
    else:
        if written == "reordered":
            space_doc["filtration"][3].reverse()
        else:
            space_doc["prob"] = [0.0625, 0.1875] + [0.125] * 6
        other = jsonio.canonical_dumps(space_doc)[:-1].replace("\n", "\n  ")
    text = g_text.replace(member, other)
    calls = []

    def counted(space_doc):
        calls.append(space_doc)
        return decode(space_doc)

    decode = jsonio.space_from_doc
    monkeypatch.setattr(jsonio, "space_from_doc", counted)
    monkeypatch.setattr(cli, "_martingale", None)
    code = _duality_of(tmp_path, doc, text)
    assert len(calls) == (1 if written == "compact" else 2)
    if written == "tilted":
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: martingale and function live on different spaces\n")
    else:
        assert (code, capsys.readouterr()) == (0, want)


# -- no decode of the decomposition document this process wrote ------------------


def _counted(monkeypatch, module, name):
    """The first arguments of each call of ``module.name`` from now on."""
    seen = []
    monkeypatch.setattr(module, name, lambda first, *args, orig=getattr(module, name):
                        seen.append(first) or orig(first, *args))
    return seen


def _decode_counts(monkeypatch):
    """Paths load_json reads and docs decomposition_from_doc decodes, from now on."""
    calls = {name: _counted(monkeypatch, jsonio, name)
             for name in ("load_json", "decomposition_from_doc")}
    monkeypatch.setattr(cli, "_martingale", None)
    monkeypatch.setattr(cli, "_decomposition", None)
    return calls


@pytest.mark.parametrize("flavor, defn", [("s", "simple"), ("S", "weighted")])
def test_verify_of_the_decomposition_just_written_does_not_decode_it(
        tmp_path, monkeypatch, capsys, flavor, defn):
    calls = _decode_counts(monkeypatch)
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(_worked_doc(), mp)
    assert main(["decompose", "--input", mp, "--p", "0.5", "--q", "1", "--flavor", flavor,
                 "--defn", defn, "--output", dp]) == 0
    verify = ["verify", "--input", mp, "--decomposition", dp]
    assert main(verify) == 0
    kept = capsys.readouterr().out
    assert calls == {"load_json": [mp], "decomposition_from_doc": []}
    cli._decomposition = None
    assert main(verify) == 0
    assert capsys.readouterr().out == kept
    assert calls["load_json"] == [mp, dp] and len(calls["decomposition_from_doc"]) == 1


def _fresh(argv):
    """(exit code, stdout, stderr) of the CLI run on ``argv`` in a new process."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-m", "amalgam.cli", *argv], capture_output=True,
                          text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("flavor, defn", [("s", "simple"), ("S", "weighted")])
def test_norms_decompose_verify_read_one_martingale_once_and_certify_once(
        tmp_path, monkeypatch, capsys, flavor, defn):
    calls = _decode_counts(monkeypatch)
    decoded = _counted(monkeypatch, jsonio, "martingale_from_doc")
    certified = _counted(monkeypatch, cli, "certify_bounds")
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(_worked_doc(), mp)
    pq = ["--p", "0.5", "--q", "1"]
    verify = ["verify", "--input", mp, "--decomposition", dp]
    for argv in (["norms", "--input", mp, *pq],
                 ["decompose", "--input", mp, *pq, "--flavor", flavor, "--defn", defn,
                  "--output", dp]):
        assert main(argv) == 0
    capsys.readouterr()
    assert main(verify) == 0
    out = capsys.readouterr().out
    assert (len(decoded), calls["decomposition_from_doc"], len(certified)) == (1, [], 1)
    assert _fresh(verify) == (0, out, "")


def test_a_new_martingale_file_drops_the_decomposition_record(tmp_path, monkeypatch):
    # the record of another f could never be read again, and it would hold that f alive
    _decode_counts(monkeypatch)
    mp, other, dp = (str(tmp_path / name) for name in ("mart.json", "other.json", "dec.json"))
    jsonio.dump_json(_worked_doc(), mp)
    jsonio.dump_json(jsonio.martingale_to_doc(from_terminal(_dyadic3(), [1.0, -1.0] * 4)), other)
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", "--output", dp]) == 0
    assert main(["norms", "--input", mp, "--p", "1", "--q", "1", "--output", dp + ".n"]) == 0
    assert cli._decomposition is not None
    assert main(["norms", "--input", other, "--p", "1", "--q", "1", "--output", dp + ".n"]) == 0
    assert cli._decomposition is None


@pytest.mark.parametrize("written, verified", [
    ("0.5,1", "0.25,0.75"), ("0.5,1", "1,0.5"), ("1", "1e-300"),
    ("0.5,1", "0.5,1"), (None, "0.25,0.5,0.75,1"), ("1", "1.0"),
])
def test_verify_takes_the_recorded_certificate_only_for_the_same_eta_grid(
        tmp_path, monkeypatch, capsys, written, verified):
    _decode_counts(monkeypatch)
    certified = _counted(monkeypatch, cli, "certify_bounds")
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(_worked_doc(), mp)
    grid = [] if written is None else ["--eta-grid", written]
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", *grid, "--output", dp]) == 0
    verify = ["verify", "--input", mp, "--decomposition", dp, "--eta-grid", verified]
    code = main(verify)
    out = capsys.readouterr().out
    same = [float(x) for x in verified.split(",")] == (
        [0.25, 0.5, 0.75, 1.0] if written is None else [float(x) for x in written.split(",")])
    assert len(certified) == (1 if same else 2)
    assert json.loads(out)["bounds"]["entries"][0]["eta"] == float(verified.split(",")[0])
    assert _fresh(verify) == (code, out, "")


def test_decomposition_rewritten_after_decompose_is_decoded_again(tmp_path, monkeypatch,
                                                                   capsys):
    calls = _decode_counts(monkeypatch)
    mp, dp = str(tmp_path / "mart.json"), tmp_path / "dec.json"
    jsonio.dump_json(_worked_doc(), mp)
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", "--output", str(dp)]) == 0
    doc = json.loads(dp.read_text(encoding="utf-8"))
    doc["triples"][0]["lambda"] *= 2
    doc["triples"][1]["nu"] = [1, None] * 4  # w0 stops at 1, its level-1 sibling w1 never
    jsonio.dump_json(doc, str(dp))
    assert main(["verify", "--input", mp, "--decomposition", str(dp)]) == 2
    assert capsys.readouterr() == (
        "", "error: decomposition.triples[1]: level set {time == 1} not measurable at 1\n")
    # refused, so built again from json.loads's reading, as every refused document is
    assert calls["load_json"] == [mp, str(dp)] and len(calls["decomposition_from_doc"]) == 2


def test_kept_decomposition_arrays_are_read_only(tmp_path, monkeypatch):
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(_worked_doc(), mp)
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", "--output", dp]) == 0
    kept = cli._decomposition[1].triples
    seen = []
    monkeypatch.setattr(cli, "verify_atom",
                        lambda d, t, rs, orig=cli.verify_atom: seen.append(t) or orig(d, t, rs))
    assert main(["verify", "--input", mp, "--decomposition", dp]) == 0
    assert len(seen) == len(kept) > 0 and all(t is k for t, k in zip(seen, kept))
    for t in kept:
        for array in (t.nu.times, t.terminal):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_only_what_cli_records_is_read_only(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_martingale", None)
    monkeypatch.setattr(cli, "_decomposition", None)
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(_worked_doc(), mp)
    # the library returns ordinary arrays
    f, _ = jsonio.load_martingale(mp)
    d = decompose(f, 1.0, 1.0)
    assert d.triples
    for array in (f.levels, *(a for t in d.triples for a in (t.terminal, t.nu.times))):
        assert array.flags.writeable
    # cli freezes the f and the triples it records
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", "--output", dp]) == 0
    recorded = cli._decomposition[1].triples
    assert recorded
    for array in (cli._martingale[1].levels,
                  *(a for t in recorded for a in (t.terminal, t.nu.times))):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_no_library_module_but_cli_has_a_global_statement():
    # state that outlives a call lives in cli's records alone
    package = pathlib.Path(atoms.__file__).parent
    held = sorted(path.name for path in package.glob("*.py")
                  if any(isinstance(node, ast.Global)
                         for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert held == ["cli.py"]


def test_no_library_module_but_space_applies_a_tolerance():
    # within() in space.py decides every verdict: elsewhere SLACK and TOL are only
    # re-exported, and read by ladder_window's noise floor, a cutoff and no verdict
    package = pathlib.Path(atoms.__file__).parent
    uses = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name
        names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                 else [node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute) else [])
        uses.extend((module, scope, name) for name in names
                    if name in ("SLACK", "TOL", "at_most"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(package.glob("*.py")):
        if path.name != "space.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    assert uses == [("__init__.py", None, "SLACK"), ("__init__.py", None, "TOL"),
                    ("martingale.py", None, "TOL"), ("martingale.py", "ladder_window", "TOL")]


def test_loaded_decomposition_carries_its_source_norm(tmp_path, monkeypatch):
    calls = _decode_counts(monkeypatch)
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(_worked_doc(), mp)
    assert main(["decompose", "--input", mp, "--p", "0.5", "--q", "1", "--flavor", "S",
                 "--output", dp]) == 0
    f = cli._load_martingale(mp)
    want = source_norm_for(f, "S", 0.5, 1.0)
    assert want > 0.0
    assert cli._decomposition[1].source_norm == want
    assert len(calls["decomposition_from_doc"]) == 0
    assert jsonio.load_decomposition(dp, f).source_norm == want
    assert len(calls["decomposition_from_doc"]) == 1


@pytest.mark.parametrize("fault, message", [
    ("terminal", "atom_terminal must be finite"),
    ("nu", "level set {time == 1} not measurable at 1"),
    ("lambda", "field 'lambda' must be finite and at least 0"),
])
def test_kept_decomposition_with_bad_values_is_refused_as_decoded(tmp_path, monkeypatch,
                                                                  capsys, fault, message):
    calls = _decode_counts(monkeypatch)
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(_worked_doc(), mp)
    f, _ = jsonio.load_martingale(mp)
    d = decompose(f, 1.0, 1.0)
    cert = certify_bounds(d)  # of the sound triples: a negative lambda cannot be certified
    t = d.triples[1]
    if fault == "terminal":
        t.terminal = np.where(np.arange(8) == 3, math.inf, t.terminal)
    elif fault == "nu":
        t.nu = StoppingTime(f.space, [1, INFINITY] * 4, validate=False)
    else:
        t.lam = -t.lam
    verify = ["verify", "--input", mp, "--decomposition", dp]
    for memo in (True, False):
        # with a record of the sound decomposition decompose wrote at dp, or with none,
        # the other bytes written there are decoded
        if memo:
            assert main(["decompose", "--input", mp, "--p", "1", "--q", "1",
                         "--output", dp]) == 0
        else:
            cli._decomposition = None
        jsonio.dump_decomposition(d, cert, dp)
        assert main(verify) == 2
        assert capsys.readouterr() == ("", f"error: decomposition.triples[1]: {message}\n")
        # each refused document is built twice: from orjson's reading, then json.loads's
        assert len(calls["decomposition_from_doc"]) == (2 if memo else 4)


@pytest.mark.parametrize("change", ["none", "lambda", "nu"])
def test_verify_prints_the_certificate_of_the_triples_as_written(tmp_path, monkeypatch, capsys,
                                                                 change):
    # the certificate passed to the writer is of the triples before the change: verify,
    # which takes the recorded certificate of the bytes decompose wrote, must not print it
    calls = _decode_counts(monkeypatch)
    sized = []
    monkeypatch.setattr(atoms, "_aggregates",
                        lambda d, etas, orig=atoms._aggregates: sized.append(d) or orig(d, etas))
    mp, dp = str(tmp_path / "mart.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(_worked_doc(), mp)
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", "--output", dp]) == 0
    f = cli._load_martingale(mp)
    d = decompose(f, 1.0, 1.0)
    stale = certify_bounds(d)
    t = d.triples[1]
    if change == "lambda":
        t.lam *= 2
    elif change == "nu":  # a new nu array, equal to the written one
        t.nu = StoppingTime(f.space, t.nu.times.copy())
    jsonio.dump_decomposition(d, stale, dp)
    # bytes equal to those decompose wrote, of the same f, are verified from its record
    kept = change != "lambda"
    verify = ["verify", "--input", mp, "--decomposition", dp]
    outputs = []
    for memo in (True, False):
        if not memo:
            cli._decomposition = None
        outputs.append((main(verify), capsys.readouterr()))
        assert len(calls["decomposition_from_doc"]) == (not kept) + (not memo)
        assert len(sized) == 2 + (not kept) + (not memo)
    assert outputs[0] == outputs[1]
    printed = json.loads(outputs[0][1].out)["bounds"]
    assert (printed["entries"] != jsonio.certificate_to_doc(stale)["entries"]) == (
        change == "lambda")


_LEVEL_ROWS = {  # levels 0, 1 and 2 on the 4-outcome dyadic space, as written
    "repeated": ("0, 0, 0, 0", "0.5, 0.5, -0.5, -0.5", "0.25, 0.75, -0.5, -0.5"),
    "signed zeros": ("-0.0, 0.0, -0.0, 0.0", "1.0, 1.0, -1.0, -1.0", "1.0, 1.0, -1.0, -1.0"),
    "subnormal": ("5e-324, -5e-324, 0.0, 5e-324", "1.0, 1.0, -1.0, -1.0", "2, 0, -1, -1"),
    "exponents": ("0, 0, 0, 0", "1E+2, 100.0, -1e2, -100", "1E+2, 1e+2, -100.0, -1E2"),
    "integers": ("0, 0, 0, 0", "1, 1, -1, -1", "2, 0, -1, -1"),
    "overflow": ("0, 0, 0, 0", "1e400, 1e400, -1e400, -1e400", "1e400, 1e400, -1e400, -1e400"),
    "boolean": ("0, 0, 0, 0", "true, 1.0, -1.0, -1.0", "1.0, 1.0, -1.0, -1.0"),
}


def _level_text(name):
    names = ["w1", "w2", "w3", "w4"]
    space = jsonio.dump_json(jsonio.space_to_doc(FilteredSpace(
        names, [0.25] * 4, [[names], [names[:2], names[2:]], [[w] for w in names]], [names])))
    levels = ", ".join(f"[{row}]" for row in _LEVEL_ROWS[name])
    return f'{{"levels": [{levels}], "schema": "amalgam/1", "space": {space}}}\n'


@pytest.mark.parametrize("name, error", [
    ("repeated", None), ("signed zeros", None), ("subnormal", None), ("exponents", None),
    ("integers", None), ("overflow", "martingale: martingale levels must be finite"),
    ("boolean", "martingale: field 'levels' has wrong type"),
])
def test_levels_decode_as_json_loads_decodes_them(tmp_path, monkeypatch, capsys, name, error):
    # the values, and each error with its exit code, are those of json.loads
    monkeypatch.setattr(cli, "_martingale", None)
    text = _level_text(name)
    mp = tmp_path / "mart.json"
    mp.write_text(text, encoding="utf-8")
    plain = json.loads(text)
    # every float to the bit, -0.0 and 1 vs 1.0 included
    assert repr(jsonio.load_json(str(mp))) == repr(plain)
    argv = ["norms", "--input", str(mp), "--p", "1", "--q", "1"]
    if error is None:
        f, _ = jsonio.load_martingale(str(mp))
        want = jsonio.martingale_from_doc(plain).levels
        assert f.levels.tobytes() == want.tobytes()
        assert main(argv) == 0
        return
    with pytest.raises(jsonio.SchemaError, match=f"^{error}$"):
        jsonio.martingale_from_doc(plain)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_stopping_time_names_its_first_unmeasurable_level():
    space = _dyadic3()
    # w0 stops at 1 and w1 at 2: {time == 1} splits a level-1 cell, {time == 2} a level-2 one
    for times in ([1, 2] + [INFINITY] * 6, [2, 1] + [INFINITY] * 6):
        with pytest.raises(SpaceError, match=r"^level set \{time == 1\} not measurable at 1$"):
            StoppingTime(space, times)
    with pytest.raises(SpaceError, match=r"^level set \{time == 2\} not measurable at 2$"):
        StoppingTime(space, [INFINITY] * 4 + [2, 3, INFINITY, INFINITY])
    StoppingTime(space, [1] * 4 + [2, 2, 3, INFINITY])


@pytest.mark.parametrize("command", ["decompose", "norms", "explore", "gen"])
def test_unusable_output_path_is_input_error(tmp_path, capsys, command):
    mp = str(tmp_path / "mart.json")
    jsonio.dump_json(_worked_doc(), mp)
    missing = str(tmp_path / "missing" / "out.json")
    pq = ["--p", "1", "--q", "1"]
    argv, path = {  # a missing directory, an existing directory, an existing file
        "decompose": (["decompose", "--input", mp, *pq, "--output", missing], missing),
        "norms": (["norms", "--input", mp, *pq, "--output", str(tmp_path)], str(tmp_path)),
        "explore": (["explore", "--count", "1", *pq, "--csv", missing], missing),
        "gen": (["gen", "--count", "1", "--out-dir", mp], mp),
    }[command]
    if command == "decompose":  # a record the failed write must drop
        assert main(["decompose", "--input", mp, *pq, "--output", mp + ".dec"]) == 0
        assert cli._decomposition is not None
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert path in captured.err
    if command == "decompose":
        assert cli._decomposition is None  # a failed write keeps no record, not even an earlier one


def test_one_outcome_depth_zero_space_runs_every_command(tmp_path, capsys):
    space = FilteredSpace(["w"], [1.0], [[["w"]]], [["w"]])
    mp, dp, gp = (str(tmp_path / f"{role}.json") for role in ("f", "dec", "g"))
    jsonio.dump_json(jsonio.martingale_to_doc(from_terminal(space, [0.0])), mp)
    jsonio.dump_json(jsonio.function_to_doc(space, [0.0]), gp)
    pq = ["--p", "0.5", "--q", "1"]
    for argv in (["norms", *pq], ["decompose", *pq, "--output", dp],
                 ["verify", "--decomposition", dp],
                 ["duality", *pq, "--g", gp, "--mode", "exact"],
                 ["duality", *pq, "--g", gp, "--mode", "heuristic"]):
        assert main([*argv, "--input", mp]) == 0, argv
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["norms", "duality"])
def test_line_endings_and_bad_bytes_decode_as_a_text_file_reads_them(tmp_path, capsys, command):
    space = _dyadic3()
    mp, gp = tmp_path / "mart.json", str(tmp_path / "g.json")
    g = [1.0, -1.0, 2.0, -2.0, 0.0, 0.0, 3.0, -3.0]
    jsonio.dump_json(jsonio.function_to_doc(space, g), gp)
    raw = jsonio.dump_json(_worked_doc()).encode()
    argv = {"norms": ["norms", "--input", str(mp), "--p", "1", "--q", "1"],
            "duality": ["duality", "--input", str(mp), "--g", gp, "--p", "0.5", "--q", "1"]}
    outputs = []
    for data in (raw, raw.replace(b"\n", b"\r\n"), raw.replace(b"\n", b"\r")):
        mp.write_bytes(data)
        assert main(argv[command]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1:] == outputs[:1] * 2
    for data, err in [
        (raw[:40] + b"\xff" + raw[40:],
         "error: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte\n"),
        (raw.replace(b'"w0"', b'"w\r\n0"', 1),
         f"error: {mp}: invalid JSON at line 48, column 11\n"),
    ]:
        mp.write_bytes(data)
        assert main(argv[command]) == 2
        assert capsys.readouterr() == ("", err)


# -- one parser per process --------------------------------------------------------


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    space, f = _tilted()
    mp = str(tmp_path / "mart.json")
    jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
    calls = {
        "custom": ["decompose", "--input", mp, "--p", "0.5", "--q", "1",
                   "--flavor", "S", "--eta-grid", "0.5"],
        "defaults": ["decompose", "--input", mp, "--p", "0.5", "--q", "1"],
    }
    outputs = {}
    for order in (("custom", "defaults"), ("defaults", "custom")):
        for name in order:
            main(calls[name])
            outputs[order, name] = capsys.readouterr().out
    for name in calls:
        assert outputs[("custom", "defaults"), name] == outputs[("defaults", "custom"), name]
    assert outputs[("custom", "defaults"), "custom"] != outputs[("custom", "defaults"), "defaults"]
    assert json.loads(outputs[("custom", "defaults"), "defaults"])["flavor"] == "s"
