import json

import numpy as np
import pytest

from amalgam import (
    CorpusSpec,
    Martingale,
    explore_embeddings,
    generate,
)
from amalgam import jsonio
from amalgam.cli import main
from amalgam.harness import MAX_OUTCOMES


def test_corpus_spec_validation():
    CorpusSpec(generator="dyadic", count=3, depth=2)
    with pytest.raises(ValueError):
        CorpusSpec(generator="bogus")
    with pytest.raises(ValueError):
        CorpusSpec(count=0)
    with pytest.raises(ValueError):
        CorpusSpec(block_policy="bogus")
    with pytest.raises(ValueError):
        CorpusSpec(depth=40, max_branching=2)  # exceeds the outcome bound


def test_generate_deterministic():
    spec = CorpusSpec(generator="random-tree", count=4, seed=9, depth=3,
                      max_branching=3, block_policy="random-partition",
                      block_param=2)
    a = generate(spec)
    b = generate(spec)
    assert len(a) == len(b) == 4
    for (sa, fa), (sb, fb) in zip(a, b):
        assert sa.outcomes == sb.outcomes
        assert np.array_equal(sa.prob, sb.prob)
        assert np.array_equal(fa.levels, fb.levels)


def test_generate_valid_martingales():
    for gen in ("dyadic", "random-tree", "coin-walk"):
        for space, f in generate(CorpusSpec(generator=gen, count=3, depth=3,
                                            seed=1, block_policy="level-cells",
                                            block_param=1)):
            Martingale(space, f.levels)  # revalidate
            assert abs(float(space.prob @ f.terminal)) < 1e-12
            assert space.size <= MAX_OUTCOMES


def test_coin_walk_terminal_shape():
    space, f = generate(CorpusSpec(generator="coin-walk", count=1, depth=3))[0]
    # the walk moves by one unit per level, so terminals are in {-3,...,3}
    assert np.all(np.abs(f.terminal - f.terminal.round()) < 1e-9)
    assert np.max(np.abs(f.terminal)) <= 3 + 1e-9


def test_explore_embeddings_diagonal():
    corpus = generate(CorpusSpec(generator="random-tree", count=20, seed=2,
                                 depth=3, max_branching=2,
                                 block_policy="random-partition", block_param=2))
    table = explore_embeddings(corpus, 1.0, 1.0)
    assert len(table.rows) == 20  # all ordered pairs of the five norms
    assert table.checked_items  # the diagonal direction list is active
    assert not table.violations
    csv = table.to_csv()
    assert csv.splitlines()[0].startswith("numerator,denominator")
    assert len(csv.splitlines()) == 21


def test_explore_embeddings_off_diagonal():
    corpus = generate(CorpusSpec(generator="dyadic", count=5, seed=3, depth=2,
                                 block_policy="level-cells", block_param=1))
    table = explore_embeddings(corpus, 0.5, 1.0)
    assert table.checked_items == []  # exploratory only
    assert not table.violations
    with pytest.raises(ValueError):
        explore_embeddings([], 1.0, 1.0)


# --- canonical JSON round-trips -------------------------------------------


def test_space_round_trip(dyadic2):
    doc = jsonio.space_to_doc(dyadic2)
    back = jsonio.space_from_doc(json.loads(jsonio.canonical_dumps(doc)))
    assert back.outcomes == dyadic2.outcomes
    assert np.array_equal(back.prob, dyadic2.prob)
    assert back.block_cells() == dyadic2.block_cells()
    # canonical form is stable under a second round trip
    assert jsonio.canonical_dumps(jsonio.space_to_doc(back)) == jsonio.canonical_dumps(doc)


def test_martingale_round_trip(worked_example):
    _, f = worked_example
    doc = jsonio.martingale_to_doc(f)
    back = jsonio.martingale_from_doc(json.loads(jsonio.canonical_dumps(doc)))
    assert np.allclose(back.levels, f.levels)


def test_martingale_from_terminal_doc(dyadic2):
    doc = jsonio.space_to_doc(dyadic2)
    f = jsonio.martingale_from_doc(
        {"schema": jsonio.SCHEMA, "space": doc, "terminal": [2, 0, -1, -1]}
    )
    assert np.allclose(f.levels[1], [1, 1, -1, -1])


def test_decomposition_round_trip(worked_example):
    from amalgam import decompose, reconstruct

    space, f = worked_example
    d = decompose(f, 2, 2, flavor="s", defn="simple")
    doc = json.loads(jsonio.canonical_dumps(jsonio.decomposition_to_doc(d)))
    back = jsonio.decomposition_from_doc(doc, space)
    assert len(back.triples) == len(d.triples)
    for ta, tb in zip(d.triples, back.triples):
        assert ta.k == tb.k
        assert ta.lam == pytest.approx(tb.lam)
        assert np.array_equal(ta.nu.times, tb.nu.times)
        assert np.allclose(ta.atom.levels, tb.atom.levels)
    for n in range(space.depth + 1):
        assert np.allclose(reconstruct(back, n), f.levels[n])


def test_schema_errors():
    with pytest.raises(jsonio.SchemaError):
        jsonio.space_from_doc({"schema": "other/9"})
    with pytest.raises(jsonio.SchemaError):
        jsonio.space_from_doc({"schema": jsonio.SCHEMA})  # missing fields
    with pytest.raises(jsonio.SchemaError):
        jsonio.martingale_from_doc({"schema": jsonio.SCHEMA, "space": {}})
    with pytest.raises(jsonio.SchemaError):
        jsonio.load_json("/nonexistent/file.json")


# --- CLI ------------------------------------------------------------------


def _write_martingale(tmp_path, f):
    path = tmp_path / "mart.json"
    jsonio.dump_json(jsonio.martingale_to_doc(f), path)
    return str(path)


def test_cli_norms(tmp_path, worked_example, capsys):
    _, f = worked_example
    mp = _write_martingale(tmp_path, f)
    assert main(["norms", "--input", mp, "--p", "2", "--q", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norms"]["hardy_s"] == pytest.approx(np.sqrt(1.5))
    assert doc["norms"]["hardy_star"] == pytest.approx(np.sqrt(1.75))


def test_cli_decompose_then_verify(tmp_path, worked_example):
    _, f = worked_example
    mp = _write_martingale(tmp_path, f)
    dp = str(tmp_path / "dec.json")
    assert main(["decompose", "--input", mp, "--p", "2", "--q", "2",
                 "--output", dp]) == 0
    assert main(["verify", "--input", mp, "--decomposition", dp]) == 0


def test_cli_verify_detects_tampered_lambda(tmp_path, worked_example, capsys):
    _, f = worked_example
    mp = _write_martingale(tmp_path, f)
    dp = str(tmp_path / "dec.json")
    main(["decompose", "--input", mp, "--p", "2", "--q", "2", "--output", dp])
    doc = jsonio.load_json(dp)
    doc["triples"][0]["lambda"] *= 0.5
    jsonio.dump_json(doc, dp)
    out = str(tmp_path / "report.json")
    assert main(["verify", "--input", mp, "--decomposition", dp,
                 "--output", out]) == 1
    report = jsonio.load_json(out)
    assert not report["passed"]
    assert not report["reconstruction"]["ok"]
    assert report["reconstruction"]["max_residual"] > 0.1


def test_cli_verify_detects_tampered_atom(tmp_path, worked_example):
    _, f = worked_example
    mp = _write_martingale(tmp_path, f)
    dp = str(tmp_path / "dec.json")
    main(["decompose", "--input", mp, "--p", "2", "--q", "2", "--output", dp])
    doc = jsonio.load_json(dp)
    doc["triples"][0]["atom_terminal"] = [5.0, 5.0, -5.0, -5.0]
    jsonio.dump_json(doc, dp)
    assert main(["verify", "--input", mp, "--decomposition", dp]) == 1


def test_cli_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["norms", "--input", str(bad), "--p", "1", "--q", "1"]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["norms", "--input", missing, "--p", "1", "--q", "1"]) == 2


def test_cli_duality(tmp_path, coin, capsys):
    space, f = coin
    mp = _write_martingale(tmp_path, f)
    gp = str(tmp_path / "g.json")
    jsonio.dump_json(jsonio.function_to_doc(space, [1.0, -1.0]), gp)
    assert main(["duality", "--input", mp, "--g", gp, "--p", "1", "--q", "1",
                 "--mode", "exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chain_ok"]
    assert doc["pairing"] == pytest.approx(1.0)
    assert doc["campanato"]["mode"] == "exact-enumeration"


def test_cli_explore_and_gen(tmp_path, capsys):
    csv = str(tmp_path / "table.csv")
    assert main(["explore", "--generator", "random-tree", "--count", "10",
                 "--seed", "4", "--depth", "3", "--p", "1", "--q", "1",
                 "--block-policy", "random-partition", "--block-param", "2",
                 "--csv", csv]) == 0
    with open(csv) as fh:
        assert len(fh.read().splitlines()) == 21
    out_dir = str(tmp_path / "corpus")
    assert main(["gen", "--generator", "dyadic", "--count", "3", "--depth", "2",
                 "--out-dir", out_dir]) == 0
    capsys.readouterr()
    files = sorted((tmp_path / "corpus").iterdir())
    assert [p.name for p in files] == ["mart_0000.json", "mart_0001.json",
                                       "mart_0002.json"]
    for p in files:
        jsonio.martingale_from_doc(jsonio.load_json(str(p)))


def test_cli_selftest(capsys):
    assert main(["selftest", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)


# --- boundary checks --------------------------------------------------------


@pytest.mark.parametrize("field", ["p", "k", "lambda"])
def test_json_booleans_are_not_numbers(tmp_path, worked_example, capsys, field):
    space, f = worked_example
    mp = _write_martingale(tmp_path, f)
    dp = str(tmp_path / "dec.json")
    main(["decompose", "--input", mp, "--p", "2", "--q", "2", "--output", dp])
    doc = jsonio.load_json(dp)
    target = doc if field == "p" else doc["triples"][0]
    target[field] = field != "lambda"  # true, true, false
    with pytest.raises(jsonio.SchemaError, match=repr(field)):
        jsonio.decomposition_from_doc(doc, space)
    jsonio.dump_json(doc, dp)
    assert main(["verify", "--input", mp, "--decomposition", dp]) == 2
    assert "wrong type" in capsys.readouterr().err


def test_nan_probability_is_rejected(tmp_path, capsys):
    from amalgam import FilteredSpace, SpaceError

    args = (["a", "b"], [float("nan"), 0.5], [[["a", "b"]], [["a"], ["b"]]], [["a", "b"]])
    with pytest.raises(SpaceError, match="strictly positive"):
        FilteredSpace(*args)
    doc = {"schema": jsonio.SCHEMA, "outcomes": args[0], "prob": args[1],
           "filtration": args[2], "blocks": args[3]}
    mp = tmp_path / "mart.json"
    mp.write_text(json.dumps({"schema": jsonio.SCHEMA, "space": doc, "terminal": [1.0, -1.0]}))
    assert main(["norms", "--input", str(mp), "--p", "1", "--q", "1"]) == 2
    assert "strictly positive" in capsys.readouterr().err


def _tamper(tmp_path, f, what, value):
    """Write a document with one entry set to value; return the CLI argv using it."""
    mp = _write_martingale(tmp_path, f)
    if what == "levels":
        doc = jsonio.load_json(mp)
        doc["levels"][2][1] = value
        jsonio.dump_json(doc, mp)
        return ["norms", "--input", mp, "--p", "1", "--q", "2"]
    if what == "g":
        gp = str(tmp_path / "g.json")
        jsonio.dump_json(jsonio.function_to_doc(f.space, [1.0, value, -1.0, 0.0]), gp)
        return ["duality", "--input", mp, "--g", gp, "--p", "0.5", "--q", "1"]
    dp = str(tmp_path / "dec.json")
    main(["decompose", "--input", mp, "--p", "2", "--q", "2", "--output", dp])
    doc = jsonio.load_json(dp)
    if what == "lambda":
        doc["triples"][0]["lambda"] = value
    else:
        doc["triples"][0]["atom_terminal"][1] = value
    jsonio.dump_json(doc, dp)
    return ["verify", "--input", mp, "--decomposition", dp]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("what", ["levels", "g", "lambda", "atom_terminal"])
def test_non_finite_input_is_rejected(tmp_path, worked_example, capsys, what, value):
    _, f = worked_example
    argv = _tamper(tmp_path, f, what, value)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""


def test_non_finite_terminal_is_rejected(dyadic2):
    from amalgam import SpaceError, from_terminal

    for bad in (np.nan, np.inf):
        with pytest.raises(SpaceError, match="must be finite"):
            from_terminal(dyadic2, [1.0, bad, -1.0, 0.0])
        with pytest.raises(SpaceError, match="must be finite"):
            Martingale(dyadic2, [[0.0] * 4, [0.5, 0.5, -0.5, -0.5], [1.0, bad, -1.0, 0.0]])
