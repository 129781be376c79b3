import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amalgam import (
    CorpusSpec,
    FilteredSpace,
    Martingale,
    explore_embeddings,
    from_terminal,
    generate,
)
from amalgam import harness, jsonio
from amalgam.cli import main
from amalgam.harness import MAX_OUTCOMES
from amalgam.norms import FIVE_NORMS


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
    with pytest.raises(ValueError, match="block_param"):
        CorpusSpec(block_policy="level-cells", block_param=-1)


@pytest.mark.parametrize("generator", ["dyadic", "coin-walk"])
def test_corpus_spec_bounds_the_branching_its_generator_uses(generator):
    # these trees split in two whatever max_branching says: 2^13 outcomes, not 1^13
    CorpusSpec(generator=generator, depth=12, max_branching=1)
    with pytest.raises(ValueError, match=f"^outcome bound {MAX_OUTCOMES} exceeded$"):
        CorpusSpec(generator=generator, depth=13, max_branching=1)
    CorpusSpec(generator="random-tree", depth=13, max_branching=1)  # 1 outcome


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


def _child_path(name):
    """The child indices that name an outcome: "c3[12]0" is (3, 12, 0).  Child j is
    written "j" for j <= 9 and "[j]" from 10 on, and nothing else parses."""
    assert re.fullmatch(r"c(\d|\[[1-9]\d+\])*", name), name
    return tuple(int(t.strip("[]")) for t in re.findall(r"\d|\[\d+\]", name[1:]))


@given(st.sampled_from(harness.GENERATORS), st.integers(0, 3), st.data(),
       st.sampled_from(harness.BLOCK_POLICIES), st.integers(0, 3), st.integers(0, 2 ** 16))
def test_generated_outcomes_are_distinct_and_each_cell_is_a_run_of_them(generator, depth, data,
                                                                        policy, param, seed):
    # max_branching up to 64, as far as branching ** depth <= MAX_OUTCOMES allows
    widest = 64 if depth < 3 else 16
    spec = CorpusSpec(generator=generator, seed=seed, depth=depth,
                      max_branching=data.draw(st.integers(1, widest)),
                      block_policy=policy, block_param=param)
    (space, _), = generate(spec)
    assert len(set(space.outcomes)) == space.size
    paths = [_child_path(o) for o in space.outcomes]
    assert {len(path) for path in paths} == {depth}
    for n in range(depth + 1):
        labels = space.level_labels[n]
        # a cell is one run of consecutive outcomes: the label changes only between cells
        assert np.count_nonzero(np.diff(labels)) == space.level_sizes[n] - 1
        # a level-n cell is named by its outcomes' first n child indices, so each child's
        # name starts with its parent's, and two cells never share a name
        names = {(int(c), path[:n]) for c, path in zip(labels, paths)}
        assert len(names) == len({name for _, name in names}) == space.level_sizes[n]


def test_a_random_tree_with_more_than_ten_children_per_cell_generates():
    # the root has 12 children and c1 has 12: child 10 of c1 and child 0 of the
    # root's child 11 were both named "c110", and the space was refused as having
    # duplicate outcomes
    (space, _), = generate(CorpusSpec(generator="random-tree", depth=2, max_branching=12,
                                      seed=71, count=1))
    assert space.size == 70 and len(set(space.outcomes)) == 70
    assert {"c1[10]", "c[11]0", "c1[11]", "c[11]1"} <= set(space.outcomes)


def test_a_root_with_twelve_children_names_them_c0_to_c9_then_bracketed():
    (space, _), = generate(CorpusSpec(generator="random-tree", depth=1, max_branching=12,
                                      seed=7))
    assert space.outcomes == tuple(f"c{j}" for j in range(10)) + ("c[10]", "c[11]")


# f* <= ||f||_P and S(f) <= ||f||_Q hold pointwise, so with constant 1 in every L_{p,q}
CONSTANT_ONE = (("hardy_star", "p_space"), ("hardy_S", "q_space"))


def _assert_constant_one_rows_hold(table):
    rows = {(r.numerator, r.denominator): r for r in table.rows}
    for pair in CONSTANT_ONE:
        # a row with no sample has a nan maximum: no ratio to bound
        assert rows[pair].samples == 0 or rows[pair].max_ratio <= 1 + 1e-12, rows[pair]


def test_explore_embeddings_diagonal():
    corpus = generate(CorpusSpec(generator="random-tree", count=20, seed=2,
                                 depth=3, max_branching=2,
                                 block_policy="random-partition", block_param=2))
    table = explore_embeddings(corpus, 1.0, 1.0)
    assert len(table.rows) == 20  # all ordered pairs of the five norms
    assert all(r.samples == 20 for r in table.rows)
    _assert_constant_one_rows_hold(table)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "numerator,denominator,max_ratio,median_ratio,samples"
    assert len(csv.splitlines()) == 21


@pytest.mark.parametrize("p, q", [(1.0, 1.0), (0.5, 1.0), (0.05, 0.05), (0.05, 1.0)])
@pytest.mark.parametrize("k", [-600, -50, 50, 600])
def test_explore_embeddings_do_not_depend_on_the_scale_of_f(p, q, k):
    # the five norms scale by 2^k exactly, so every ratio keeps every bit;
    # only a zero norm is zero, however small f is
    corpus = generate(CorpusSpec(generator="random-tree", count=50, seed=11,
                                 depth=3, max_branching=2,
                                 block_policy="random-partition", block_param=2))
    small = [(space, Martingale(space, f.levels * 2.0**k)) for space, f in corpus]
    assert explore_embeddings(small, p, q).to_csv() == explore_embeddings(corpus, p, q).to_csv()


@given(st.sampled_from(harness.GENERATORS), st.sampled_from(harness.BLOCK_POLICIES),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 16),
       st.sampled_from([0.002, 0.05, 0.5, 1.0, 2.0, 1e3]),
       st.sampled_from([0.002, 0.05, 0.5, 1.0, 2.0, 1e3, math.inf]),
       st.sampled_from([-600, 0, 600]))
def test_explore_embeddings_keep_the_constant_one_rows_at_most_1(generator, policy, depth,
                                                                 param, seed, p, q, k):
    corpus = generate(CorpusSpec(generator=generator, count=3, seed=seed, depth=depth,
                                 max_branching=3, block_policy=policy, block_param=param))
    scaled = [(space, Martingale(space, f.levels * 2.0**k)) for space, f in corpus]
    _assert_constant_one_rows_hold(explore_embeddings(scaled, p, q))


def test_explore_embeddings_off_diagonal():
    corpus = generate(CorpusSpec(generator="dyadic", count=5, seed=3, depth=2,
                                 block_policy="level-cells", block_param=1))
    table = explore_embeddings(corpus, 0.5, 1.0)
    assert all(r.samples == 5 for r in table.rows)
    _assert_constant_one_rows_hold(table)
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


def test_space_with_non_string_outcomes_round_trips():
    space = FilteredSpace([1, 2, 3], [0.25, 0.25, 0.5], [[[1, 2, 3]], [[1, 2], [3]]],
                          [[1], [2, 3]])
    doc = jsonio.space_to_doc(space)
    back = jsonio.space_from_doc(json.loads(jsonio.canonical_dumps(doc)))
    assert back.outcomes == ("1", "2", "3")
    assert back.cells(1) == [["1", "2"], ["3"]] and back.block_cells() == [["1"], ["2", "3"]]
    assert jsonio.canonical_dumps(jsonio.space_to_doc(back)) == jsonio.canonical_dumps(doc)


def test_space_whose_outcomes_share_a_string_is_refused_at_the_writer():
    # 1 and "1" are distinct outcomes, but both would be written as "1"
    space = FilteredSpace([1, "1"], [0.5, 0.5], [[[1, "1"]], [[1], ["1"]]], [[1, "1"]])
    with pytest.raises(jsonio.SchemaError, match="^space: distinct outcomes share the string '1'"):
        jsonio.space_to_doc(space)


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
        assert np.array_equal(ta.terminal, tb.terminal)
    for n in range(space.depth + 1):
        assert np.allclose(reconstruct(back)[n], f.levels[n])


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


def test_cli_norms_of_huge_values_are_finite(tmp_path, coin, capsys):
    space, _ = coin
    mp = _write_martingale(tmp_path, from_terminal(space, [1e200, -1e200]))
    assert main(["norms", "--input", mp, "--p", "2", "--q", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["norms"]) == 5
    for name, value in doc["norms"].items():
        assert value == pytest.approx(1e200, rel=1e-12), name


@pytest.mark.parametrize("p, q", [("1e-320", "1"), ("5e-324", "5e-324")])
def test_cli_norms_refuses_a_subnormal_exponent(tmp_path, worked_example, capsys, p, q):
    # such p once printed NaN with a RuntimeWarning, or 0.5 for every norm, and exit 0
    mp = _write_martingale(tmp_path, worked_example[1])
    assert main(["norms", "--input", mp, "--p", p, "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: p = {float(p)!r} is subnormal: below ")


def test_cli_decompose_then_verify(tmp_path, worked_example):
    _, f = worked_example
    mp = _write_martingale(tmp_path, f)
    dp = str(tmp_path / "dec.json")
    assert main(["decompose", "--input", mp, "--p", "2", "--q", "2",
                 "--output", dp]) == 0
    assert main(["verify", "--input", mp, "--decomposition", dp]) == 0


@pytest.mark.parametrize("r", ["1", "nan", "0.5,2"])
def test_cli_verify_without_an_admissible_exponent_is_input_error(
        tmp_path, worked_example, capsys, r):
    # at p = 2 every listed r fails r > max(p, 1): no atom would be checked
    _, f = worked_example
    mp = _write_martingale(tmp_path, f)
    dp = str(tmp_path / "dec.json")
    main(["decompose", "--input", mp, "--p", "2", "--q", "2", "--output", dp])
    capsys.readouterr()
    assert main(["verify", "--input", mp, "--decomposition", dp, "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "r > max(p, 1)" in captured.err


def test_cli_eta_grid_must_be_numbers(tmp_path, worked_example, capsys):
    mp = _write_martingale(tmp_path, worked_example[1])
    assert main(["decompose", "--input", mp, "--p", "1", "--q", "1", "--eta-grid", "x"]) == 2
    assert capsys.readouterr() == ("", "error: bad numeric list 'x'\n")


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


@pytest.mark.parametrize("k", [0, -40, -600])
def test_cli_verify_weighs_the_reconstruction_at_the_scale_of_f(tmp_path, worked_example, k):
    # one lambda off by 2^-10 of itself; a slack floored at 1 once let that pass for small f
    space, f = worked_example
    mp = _write_martingale(tmp_path, Martingale(space, np.ldexp(f.levels, k)))
    dp, out = str(tmp_path / "dec.json"), str(tmp_path / "report.json")
    assert main(["decompose", "--input", mp, "--p", "2", "--q", "2", "--output", dp]) == 0
    doc = jsonio.load_json(dp)
    doc["triples"][0]["lambda"] *= 1 + 2.0 ** -10
    jsonio.dump_json(doc, dp)
    assert main(["verify", "--input", mp, "--decomposition", dp, "--output", out]) == 1
    assert not jsonio.load_json(out)["reconstruction"]["ok"]


def test_cli_verify_detects_tampered_atom(tmp_path, worked_example):
    _, f = worked_example
    mp = _write_martingale(tmp_path, f)
    dp = str(tmp_path / "dec.json")
    main(["decompose", "--input", mp, "--p", "2", "--q", "2", "--output", dp])
    doc = jsonio.load_json(dp)
    doc["triples"][0]["atom_terminal"] = [5.0, 5.0, -5.0, -5.0]
    jsonio.dump_json(doc, dp)
    assert main(["verify", "--input", mp, "--decomposition", dp]) == 1


def test_cli_verify_refuses_a_small_rung_with_a_nonzero_mean(tmp_path):
    # E_0 a = 5e-10 on {nu >= 0}: no atom, though a slack floored at 1 once passed it
    assert main(["gen", "--generator", "dyadic", "--count", "1", "--depth", "2",
                 "--out-dir", str(tmp_path)]) == 0
    mp, dp = str(tmp_path / "mart_0000.json"), str(tmp_path / "dec.json")
    assert main(["decompose", "--input", mp, "--p", "0.5", "--q", "1", "--output", dp]) == 0
    doc = jsonio.load_json(dp)
    doc["triples"].append({"k": 5, "lambda": 1e-4, "nu": [0, 0, 0, 0],
                           "atom_terminal": [5e-10] * 4})
    jsonio.dump_json(doc, dp)
    out = str(tmp_path / "report.json")
    assert main(["verify", "--input", mp, "--decomposition", dp, "--output", out]) == 1
    report = jsonio.load_json(out)
    assert report["reconstruction"]["ok"] and report["bounds"]["ok"]
    failed = [r for r in report["atoms"]["reports"] if not r["passed"]]
    assert {r["k"] for r in failed} == {5} and len(failed) == 3
    assert all(r["vanishing_residual"] == 5e-10 for r in failed)


def test_cli_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["norms", "--input", str(bad), "--p", "1", "--q", "1"]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["norms", "--input", missing, "--p", "1", "--q", "1"]) == 2


def test_cli_duality_refuses_a_function_with_a_nonzero_mean(tmp_path, coin, capsys):
    space, f = coin
    mp, gp = _write_martingale(tmp_path, f), str(tmp_path / "g.json")
    jsonio.dump_json(jsonio.function_to_doc(space, [1.0, 0.5]), gp)
    assert main(["duality", "--input", mp, "--g", gp, "--p", "1", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: terminal value has nonzero mean 0.75\n"


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


def test_cli_duality_of_huge_values_is_finite(tmp_path, coin, capsys):
    space, f = coin
    mp = _write_martingale(tmp_path, f)
    gp = str(tmp_path / "g.json")
    jsonio.dump_json(jsonio.function_to_doc(space, [1e200, -1e200]), gp)
    for mode in ("exact", "heuristic"):
        assert main(["duality", "--input", mp, "--g", gp, "--p", "1", "--q", "1",
                     "--mode", mode]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["campanato"]["value"] == pytest.approx(1e200, rel=1e-12)
        for key in ("pairing_abs", "atomwise_bound", "budget"):
            assert math.isfinite(doc[key]), key


def test_cli_explore_and_gen(tmp_path, capsys):
    csv = str(tmp_path / "table.csv")
    argv = ["explore", "--generator", "random-tree", "--count", "10",
            "--seed", "4", "--depth", "3", "--p", "1", "--q", "1",
            "--block-policy", "random-partition", "--block-param", "2"]
    assert main(argv + ["--csv", csv]) == 0
    with open(csv) as fh:
        table = fh.read()
    assert len(table.splitlines()) == 21
    capsys.readouterr()
    assert main(argv) == 0  # with no --csv, the table goes to stdout
    assert capsys.readouterr().out == table
    out_dir = str(tmp_path / "corpus")
    assert main(["gen", "--generator", "dyadic", "--count", "3", "--depth", "2",
                 "--out-dir", out_dir]) == 0
    capsys.readouterr()
    files = sorted((tmp_path / "corpus").iterdir())
    assert [p.name for p in files] == ["mart_0000.json", "mart_0001.json",
                                       "mart_0002.json"]
    for p in files:
        jsonio.martingale_from_doc(jsonio.load_json(str(p)))


@pytest.mark.parametrize("command", ["gen", "explore"])
def test_cli_corpus_rejects_a_negative_block_param(tmp_path, capsys, command):
    argv = [command, "--block-policy", "level-cells", "--block-param", "-1",
            "--count", "1", "--depth", "2"]
    argv += ["--out-dir", str(tmp_path)] if command == "gen" else ["--p", "1", "--q", "1"]
    assert main(argv) == 2
    assert "block_param" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--generator", "random-tree", "--max-branching", "0"], "max_branching must be >= 1, got 0"),
    (["--generator", "dyadic", "--max-branching", "-1"], "max_branching must be >= 1, got -1"),
    (["--generator", "dyadic", "--depth", "13", "--max-branching", "1"],
     f"outcome bound {MAX_OUTCOMES} exceeded"),
], ids=["random-tree-0", "dyadic-negative", "dyadic-depth-13"])
def test_cli_gen_refuses_a_branching_it_cannot_build(tmp_path, capsys, flags, message):
    assert main(["gen", "--count", "1", "--out-dir", str(tmp_path), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


def test_cli_explore_skips_a_vanishing_denominator(capsys, monkeypatch):
    # a zero hardy_s, over or under another norm, is no sample: its rows are empty, and
    # the rest are whole
    monkeypatch.setattr(harness, "all_five_norms",
                        lambda f, p, q: {**dict.fromkeys(FIVE_NORMS, 1.0), "hardy_s": 0.0})
    assert main(["explore", "--count", "2", "--depth", "2", "--p", "1", "--q", "1"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 20
    for num, den, max_ratio, median_ratio, samples in rows:
        if "hardy_s" in (num, den):
            assert (max_ratio, median_ratio, samples) == ("nan", "nan", "0")
        else:
            assert samples == "2"


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
