import json
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import amalgam
from amalgam import (
    AtomTriple,
    Decomposition,
    FilteredSpace,
    Martingale,
    SpaceError,
    StoppingTime,
    aggregate_eta_norm,
    all_five_norms,
    campanato_norm,
    certify_bounds,
    cli,
    decompose,
    from_terminal,
    hardy_s_norm,
    jsonio,
    ladder_constant,
    ladder_stopping_time,
    p_space_norm,
    q_space_norm,
    reconstruct,
    reconstruction_residuals,
    stop,
    verify_atom,
)
from amalgam.atoms import DEFNS, FLAVORS, _power, _sizes, atom_statistic, default_r, rung_weight
from amalgam.cli import main
from amalgam.harness import CorpusSpec, generate
from amalgam.martingale import _ladder_statistic, ladder_times
from amalgam.norms import lpq_norm, source_norm_for
from amalgam.space import (
    INFINITY, SLACK, at_most, binary_exponent, condition_rows, scale_of, times_pow2,
)
from conftest import random_martingale, random_tree_space, small_martingales

SQ2 = np.sqrt(2.0)

ALL_COMBOS = [(fl, df) for fl in FLAVORS for df in DEFNS]


def test_decompose_worked_example_golden(worked_example):
    space, f = worked_example
    d = decompose(f, 2, 2, flavor="s", defn="simple")
    assert d.source_norm == pytest.approx(np.sqrt(1.5))
    assert [t.k for t in d.triples] == [-1, 0]
    lam = {t.k: t.lam for t in d.triples}
    assert lam[-1] == pytest.approx(1.0)
    assert lam[0] == pytest.approx(SQ2)
    nus = {t.k: list(t.nu.times) for t in d.triples}
    assert nus[-1] == [0, 0, 0, 0]
    assert nus[0] == [1, 1, np.iinfo(np.int64).max, np.iinfo(np.int64).max]
    atoms = {t.k: t.terminal for t in d.triples}
    assert np.allclose(atoms[-1], [1, 1, -1, -1])
    assert np.allclose(atoms[0], np.array([1, -1, 0, 0]) / SQ2)


def test_decompose_zero_martingale(dyadic2):
    f = Martingale(dyadic2, np.zeros((3, 4)))
    for flavor, defn in ALL_COMBOS:
        d = decompose(f, 1, 1, flavor=flavor, defn=defn)
        assert d.triples == []
        assert d.source_norm == 0.0
        assert certify_bounds(d).passed
        # C(0.001) is inf, but the budget of a zero source norm is 0
        assert [e.budget for e in certify_bounds(d, eta_grid=[0.001]).entries] == [0.0]
        assert certify_bounds(d, eta_grid=[0.001]).passed


def test_weighted_coincides_with_simple_on_diagonal():
    # ||1_B||_{p,p} = P(B)^{1/p}, so both coefficient rules agree at p = q
    rng = np.random.default_rng(30)
    for _ in range(10):
        space = random_tree_space(rng, depth=3, branching=2, n_blocks=3)
        f = random_martingale(rng, space)
        for flavor in FLAVORS:
            a = decompose(f, 0.7, 0.7, flavor=flavor, defn="simple")
            b = decompose(f, 0.7, 0.7, flavor=flavor, defn="weighted")
            assert len(a.triples) == len(b.triples)
            for ta, tb in zip(a.triples, b.triples):
                assert ta.lam == pytest.approx(tb.lam, rel=1e-12)
                assert np.allclose(ta.terminal * ta.lam, tb.terminal * tb.lam)


def test_reconstruction_exact_all_variants():
    rng = np.random.default_rng(31)
    for _ in range(10):
        space = random_tree_space(rng, depth=3, branching=3, n_blocks=2)
        f = random_martingale(rng, space)
        for flavor, defn in ALL_COMBOS:
            d = decompose(f, 0.5, 1.0, flavor=flavor, defn=defn)
            for n in range(space.depth + 1):
                err = np.max(np.abs(reconstruct(d)[n] - f.levels[n]))
                assert err < 1e-10


def test_atoms_verify_all_variants():
    rng = np.random.default_rng(32)
    for _ in range(8):
        space = random_tree_space(rng, depth=3, branching=2, n_blocks=2)
        f = random_martingale(rng, space)
        for p, q in ((0.5, 0.5), (0.5, 1.0), (1.0, 2.0)):
            for flavor, defn in ALL_COMBOS:
                d = decompose(f, p, q, flavor=flavor, defn=defn)
                rs = [r for r in (2.0, 4.0, math.inf) if r > max(p, 1.0)]
                for t in d.triples:
                    rep, = verify_atom(d, t)
                    assert rep.passed, (flavor, defn, t.k, rep)
                    assert all(rep.passed for rep in verify_atom(d, t, rs))


@given(small_martingales(random_weights=True, max_blocks=2), st.sampled_from(ALL_COMBOS))
def test_atoms_are_stopped_differences_and_reconstruct_f(case, variant):
    space, f = case
    flavor, defn = variant
    d = decompose(f, 0.5, 1.0, flavor=flavor, defn=defn)
    for t in d.triples:
        nu = ladder_stopping_time(f, t.k, flavor)
        assert np.array_equal(t.nu.times, nu.times)
        rung = (stop(f, ladder_stopping_time(f, t.k + 1, flavor)).levels
                - stop(f, nu).levels) / t.lam
        assert np.array_equal(t.terminal, rung[-1])
        # the atom's table is its terminal conditioned at every level
        levels = condition_rows(space, np.broadcast_to(t.terminal, rung.shape))
        assert at_most(np.abs(levels - rung), SLACK * scale_of(rung))
    assert reconstruction_residuals(d, f)[1]


def test_reconstruction_residuals_are_those_verify_prints(tmp_path, capsys):
    [(space, f)] = generate(CorpusSpec(generator="random-tree", depth=3, seed=7, max_branching=3))
    mp, dp = str(tmp_path / "f.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
    assert main(["decompose", "--input", mp, "--p", "0.5", "--q", "1", "--defn", "weighted",
                 "--output", dp]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", mp, "--decomposition", dp]) == 0
    block = json.loads(capsys.readouterr().out)["reconstruction"]
    residual, ok = reconstruction_residuals(jsonio.load_decomposition(dp, f), f)
    assert block["residual_per_level"] == residual.tolist() and block["ok"] is ok is True
    assert len(residual) == space.depth + 1
    d = decompose(f, 0.5, 1.0)
    d.triples[0].terminal = np.full(space.size, math.nan)
    residual, ok = reconstruction_residuals(d, f)
    assert np.isnan(residual).all() and ok is False


@given(small_martingales(random_weights=True, max_blocks=2), st.sampled_from(ALL_COMBOS),
       st.sampled_from([(0.5, 1.0), (2.0, 0.75)]))
def test_verify_and_reconstruct_agree_on_the_document_path(case, variant, pq):
    # a decomposition read back from its document verifies bit for bit as the
    # one decompose returned: both hold each atom as the same terminal
    space, f = case
    d = decompose(f, *pq, flavor=variant[0], defn=variant[1])
    doc = json.loads(jsonio.canonical_dumps(jsonio.decomposition_to_doc(d)))
    back = jsonio.decomposition_from_doc(doc, space)
    assert reconstruct(back).tobytes() == reconstruct(d).tobytes()
    rs = [r for r in (2.0, 4.0, math.inf) if r > max(pq[0], 1.0)]
    for t, tb in zip(d.triples, back.triples, strict=True):
        assert verify_atom(back, tb, rs) == verify_atom(d, t, rs)


def test_verify_atom_flags_size_violation(coin):
    space, _ = coin
    bad = from_terminal(space, [3.0, -3.0])
    nu = StoppingTime(space, [0, 0])
    t = AtomTriple(0, 1.0, bad.terminal, nu)
    d = Decomposition(space, "s", "simple", 1.0, 1.0, [t], source_norm=0.0)
    rep, = verify_atom(d, t, [2.0])
    # full-mass support makes the simple bound 1, but s(bad) = 3
    assert rep.vanishing_ok and rep.support_ok and not rep.size_ok
    assert rep.measured == pytest.approx(3.0)
    assert rep.bound == pytest.approx(1.0)


def test_verify_atom_flags_vanishing_and_support_violations(dyadic2):
    # stopped too late: statistic mass lives outside the declared support
    f = from_terminal(dyadic2, [2.0, 0.0, -1.0, -1.0])
    nu = StoppingTime(dyadic2, [1, 1, np.iinfo(np.int64).max] * 1 + [np.iinfo(np.int64).max])
    t = AtomTriple(0, 1.0, f.terminal / 100.0, nu)
    d = Decomposition(dyadic2, "s", "simple", 2.0, 2.0, [t], source_norm=0.0)
    rep, = verify_atom(d, t)
    assert not rep.vanishing_ok  # E_0 a = 0 holds but E_1 a != 0 on {nu >= 1}
    assert not rep.support_ok    # s(a) > 0 on {w3, w4} where nu = inf


@pytest.mark.parametrize("k", [0, -40])
def test_verify_atom_weighs_the_vanishing_residual_at_the_atom_scale(dyadic2, k):
    # a constant has E_0 a != 0 on {nu >= 0}; a slack floored at 1 once passed it when small
    t = AtomTriple(0, 1.0, np.full(4, np.ldexp(1.0, k)), StoppingTime(dyadic2, [0] * 4))
    d = Decomposition(dyadic2, "s", "simple", 2.0, 2.0, [t], source_norm=0.0)
    for rep in verify_atom(d, t, [2.0, 4.0, math.inf]):
        assert not rep.vanishing_ok and rep.vanishing_residual == np.ldexp(1.0, k)


def test_decomposed_atoms_respect_rung_cap():
    # the statistic of lambda_k a^k never exceeds twice the rung 2^k
    rng = np.random.default_rng(33)
    space = random_tree_space(rng, depth=3, branching=2)
    f = random_martingale(rng, space)
    d = decompose(f, 1.0, 1.0, flavor="s", defn="simple")
    for t in d.triples:
        stat = atom_statistic("s", from_terminal(space, t.terminal)) * t.lam
        assert np.max(stat) <= 2.0 ** (t.k + 1) + 1e-12


def test_trace_disjointification(worked_example):
    space, f = worked_example
    for flavor in FLAVORS:
        d = decompose(f, 2, 2, flavor=flavor, defn="simple")
        # G_k = B_k \ B_{k+1}; the rung above the last triple stops nowhere
        supports = [t.nu.support for t in d.triples] + [np.zeros(space.size, dtype=bool)]
        masks = [b & ~b_next for b, b_next in zip(supports, supports[1:])]
        total = np.zeros(space.size, dtype=int)
        for m in masks:
            total += m.astype(int)
        assert np.max(total) <= 1
        # the disjoint pieces tile the widest support
        widest = supports[0]
        assert np.array_equal(np.logical_or.reduce(masks), widest)


def test_simple_rung_weight_is_pure_power_of_two(worked_example):
    space, f = worked_example
    for p, q in ((0.5, 1.0), (1.0, 1.0), (2.0, 4.0)):
        d = decompose(f, p, q, flavor="s", defn="simple")
        for t in d.triples:
            assert rung_weight(d, t) == pytest.approx(2.0 ** (t.k + 1))


def test_aggregate_eta_norm_golden(worked_example):
    space, f = worked_example
    d = decompose(f, 2, 2, flavor="s", defn="simple")
    # weight field 1 * 1_Omega + 2 * 1_{w1,w2} = (3, 3, 1, 1)
    assert aggregate_eta_norm(d, 1.0) == pytest.approx(np.sqrt(5.0))
    with pytest.raises(ValueError):
        aggregate_eta_norm(d, 0.0)
    with pytest.raises(ValueError):
        aggregate_eta_norm(d, 1.5)


def test_ladder_constant_values():
    assert ladder_constant(1.0) == pytest.approx(4.0)
    assert ladder_constant(0.5) == pytest.approx((2.0 / (SQ2 - 1.0)) ** 2)
    assert ladder_constant(0.5) == pytest.approx(23.3137, abs=1e-4)
    # (1 / (eta log 2))^(1/eta) grows past the float range as eta falls
    assert ladder_constant(0.01) == pytest.approx(2.33836e216, rel=1e-5)
    assert ladder_constant(0.001) == math.inf


def test_ladder_constant_is_inf_where_its_denominator_rounds_to_zero():
    # 2^eta - 1 is exactly 0.0 at eta = 1e-17, and C(eta) grows without bound as eta -> 0
    assert 2.0 ** 1e-17 - 1.0 == 0.0
    assert ladder_constant(1e-17) == ladder_constant(1e-300) == math.inf
    assert ladder_constant(1.0) == 4.0  # the duality constant keeps every bit


@pytest.mark.parametrize("eta", [-1.0, 0.0, 1.5, math.nan, math.inf])
def test_ladder_constant_and_the_aggregates_refuse_the_same_etas(worked_example, eta):
    d = decompose(worked_example[1], 2, 2)
    for call in (lambda: ladder_constant(eta), lambda: aggregate_eta_norm(d, eta)):
        with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\], got "):
            call()


def test_a_simple_rung_whose_mass_rounds_above_1_is_refused_at_a_tiny_p():
    # the rung of all of Omega sums to 1 + 2^-52, whose 1e300-th power is beyond the float range
    (space, f), = generate(CorpusSpec(generator="random-tree", depth=3, max_branching=3, seed=1))
    assert float(space.prob.sum()) > 1.0
    with pytest.raises(ValueError, match=r"^p = 1e-300 is too small: a rung of mass "
                                         r"1\.0000000000000002 has support size inf, not a"):
        decompose(f, 1e-300, 1e-300)


def test_cli_decompose_and_verify_take_an_eta_whose_constant_is_inf(tmp_path, capsys):
    assert main(["gen", "--generator", "dyadic", "--depth", "3", "--seed", "2", "--count", "1",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    mp, dp = str(tmp_path / "mart_0000.json"), str(tmp_path / "dec.json")
    assert main(["decompose", "--input", mp, "--p", "0.5", "--q", "1", "--eta-grid", "1e-17",
                 "--output", dp]) == 0
    assert main(["verify", "--input", mp, "--decomposition", dp, "--eta-grid", "1e-17"]) == 0
    [entry] = json.loads(capsys.readouterr().out)["bounds"]["entries"]
    assert entry["budget"] == math.inf and entry["upper_ok"] and entry["converse_ok"]


@pytest.mark.parametrize("p, q", [("2", "1"), ("0.5", "2")])
def test_an_eta_that_takes_p_or_q_beyond_the_float_range_is_named(tmp_path, capsys,
                                                                   worked_example, p, q):
    # p/eta or q/eta is 2e308, beyond the float range: the error named p, given as 2, as inf
    f = worked_example[1]
    mp = str(tmp_path / "mart.json")
    jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
    message = "eta = 1e-308 is too small: p/eta or q/eta leaves the float range"
    assert main(["decompose", "--input", mp, "--p", p, "--q", q, "--eta-grid", "1e-308"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        aggregate_eta_norm(decompose(f, float(p), float(q)), 1e-308)
    # q = inf takes any eta: q/eta is inf as q is
    assert aggregate_eta_norm(decompose(f, 0.5, math.inf), 1e-300) >= 0.0


def test_certify_bounds_worked_example(worked_example):
    space, f = worked_example
    d = decompose(f, 2, 2, flavor="s", defn="simple")
    cert = certify_bounds(d)
    assert cert.passed
    assert cert.failing_etas() == []
    by_eta = {e.eta: e for e in cert.entries}
    assert by_eta[1.0].aggregate == pytest.approx(np.sqrt(5.0))
    assert by_eta[1.0].budget == pytest.approx(4.0 * np.sqrt(1.5))


def test_certify_bounds_random_all_variants():
    rng = np.random.default_rng(34)
    for _ in range(8):
        space = random_tree_space(rng, depth=3, branching=2, n_blocks=2)
        f = random_martingale(rng, space)
        for p, q in ((0.5, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 2.0)):
            for flavor, defn in ALL_COMBOS:
                d = decompose(f, p, q, flavor=flavor, defn=defn)
                cert = certify_bounds(d)
                assert cert.passed, (flavor, defn, p, q, cert.failing_etas())


@pytest.mark.parametrize("scale", [1.0, 1e-11, 1e-12, 1e-14])
def test_certify_bounds_fails_an_inflated_decomposition_at_every_scale(scale):
    # every lambda x50 puts each aggregate 32-37 times over its budget; an
    # absolute slack once let that pass where f is small
    (space, f), = generate(CorpusSpec(generator="random-tree", seed=5, depth=3, max_branching=3,
                                      block_policy="random-partition", block_param=2))
    d = decompose(Martingale(space, f.levels * scale), 0.5, 1.0)
    for t in d.triples:
        t.lam *= 50
    cert = certify_bounds(d)
    assert not cert.passed
    assert all(e.aggregate > 1.5 * e.budget for e in cert.entries[1:])


def _inflated_dyadic_corpus_member():
    """The first martingale of ``gen --generator dyadic --depth 3 --seed 2`` at (0.5, 1),
    with every lambda times 50 and every atom over 50: its bounds fail."""
    (space, f), = generate(CorpusSpec(generator="dyadic", depth=3, seed=2))
    d = decompose(f, 0.5, 1.0)
    d.triples = [AtomTriple(t.k, t.lam * 50, t.terminal / 50, t.nu) for t in d.triples]
    return d


def test_certify_bounds_checks_every_eta_of_a_generator_grid():
    # the grid was once consumed by the aggregates before the entries read
    # it, so a generator gave no entries and passed
    d = _inflated_dyadic_corpus_member()
    want = certify_bounds(d, eta_grid=[0.25, 0.5])
    assert not want.passed
    got = certify_bounds(d, eta_grid=(eta for eta in (0.25, 0.5)))
    assert got == want
    assert got.failing_etas() == [0.25, 0.5]


def test_certify_bounds_refuses_an_empty_grid():
    d = _inflated_dyadic_corpus_member()
    for grid in ((), [], iter(())):
        with pytest.raises(ValueError, match="^eta_grid must hold at least one eta$"):
            certify_bounds(d, eta_grid=grid)


def test_converse_survives_coefficient_inflation():
    # scaling lambda_k up (and the atom down) keeps every atom valid and
    # keeps the converse inequality with constant 1
    rng = np.random.default_rng(35)
    space = random_tree_space(rng, depth=3, branching=2)
    f = random_martingale(rng, space)
    d = decompose(f, 1.0, 1.0, flavor="s", defn="simple")
    for c in (1.5, 3.0, 10.0):
        scaled = Decomposition(
            space, d.flavor, d.defn, d.p, d.q,
            [
                AtomTriple(t.k, t.lam * c, t.terminal / c, t.nu)
                for t in d.triples
            ],
            d.source_norm,
        )
        for t in scaled.triples:
            assert verify_atom(scaled, t)[0].passed
        cert = certify_bounds(scaled)
        assert all(e.converse_ok for e in cert.entries)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("p, q", [(0.5, 1.0), (2.0, 0.75), (1.5, math.inf)])
def test_source_norm_is_the_flavors_norm(flavor, p, q):
    # the oracle: each flavor's norm by name
    named = {"s": hardy_s_norm, "S": q_space_norm, "star": p_space_norm}[flavor]
    rng = np.random.default_rng(36)
    for _ in range(5):
        f = random_martingale(rng, random_tree_space(rng, depth=3, branching=3))
        want = named(f, p, q)
        assert source_norm_for(f, flavor, p, q) == want
        assert decompose(f, p, q, flavor=flavor).source_norm == want


@pytest.mark.parametrize("flavor", FLAVORS)
def test_decompose_takes_its_ladder_statistic_once(monkeypatch, flavor):
    # the ladder and the source norm read one statistic
    seen = []
    for module in (amalgam.atoms, amalgam.norms):
        monkeypatch.setattr(module, "_ladder_statistic",
                            lambda g, fl, orig=_ladder_statistic: seen.append(fl) or orig(g, fl))
    (_, f), = generate(CorpusSpec(depth=3, seed=2))
    assert f.levels.flags.writeable
    for defn in DEFNS:
        seen.clear()
        d = decompose(f, 0.5, 1.0, flavor=flavor, defn=defn)
        assert seen == [flavor] and d.triples


_CALLS = ([("norms",)] + [("source", flavor) for flavor in FLAVORS]
          + [("ladder", *variant) for variant in ALL_COMBOS])


def _bits(f, call, p, q):
    """The exact text of one call's result: the five norms, a source norm, or a
    decomposition and its certificate."""
    if call[0] == "norms":
        return repr(all_five_norms(f, p, q))
    if call[0] == "source":
        return repr(source_norm_for(f, call[1], p, q))
    d = decompose(f, p, q, flavor=call[1], defn=call[2])
    return (repr(d.source_norm) + jsonio.canonical_dumps(jsonio.decomposition_to_doc(d))
            + jsonio.canonical_dumps(jsonio.certificate_to_doc(certify_bounds(d))))


@settings(max_examples=60)
@given(small_martingales(max_outcomes=16, random_weights=True, max_blocks=3),
       st.sampled_from([(0.5, 1.0), (2.0, 0.75), (1.0, math.inf), (0.25, 0.5)]),
       st.permutations(_CALLS))
def test_what_a_read_only_martingale_keeps_changes_no_bit(case, pq, order):
    space, f = case
    frozen = Martingale(space, f.levels.copy(), validate=False)
    frozen.levels.flags.writeable = False
    plain = Martingale(space, f.levels.copy(), validate=False)
    want = {call: _bits(plain, call, *pq) for call in _CALLS}
    # in any call order, twice on a read-only f and once on a writeable one
    for g in (frozen, frozen, plain):
        assert {call: _bits(g, call, *pq) for call in order} == want
    # a pickled copy gives the same bits
    assert _bits(pickle.loads(pickle.dumps(frozen)), ("norms",), *pq) == want[("norms",)]
    # an exponent given as a numpy array gives the same norm
    assert repr(source_norm_for(frozen, "s", np.array(pq[0]), pq[1])) == want[("source", "s")]


def test_decompose_rejects_unknown_variant(worked_example):
    _, f = worked_example
    with pytest.raises(ValueError):
        decompose(f, 1, 1, flavor="bogus")
    with pytest.raises(ValueError):
        decompose(f, 1, 1, defn="bogus")
    with pytest.raises(ValueError, match="^unknown flavor 'bogus'$"):
        atom_statistic("bogus", f)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
def test_verify_atom_checks_its_exponents(dyadic2, r):
    # r = 0 divided by zero, and r = -1 passed with measured 0
    d = decompose(from_terminal(dyadic2, [3.0, -1.0, -1.0, -1.0]), 0.5, 1.0)
    assert verify_atom(d, d.triples[0], [2.0, math.inf])[0].passed
    with pytest.raises(ValueError, match="^r must lie in"):
        verify_atom(d, d.triples[0], [2.0, r])


def test_default_r():
    assert default_r("s") == 2.0
    assert math.isinf(default_r("S"))
    assert math.isinf(default_r("star"))


_exponents = st.floats(math.log(0.003), math.log(2.0)).map(math.exp)  # log-uniform


def _size_refusal(defn, p, q):
    """The start of the message that refuses a rung's support size in ``defn``."""
    if defn == "simple":
        return f"p = {p!r} is too small: a rung of mass "
    return f"p = {p!r} or q = {q!r} is too extreme: a rung of mass "


def test_a_weighted_size_beyond_the_float_range_names_q():
    # the weighted size of Omega at (500, 0.001) is inf because of q, not of p
    (space, f), = generate(CorpusSpec(generator="random-tree", depth=3, max_branching=3, seed=3,
                                      block_policy="random-partition", block_param=4))
    with pytest.raises(ValueError) as exc:
        decompose(f, 500.0, 0.001, defn="weighted")
    assert str(exc.value) == ("p = 500.0 or q = 0.001 is too extreme: a rung of mass 1.0 has "
                              "support size inf, not a normal float")
    decompose(f, 500.0, 0.001)  # the simple size takes no q


@given(small_martingales(random_weights=True, max_blocks=2), _exponents,
       _exponents | st.just(math.inf))
def test_small_exponents_certify_or_are_refused(case, p, q):
    # a decomposition either refuses, or certifies: no overflow, no division
    # by zero.  It refuses a rung whose support size is not a normal float
    space, f = case
    rs = [r for r in (2.0, 4.0, math.inf) if r > max(p, 1.0)]
    for flavor, defn in ALL_COMBOS:
        try:
            d = decompose(f, p, q, flavor=flavor, defn=defn)
        except ValueError as exc:
            assert str(exc).startswith(_size_refusal(defn, p, q))
            continue
        for t in d.triples:
            for rep in verify_atom(d, t, rs):
                assert rep.passed, (flavor, defn, t.k, rep)
                assert math.isfinite(rep.measured) and math.isfinite(rep.bound)
        assert certify_bounds(d).passed, (flavor, defn)
        assert reconstruction_residuals(d, f)[1]


def test_rounding_noise_is_not_a_martingale():
    # the constant 2^-53 would give f_0 = 0 and f_1 = 2^-106 everywhere: below
    # an absolute tolerance, but its one atom would have E_0 a = 1
    space = FilteredSpace(["h", "t"], [0.9259259259259258, 0.07407407407407407],
                          [[["h", "t"]], [["h"], ["t"]]], [["h", "t"]])
    with pytest.raises(SpaceError, match="nonzero mean"):
        from_terminal(space, np.full(2, 2.0 ** -53))
    with pytest.raises(SpaceError, match="martingale property fails at step 0"):
        Martingale(space, [[0.0, 0.0], [2.0 ** -106] * 2])
    assert decompose(Martingale(space, np.zeros((2, 2))), 1.0, 1.0).triples == []


def _float_top_case():
    """Level-1 cells {a, b} and {c, d}, singleton level 2: f_2 - f_1 at a is 1.5 times
    the largest float, though every level is finite."""
    top = sys.float_info.max
    outcomes = ["a", "b", "c", "d"]
    space = FilteredSpace(outcomes, [0.05, 0.15, 0.4, 0.4],
                          [[outcomes], [outcomes[:2], outcomes[2:]], [[o] for o in outcomes]],
                          [outcomes])
    return space, from_terminal(space, [top, -top, top / 8, top / 8])


@pytest.mark.parametrize("defn", DEFNS)
@pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
def test_an_atom_at_the_float_top_is_finite_and_reads_back(tmp_path, monkeypatch, capsys,
                                                           defn, p):
    space, f = _float_top_case()
    assert np.isfinite(f.levels).all()
    d = decompose(f, p, 1.0, defn=defn)
    assert [t.k for t in d.triples] == [1021, 1022, 1023]
    assert all(np.isfinite(t.terminal).all() for t in d.triples)
    with pytest.raises(ValueError, match=r"^S\(f\) leaves the float range: the 'S' ladder has "
                                         r"no rungs$"):
        decompose(f, p, 1.0, flavor="S", defn=defn)
    mp, dp = str(tmp_path / "f.json"), str(tmp_path / "dec.json")
    jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
    pq = ["--p", str(p), "--q", "1", "--defn", defn]
    assert main(["decompose", "--input", mp, *pq, "--output", dp]) == 0
    text = (tmp_path / "dec.json").read_text(encoding="utf-8")
    assert "Infinity" not in text.split('"triples"')[1]
    _assert_reads_back(d, json.loads(text))
    # verify sums the rungs at a power of two, where no partial sum overflows
    verify = ["verify", "--input", mp, "--decomposition", dp]
    assert main(verify) == 0
    recorded = capsys.readouterr()
    assert json.loads(recorded.out)["reconstruction"]["ok"] and recorded.err == ""
    monkeypatch.setattr(cli, "_decomposition", None)
    assert main(verify) == 0
    assert capsys.readouterr() == recorded
    assert main(["decompose", "--input", mp, *pq, "--flavor", "S"]) == 2
    assert capsys.readouterr().err == (
        "error: S(f) leaves the float range: the 'S' ladder has no rungs\n")


def test_campanato_of_a_g_whose_statistics_overflow_is_the_same_in_both_modes(tmp_path, capsys):
    # g is finite but S(g) is not: the heuristic ladders read g * 2^-e, whose rungs
    # are g's shifted by -e in k, where unscaled they had no window and raised
    space, f = _float_top_case()
    g = f.terminal
    assert np.isinf(_ladder_statistic(f, "S")).any()
    exact = campanato_norm(space, g, 1.0, 1.0, mode="exact")
    heuristic = campanato_norm(space, g, 1.0, 1.0, mode="heuristic")
    assert (exact.mode, heuristic.mode) == ("exact-enumeration", "heuristic-family")
    assert heuristic.norm_value == exact.norm_value == pytest.approx(1.5568479229996502e308,
                                                                     rel=1e-15)
    assert heuristic.attaining_nu.times.tolist() == exact.attaining_nu.times.tolist()
    mp, gp = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    jsonio.dump_json(jsonio.martingale_to_doc(f), mp)
    jsonio.dump_json(jsonio.function_to_doc(space, g), gp)
    for mode, res in (("exact", exact), ("heuristic", heuristic)):
        assert main(["duality", "--input", mp, "--g", gp, "--p", "1", "--q", "1",
                     "--mode", mode]) in (0, 1)
        recorded = capsys.readouterr()
        assert json.loads(recorded.out)["campanato"]["value"] == res.norm_value
        assert recorded.err == ""


def _assert_reads_back(d, doc):
    """decomposition_from_doc of ``doc`` gives the triples of ``d``, bit for bit."""
    back = jsonio.decomposition_from_doc(doc, d.space)
    assert (back.flavor, back.defn, repr(back.p), repr(back.q)) == (
        d.flavor, d.defn, repr(float(d.p)), repr(float(d.q)))
    def bits(triples):
        return [(t.k, repr(t.lam), t.terminal.tobytes(), t.nu.times.tobytes()) for t in triples]

    assert bits(back.triples) == bits(d.triples)


@settings(max_examples=100)
@given(small_martingales(max_blocks=2, random_weights=True),
       st.integers(1000, 1024) | st.integers(-1074, 1024), st.sampled_from(ALL_COMBOS),
       st.sampled_from([(0.5, 1.0), (1.0, 1.0), (2.0, math.inf)]))
@example(_float_top_case(), 0, ("s", "simple"), (1.0, 1.0))  # random draws rarely overflow
def test_every_decomposition_reads_back_bit_for_bit_up_to_the_float_top(case, shift, variant, pq):
    # verify reads decompose's own decomposition from cli's record without these checks
    space, f = case
    levels = times_pow2(f.levels, min(shift, 1024 - binary_exponent(scale_of(f.levels))))
    if not np.isfinite(levels).all():  # the largest entry was a power of two
        return
    try:
        d = decompose(Martingale(space, levels, validate=False), *pq, *variant)
    except ValueError:
        return
    _assert_reads_back(d, json.loads(jsonio.canonical_dumps(jsonio.decomposition_to_doc(d))))


def test_verify_atom_measures_large_statistics_without_overflow(coin):
    # s(a) = 1e100: its 4th power overflows, but its L_4 norm does not
    space, _ = coin
    big = from_terminal(space, [1e100, -1e100])
    t = AtomTriple(0, 1.0, big.terminal, StoppingTime(space, [0, 0]))
    d = Decomposition(space, "s", "simple", 0.01, 1.0, [t], source_norm=0.0)
    reps = verify_atom(d, t, [2.0, 4.0, math.inf])
    assert [rep.measured for rep in reps] == [pytest.approx(1e100, rel=1e-15)] * 3
    assert all(rep.bound == 1.0 for rep in reps)


# -- rung sizes ---------------------------------------------------------------
# The reference route sizes each support B on its own: P(B) as a pairwise sum,
# P(B)^{1/p} as a Python float power, and ||1_B||_{p,q} as lpq_norm of the
# indicator.  _sizes takes the weighted sizes from the block masses of all the
# rungs at once; every figure must keep its bits.

# each branch of lq_aggregate: direct, log space for p or for q below 0.1, q = inf
# in both, rows whose powers underflow (large q / p), and a large p
_BRANCH_PQ = [(0.5, 1.0), (0.05, 1.0), (1.0, 0.05), (0.5, math.inf), (0.05, math.inf),
              (0.5, 400.0), (1500.0, 2.0)]


def _reference_size(d, support):
    pb = float(d.space.prob[support].sum())
    if pb <= 0.0:
        return pb, 0.0
    if d.defn == "simple":
        return pb, pb ** (1.0 / d.p)
    return pb, lpq_norm(d.space, support.astype(float), d.p, d.q)


def _assert_sizes_follow_the_reference(d, etas=(0.25, 1.0)):
    sizes = [_reference_size(d, t.nu.support) for t in d.triples]
    assert list(_sizes(d, [t.nu.support for t in d.triples])) == sizes
    weights = [t.lam / size if pb > 0.0 else 0.0 for t, (pb, size) in zip(d.triples, sizes)]
    assert [rung_weight(d, t) for t in d.triples] == weights
    aggregates = []
    for eta in etas:
        fieldv = np.zeros(d.space.size)
        for t, w in zip(d.triples, weights):
            fieldv[t.nu.support] += w ** eta
        aggregates.append(_power(lpq_norm(d.space, fieldv, d.p / eta, d.q / eta), 1.0 / eta))
    assert [aggregate_eta_norm(d, eta) for eta in etas] == aggregates
    assert [e.aggregate for e in certify_bounds(d, etas).entries] == aggregates
    rs = [2.0, math.inf]
    for t, (pb, size) in zip(d.triples, sizes):
        prs = [1.0 if math.isinf(r) else pb ** (1.0 / r) for r in rs]
        bounds = [pr * pb ** (-1.0 / d.p) if d.defn == "simple" else pr / size for pr in prs]
        reports = verify_atom(d, t, rs)
        assert [rep.bound for rep in reports] == bounds
        assert [rep.size_ok for rep in reports] == [
            at_most(rep.measured, b * (1.0 + SLACK)) for rep, b in zip(reports, bounds)]
    return sizes


@given(small_martingales(random_weights=True, max_blocks=3), st.sampled_from(ALL_COMBOS))
def test_rung_sizes_match_the_indicator_norm_route(case, variant):
    space, f = case
    flavor, defn = variant
    base = 1 if flavor == "s" else 2
    for p, q in _BRANCH_PQ:
        try:
            d = decompose(f, p, q, flavor=flavor, defn=defn)
        except ValueError as exc:
            assert str(exc).startswith((_size_refusal(defn, p, q), "rung k ="))
            continue
        sizes = _assert_sizes_follow_the_reference(d)
        assert [t.lam for t in d.triples] == [
            float(times_pow2(size, t.k + base)) for t, (_, size) in zip(d.triples, sizes)]


def test_sizes_follow_edits_of_the_decomposition():
    # nothing is kept on a triple: a size read after p, q or the definition
    # changed is the size in the new ones
    (space, f), = generate(CorpusSpec(generator="random-tree", seed=5, depth=3, max_branching=3,
                                      block_policy="random-partition", block_param=2))
    d = decompose(f, 0.5, 1.0)
    seen = [_assert_sizes_follow_the_reference(d)]
    for name, value in (("p", 0.75), ("defn", "weighted"), ("q", 3.0), ("p", 0.4)):
        setattr(d, name, value)
        seen.append(_assert_sizes_follow_the_reference(d))
        assert seen[-1] != seen[-2], name


def test_aggregates_add_the_rungs_in_order_on_one_outcome():
    # numpy's sum over one outcome's 30 rungs is pairwise: it differs from the
    # in-order loop in the last bits of both aggregates
    space = FilteredSpace(["a"], [1.0], [[["a"]], [["a"]]], [["a"]])
    lams = np.random.default_rng(3).random(30) * 1e3
    triples = [AtomTriple(k, float(lam), np.zeros(1), StoppingTime(space, [1]))
               for k, lam in enumerate(lams)]
    for defn in DEFNS:
        _assert_sizes_follow_the_reference(
            Decomposition(space, "s", defn, 1.0, 1.0, triples, source_norm=0.0), (0.3, 1.0))


def _refusal_case():
    """Singleton level-2 cells in two blocks, f of order 1e25: at (0.00095, 0.0005)
    the whole space weighs 2^947 and {a, b} weighs 2^-1053, a subnormal."""
    outcomes = ["a", "b", "c", "d"]
    space = FilteredSpace(outcomes, [0.25] * 4,
                          [[outcomes], [outcomes[:2], outcomes[2:]], [[o] for o in outcomes]],
                          [outcomes[:2], outcomes[2:]])
    return space, from_terminal(space, [8e25, -1e25, -3e25, -4e25])


def test_a_rung_is_refused_for_its_lambda_before_a_later_rung_for_its_size():
    space, f = _refusal_case()
    p, q = 0.00095, 0.0005
    ks, times = ladder_times(_ladder_statistic(f, "s"))
    assert list(ks) == [83, 84, 85, 86]
    # rung 85 stops on {a, b}, whose weighted size is not a normal float ...
    assert np.array_equal(times[2] != INFINITY, [True, True, False, False])
    assert 0.0 < lpq_norm(space, [1.0, 1.0, 0.0, 0.0], p, q) < np.finfo(float).tiny
    # ... but rung 83's lambda is refused first, as the ladder reaches it first
    with pytest.raises(ValueError) as exc:
        decompose(f, p, q, defn="weighted")
    assert str(exc.value) == ("rung k = 83: lambda_k = 2^84 * 1.535718732131559e+285 is inf, "
                              "not a positive finite float")
    # the simple sizes of rungs 83 and 84 are 1, so rung 85 is the first refused
    with pytest.raises(ValueError) as exc:
        decompose(f, p, q, defn="simple")
    assert str(exc.value) == ("p = 0.00095 is too small: a rung of mass 0.5 has support size "
                              "1.337582e-317, not a normal float")
