"""Command-line interface.

Subcommands: norms, decompose, verify, duality, explore, gen, selftest.
Exit codes: 0 all checks pass, 1 a certificate failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import jsonio
from .atoms import (
    DEFAULT_ETA_GRID,
    DEFNS,
    FLAVORS,
    certify_bounds,
    decompose,
    reconstruct,
    source_norm_for,
    verify_atom,
)
from .duality import certify_duality, pairing, reverse_minkowski_check
from .harness import BLOCK_POLICIES, CorpusSpec, GENERATORS, explore_embeddings, generate
from .martingale import conditional_quadratic_variation, quadratic_variation
from .norms import all_five_norms, lp_norm, lpq_norm
from .space import IDENTITY_TOL, SLACK, TOL, SpaceError, at_most, scale_of

OK, CERT_FAIL, INPUT_ERROR = 0, 1, 2


def _parse_grid(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise jsonio.SchemaError(f"bad numeric list {text!r}") from exc


def _emit(doc, path):
    text = jsonio.dump_json(doc, path)
    if path is None:
        sys.stdout.write(text)


def cmd_norms(args):
    f = jsonio.martingale_from_doc(jsonio.load_json(args.input))
    doc = {
        "schema": jsonio.SCHEMA,
        "p": args.p,
        "q": args.q,
        "norms": {k: float(v) for k, v in all_five_norms(f, args.p, args.q).items()},
    }
    _emit(doc, args.output)
    return OK


def cmd_decompose(args):
    f = jsonio.martingale_from_doc(jsonio.load_json(args.input))
    d = decompose(f, args.p, args.q, flavor=args.flavor, defn=args.defn)
    doc = jsonio.decomposition_to_doc(d)
    grid = _parse_grid(args.eta_grid) if args.eta_grid else DEFAULT_ETA_GRID
    cert = certify_bounds(f, d, eta_grid=grid)
    doc["certificate"] = jsonio.certificate_to_doc(cert)
    _emit(doc, args.output)
    return OK if cert.passed else CERT_FAIL


def cmd_verify(args):
    f = jsonio.martingale_from_doc(jsonio.load_json(args.input))
    d = jsonio.decomposition_from_doc(jsonio.load_json(args.decomposition), f.space)
    d.source_norm = source_norm_for(f, d.flavor, d.p, d.q)
    recon = [float(np.max(np.abs(reconstruct(d, n) - f.levels[n])))
             for n in range(f.space.depth + 1)]
    worst = float(np.max(recon))  # np.max keeps a NaN; max() would drop it
    recon_ok = at_most(recon, SLACK * scale_of(f.levels))

    rs = _parse_grid(args.r) if args.r else [2.0, 4.0, math.inf]
    rs = [r for r in rs if r > max(d.p, 1.0)]
    atom_reports = []
    atoms_ok = True
    for t in d.triples:
        for r in rs:
            rep = verify_atom(t, d.p, d.q, r)
            atoms_ok = atoms_ok and rep.passed
            atom_reports.append(
                {
                    "k": t.k,
                    "r": "inf" if math.isinf(r) else r,
                    "passed": rep.passed,
                    "measured": rep.measured,
                    "bound": rep.bound,
                    "vanishing_residual": rep.vanishing_residual,
                }
            )

    grid = _parse_grid(args.eta_grid) if args.eta_grid else DEFAULT_ETA_GRID
    cert = certify_bounds(f, d, eta_grid=grid)

    passed = recon_ok and atoms_ok and cert.passed
    doc = {
        "schema": jsonio.SCHEMA,
        "passed": passed,
        "reconstruction": {
            "ok": recon_ok,
            "residual_per_level": recon,
            "max_residual": worst,
        },
        "atoms": {"ok": atoms_ok, "reports": atom_reports},
        "bounds": {"ok": cert.passed, **jsonio.certificate_to_doc(cert)},
    }
    _emit(doc, args.output)
    return OK if passed else CERT_FAIL


def cmd_duality(args):
    f = jsonio.martingale_from_doc(jsonio.load_json(args.input))
    space, g = jsonio.function_from_doc(jsonio.load_json(args.g))
    if space.size != f.space.size or space.outcomes != f.space.outcomes:
        raise jsonio.SchemaError("martingale and function live on different spaces")
    cert = certify_duality(f, g, args.p, args.q, mode=args.mode)
    doc = {
        "schema": jsonio.SCHEMA,
        "p": args.p,
        "q": args.q,
        "pairing": pairing(f, g),
        "pairing_abs": cert.pairing_abs,
        "atomwise_bound": cert.atomwise_bound,
        "budget": cert.budget,
        "hardy_s_norm": cert.hardy_norm,
        "campanato": {
            "value": cert.campanato.norm_value,
            "mode": cert.campanato.mode,
            "candidates_examined": cert.campanato.candidates_examined,
            "attaining_nu": None
            if cert.campanato.attaining_nu is None
            else jsonio._nu_to_list(cert.campanato.attaining_nu),
        },
        "constant": cert.constant,
        "chain_ok": cert.chain_ok,
        "slack": {"first": cert.first_gap, "second": cert.second_gap},
    }
    _emit(doc, args.output)
    return OK if cert.chain_ok else CERT_FAIL


def _corpus_spec(args):
    return CorpusSpec(
        generator=args.generator,
        count=args.count,
        seed=args.seed,
        depth=args.depth,
        max_branching=args.max_branching,
        block_policy=args.block_policy,
        block_param=args.block_param,
    )


def cmd_explore(args):
    corpus = generate(_corpus_spec(args))
    table = explore_embeddings(corpus, args.p, args.q)
    text = table.to_csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return CERT_FAIL if table.violations else OK


def cmd_gen(args):
    import os

    corpus = generate(_corpus_spec(args))
    os.makedirs(args.out_dir, exist_ok=True)
    for i, (_, mart) in enumerate(corpus):
        jsonio.dump_json(
            jsonio.martingale_to_doc(mart),
            os.path.join(args.out_dir, f"mart_{i:04d}.json"),
        )
    print(f"wrote {len(corpus)} martingale documents to {args.out_dir}")
    return OK


def cmd_selftest(args):
    rng = np.random.default_rng(args.seed)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    corpus = []
    for depth, branching in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        spec = CorpusSpec(
            generator="random-tree",
            count=5,
            seed=int(rng.integers(0, 2**32)),
            depth=depth,
            max_branching=branching,
            block_policy="random-partition",
            block_param=2,
        )
        corpus.extend(generate(spec))

    ok = True
    for space, f in corpus:
        for flavor in FLAVORS:
            for defn in DEFNS:
                d = decompose(f, 0.7, 1.0, flavor=flavor, defn=defn)
                for n in range(space.depth + 1):
                    resid = np.abs(reconstruct(d, n) - f.levels[n])
                    ok = ok and at_most(resid, IDENTITY_TOL * scale_of(f.levels))
                for t in d.triples:
                    ok = ok and verify_atom(t, 0.7, 1.0).passed
                ok = ok and certify_bounds(f, d).passed
    check("ladder reconstruction, atoms and two-sided certificates", ok)

    ok = True
    for space, f in corpus:
        e_term = float(space.prob @ f.terminal**2)
        e_s = float(space.prob @ conditional_quadratic_variation(f) ** 2)
        e_S = float(space.prob @ quadratic_variation(f) ** 2)
        ok = ok and at_most([abs(e_term - e_s), abs(e_term - e_S)],
                            IDENTITY_TOL * scale_of(e_term))
    check("L2 isometry of both quadratic variations", ok)

    ok = True
    for space, f in corpus[:10]:
        g = rng.standard_normal(space.size)
        for p, q in [(0.5, 0.5), (1.5, 1.5)]:
            ref = lp_norm(space, g, p)
            ok = ok and at_most(abs(lpq_norm(space, g, p, q) - ref), TOL * scale_of(ref))
    check("amalgam norm matches plain L_p on the diagonal", ok)

    ok = True
    for space, _ in corpus[:5]:
        fs = [rng.standard_normal(space.size) for _ in range(4)]
        ok = ok and reverse_minkowski_check(space, fs, 0.5, 0.5).ok
    check("reverse Minkowski at small exponents", ok)

    ok = True
    for space, f in corpus[:5]:
        g = rng.standard_normal(space.size)
        g -= float(space.prob @ g)
        ok = ok and certify_duality(f, g, 0.5, 1.0, mode="heuristic").chain_ok
    check("duality chain certificate", ok)

    return OK if failures == 0 else CERT_FAIL


def build_parser():
    ap = argparse.ArgumentParser(
        prog="amalgam",
        description="Martingale Hardy-amalgam norms, atomic decompositions, duality",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_pq(sp, p_default=None, q_default=None):
        sp.add_argument("--p", type=float, required=p_default is None, default=p_default)
        sp.add_argument("--q", type=float, required=q_default is None, default=q_default)

    sp = sub.add_parser("norms", help="all five norms of a martingale document")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    add_pq(sp)
    sp.set_defaults(func=cmd_norms)

    sp = sub.add_parser("decompose", help="emit a decomposition document")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.add_argument("--flavor", choices=FLAVORS, default="s")
    sp.add_argument("--defn", choices=DEFNS, default="simple")
    sp.add_argument("--eta-grid", dest="eta_grid")
    add_pq(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("verify", help="certify a decomposition against a martingale")
    sp.add_argument("--input", required=True)
    sp.add_argument("--decomposition", required=True)
    sp.add_argument("--output")
    sp.add_argument("--eta-grid", dest="eta_grid")
    sp.add_argument("--r", help="comma list of verification exponents, e.g. 2,4,inf")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("duality", help="Campanato and pairing certificate")
    sp.add_argument("--input", required=True, help="martingale document")
    sp.add_argument("--g", required=True, help="zero-mean function document")
    sp.add_argument("--output")
    sp.add_argument("--mode", choices=("exact", "heuristic"), default="heuristic")
    add_pq(sp)
    sp.set_defaults(func=cmd_duality)

    def add_corpus(sp):
        sp.add_argument("--generator", choices=GENERATORS, default="dyadic")
        sp.add_argument("--count", type=int, default=10)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--depth", type=int, default=3)
        sp.add_argument("--max-branching", dest="max_branching", type=int, default=2)
        sp.add_argument("--block-policy", dest="block_policy",
                        choices=BLOCK_POLICIES, default="single")
        sp.add_argument("--block-param", dest="block_param", type=int, default=0)

    sp = sub.add_parser("explore", help="norm-embedding ratio tables (CSV)")
    add_corpus(sp)
    add_pq(sp)
    sp.add_argument("--csv", help="write CSV here instead of stdout")
    sp.set_defaults(func=cmd_explore)

    sp = sub.add_parser("gen", help="emit a corpus of martingale documents")
    add_corpus(sp)
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("selftest", help="run the built-in property battery")
    sp.add_argument("--seed", type=int, default=7)
    sp.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (jsonio.SchemaError, SpaceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
