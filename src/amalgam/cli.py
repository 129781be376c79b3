"""Command-line interface.

Subcommands: norms, decompose, verify, duality, explore, gen.
Exit codes: 0 all checks pass, 1 a certificate failed, 2 bad input or path.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import jsonio
from .atoms import (
    DEFAULT_ETA_GRID,
    DEFNS,
    FLAVORS,
    certify_bounds,
    decompose,
    reconstruction_residuals,
    verify_atom,
)
from .duality import certify_duality
from .harness import BLOCK_POLICIES, CorpusSpec, GENERATORS, explore_embeddings, generate
from .norms import all_five_norms

OK, CERT_FAIL, INPUT_ERROR = 0, 1, 2


def _parse_grid(text, default):
    """The floats of a comma list, or ``default`` when the flag is absent or empty."""
    if not text:
        return default
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise jsonio.SchemaError(f"bad numeric list {text!r}") from exc


def _emit(text, path):
    """A document's text goes to stdout unless it was written to ``path``."""
    if not path:
        sys.stdout.write(text)


# What one process keeps from one main call for the next: a caller that runs main
# several times reads a martingale file once per content, and verifies decompose's
# own decomposition, which passes every check of the reader, without reading it back.
# The arrays a record holds are made read-only, so no later call can change them.
#: (bytes, f, its space document) of the last martingale file read
_martingale = None
#: (bytes, d, eta grid, certificate) of the last decomposition of that f decompose wrote
_decomposition = None


def _load_martingale(path):
    """The martingale of the file at ``path``: the same f when its bytes equal
    those last read here."""
    global _martingale, _decomposition
    raw = jsonio.read(path)
    if _martingale is None or _martingale[0] != raw:
        # both are dropped before the decode: a decomposition of the old f is never read again
        _martingale = _decomposition = None
        _martingale = (raw, *jsonio.load_martingale(path, raw))
        _martingale[1].levels.flags.writeable = False
    return _martingale[1]


def cmd_norms(args):
    f = _load_martingale(args.input)
    doc = {
        "schema": jsonio.SCHEMA,
        "p": args.p,
        "q": args.q,
        "norms": {k: float(v) for k, v in all_five_norms(f, args.p, args.q).items()},
    }
    _emit(jsonio.dump_json(doc, args.output), args.output)
    return OK


def cmd_decompose(args):
    global _decomposition
    f = _load_martingale(args.input)
    d = decompose(f, args.p, args.q, flavor=args.flavor, defn=args.defn)
    grid = _parse_grid(args.eta_grid, DEFAULT_ETA_GRID)
    cert = certify_bounds(d, grid)
    _decomposition = None
    text = jsonio.dump_decomposition(d, cert, args.output)
    if args.output:
        for t in d.triples:
            t.terminal.flags.writeable = t.nu.times.flags.writeable = False
        _decomposition = text.encode("utf-8"), d, grid, cert
    _emit(text, args.output)
    return OK if cert.passed else CERT_FAIL


def cmd_verify(args):
    f = _load_martingale(args.input)
    raw = jsonio.read(args.decomposition)
    kept = _decomposition if _decomposition and _decomposition[0] == raw else None
    d = kept[1] if kept else jsonio.load_decomposition(args.decomposition, f, raw)
    rs = [r for r in _parse_grid(args.r, (2.0, 4.0, math.inf)) if r > max(d.p, 1.0)]
    if not rs:
        raise ValueError(f"--r: no exponent satisfies r > max(p, 1) = {max(d.p, 1.0)!r}")
    recon, recon_ok = reconstruction_residuals(d, f)
    reports = [(t.k, r, rep) for t in d.triples for r, rep in zip(rs, verify_atom(d, t, rs))]
    atoms_ok = all(rep.passed for _, _, rep in reports)
    grid = _parse_grid(args.eta_grid, DEFAULT_ETA_GRID)
    cert = kept[3] if kept and repr(kept[2]) == repr(grid) else certify_bounds(d, grid)

    passed = recon_ok and atoms_ok and cert.passed
    doc = {
        "schema": jsonio.SCHEMA,
        "passed": passed,
        "reconstruction": {
            "ok": recon_ok,
            "residual_per_level": recon.tolist(),
            "max_residual": float(recon.max()),  # keeps a NaN, which builtin max() may drop
        },
        "atoms": {
            "ok": atoms_ok,
            "reports": [{"k": k, "r": "inf" if math.isinf(r) else r, "passed": rep.passed,
                         "measured": rep.measured, "bound": rep.bound,
                         "vanishing_residual": rep.vanishing_residual} for k, r, rep in reports],
        },
        "bounds": {"ok": cert.passed, **jsonio.certificate_to_doc(cert)},
    }
    _emit(jsonio.dump_json(doc, args.output), args.output)
    return OK if passed else CERT_FAIL


def cmd_duality(args):
    f = _load_martingale(args.input)
    g = jsonio.load_function(args.g, f, _martingale[2])
    cert = certify_duality(f, g, args.p, args.q, mode=args.mode)
    nu = cert.campanato.attaining_nu
    doc = {
        "schema": jsonio.SCHEMA,
        "p": args.p,
        "q": args.q,
        "pairing": cert.pairing,
        "pairing_abs": cert.pairing_abs,
        "atomwise_bound": cert.atomwise_bound,
        "budget": cert.budget,
        "hardy_s_norm": cert.hardy_norm,
        "campanato": {
            "value": cert.campanato.norm_value,
            "mode": cert.campanato.mode,
            "candidates_examined": cert.campanato.candidates_examined,
            "attaining_nu": None if nu is None else nu.times,
        },
        "constant": cert.constant,
        "chain_ok": cert.chain_ok,
        "slack": {"first": cert.first_gap, "second": cert.second_gap},
    }
    _emit(jsonio.dump_json(doc, args.output), args.output)
    return OK if cert.chain_ok else CERT_FAIL


def _corpus_spec(args):
    """The corpus flags' dests are CorpusSpec's field names."""
    return CorpusSpec(**{fd.name: getattr(args, fd.name) for fd in dataclasses.fields(CorpusSpec)})


def cmd_explore(args):
    corpus = generate(_corpus_spec(args))
    table = explore_embeddings(corpus, args.p, args.q)
    text = table.to_csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(text, args.csv)
    return OK


def cmd_gen(args):
    corpus = generate(_corpus_spec(args))
    os.makedirs(args.out_dir, exist_ok=True)
    for i, (_, mart) in enumerate(corpus):
        path = os.path.join(args.out_dir, f"mart_{i:04d}.json")
        jsonio.dump_json(jsonio.martingale_to_doc(mart), path)
    print(f"wrote {len(corpus)} martingale documents to {args.out_dir}")
    return OK


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: parse_args keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="amalgam",
        description="Martingale Hardy-amalgam norms, atomic decompositions, duality",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # each option that several subcommands share is declared once, in a parent
    doc, eta, corpus = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    doc.add_argument("--input", required=True, help="martingale document")
    doc.add_argument("--output")
    eta.add_argument("--eta-grid", dest="eta_grid")
    corpus.add_argument("--generator", choices=GENERATORS, default="dyadic")
    corpus.add_argument("--count", type=int, default=10)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--depth", type=int, default=3)
    corpus.add_argument("--max-branching", dest="max_branching", type=int, default=2)
    corpus.add_argument("--block-policy", dest="block_policy", choices=BLOCK_POLICIES,
                        default="single")
    corpus.add_argument("--block-param", dest="block_param", type=int, default=0)

    def add_pq(sp):
        # added last: argparse names missing required flags in declaration order
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--q", type=float, required=True)

    sp = sub.add_parser("norms", parents=[doc], help="all five norms of a martingale document")
    add_pq(sp)
    sp.set_defaults(func=cmd_norms)

    sp = sub.add_parser("decompose", parents=[doc, eta], help="emit a decomposition document")
    sp.add_argument("--flavor", choices=FLAVORS, default="s")
    sp.add_argument("--defn", choices=DEFNS, default="simple")
    add_pq(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("verify", parents=[doc, eta],
                        help="certify a decomposition against a martingale")
    sp.add_argument("--decomposition", required=True)
    sp.add_argument("--r", help="comma list of verification exponents, e.g. 2,4,inf")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("duality", parents=[doc], help="Campanato and pairing certificate")
    sp.add_argument("--g", required=True, help="zero-mean function document")
    sp.add_argument("--mode", choices=("exact", "heuristic"), default="heuristic")
    add_pq(sp)
    sp.set_defaults(func=cmd_duality)

    sp = sub.add_parser("explore", parents=[corpus], help="norm-embedding ratio tables (CSV)")
    add_pq(sp)
    sp.add_argument("--csv", help="write CSV here instead of stdout")
    sp.set_defaults(func=cmd_explore)

    sp = sub.add_parser("gen", parents=[corpus], help="emit a corpus of martingale documents")
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    sp.set_defaults(func=cmd_gen)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
