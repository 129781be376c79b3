"""Correctness oracle for every CLI call the benchmark makes.

:func:`extract` pulls the checked quantities out of one call's output
document; ``make_reference.py`` stores them per pool entry in
``reference.json`` and :func:`check` compares a run's outputs with them.
Exact quantities must agree to ``REL`` relative; the heuristic Campanato
value is a lower bound of the true supremum, so it may only rise.
"""

from __future__ import annotations

import json

REL = 1e-9
FIVE_NORMS = ("hardy_s", "hardy_S", "hardy_star", "q_space", "p_space")


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def extract(step, path) -> dict:
    """Checked quantities of one step's output document."""
    out = _load(path)
    if step == "norms":
        return {"norms": {k: out["norms"][k] for k in FIVE_NORMS}}
    if step == "decompose":
        return {
            "lambdas": [t["lambda"] for t in out["triples"]],
            "source_norm": out["certificate"]["source_norm"],
            "certificate_ok": all(e["upper_ok"] and e["converse_ok"]
                                  for e in out["certificate"]["entries"]),
        }
    if step == "verify":
        return {"passed": out["passed"], "source_norm": out["bounds"]["source_norm"]}
    if step == "duality":
        return {
            "chain_ok": out["chain_ok"],
            "route": out["campanato"]["mode"],
            "campanato": out["campanato"]["value"],
            "pairing": out["pairing"],
        }
    raise ValueError(f"unknown step {step!r}")


def _close(got, want):
    return abs(got - want) <= REL * abs(want)


def check(step, code, path, ref, props):
    """(reason, extracted): reason is None when exit code and outputs are right."""
    if code != 0:
        return f"exit code {code}", None
    try:
        got = extract(step, path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", None
    return _compare(step, got, ref[step], props), got


def _compare(step, got, want, props):
    if step == "norms":
        bad = [k for k in FIVE_NORMS if not _close(got["norms"][k], want["norms"][k])]
        return f"norms differ: {bad}" if bad else None
    if step == "decompose":
        if not got["certificate_ok"]:
            return "certificate failed"
        if len(got["lambdas"]) != len(want["lambdas"]):
            return f"{len(got['lambdas'])} rungs, reference has {len(want['lambdas'])}"
        if not all(_close(a, b) for a, b in zip(got["lambdas"], want["lambdas"])):
            return "lambda differs"
        if not _close(got["source_norm"], want["source_norm"]):
            return "source norm differs"
        return None
    if step == "verify":
        if got["passed"] is not True:
            return "verification did not pass"
        if not _close(got["source_norm"], want["source_norm"]):
            return "source norm differs"
        return None
    if not got["chain_ok"]:
        return "duality chain failed"
    if got["route"] != props["expected_route"]:
        return f"route {got['route']}, expected {props['expected_route']}"
    if not _close(got["pairing"], want["pairing"]):
        return "pairing differs"
    if got["route"] == "exact-enumeration":
        if not _close(got["campanato"], want["campanato"]):
            return "exact Campanato value differs"
    elif got["campanato"] < want["campanato"] * (1.0 - REL):
        return "heuristic Campanato value fell below its reference"
    return None
