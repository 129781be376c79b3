"""Self-tests of the benchmark: determinism, span accounting, the oracle.

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import corpus
import oracle
import run
import tracer as tracing
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def amalgam():
    return worker.import_program(ROOT)


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def _small_docs(directory, limit=6):
    """Exact-small documents with few stopping times, so tests stay quick."""
    docs, _ = corpus.write_corpus(corpus.WORKLOADS["exact-small"], 3, str(directory))
    return [d for d in docs if (d["props"]["stopping_times"] or 0) <= 1000][:limit]


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_writes_byte_identical_documents(tmp_path, workload):
    w = corpus.WORKLOADS[workload]
    a, warm_a = corpus.write_corpus(w, 7, str(tmp_path / "a"))
    b, warm_b = corpus.write_corpus(w, 7, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [d["digest"] for d in a + warm_a] == [d["digest"] for d in b + warm_b]
    other, _ = corpus.write_corpus(w, 8, str(tmp_path / "c"))
    assert [d["key"] for d in other] != [d["key"] for d in a]


def test_warmup_documents_are_not_in_the_corpus(tmp_path):
    for w in corpus.WORKLOADS.values():
        docs, warmup = corpus.write_corpus(w, 1, str(tmp_path / w.name))
        assert len(warmup) == len(w.warmup)
        assert not {d["digest"] for d in warmup} & {d["digest"] for d in docs}


def test_corpus_documents_match_the_reference(tmp_path, reference):
    for w in corpus.WORKLOADS.values():
        docs, warmup = corpus.write_corpus(w, 1, str(tmp_path / w.name))
        for doc in docs + warmup:
            assert reference[doc["key"]]["digest"] == doc["digest"], doc["key"]


def test_span_self_times_sum_to_traced_wall_time(tmp_path, amalgam, reference):
    docs = _small_docs(tmp_path)
    client = worker.Client(amalgam.cli, reference)
    original = amalgam.cli.main
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        wall = sum(client.run(doc, tr) for doc in docs)
    finally:
        tracing.uninstall(tr)
    assert amalgam.cli.main is original
    assert client.failed == 0

    spans = list(tr.spans())
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == len(docs) and all(s[0] == tracing.ROOT_SPAN for s in roots)
    root_time = sum(end - start for _, start, end, _, _ in roots)
    assert sum(tr.self_s.values()) == pytest.approx(root_time, rel=1e-9)
    assert root_time <= wall and root_time >= 0.99 * wall

    # recompute self times from the stored spans alone
    child = [0.0] * len(spans)
    for name, start, end, parent, doc in spans:
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start <= end <= p[2] and p[4] == doc
            child[parent] += end - start
    self_s = {}
    for (name, start, end, _, _), c in zip(spans, child):
        self_s[name] = self_s.get(name, 0.0) + end - start - c
    assert self_s.keys() == tr.self_s.keys()
    for name, value in self_s.items():
        assert value == pytest.approx(tr.self_s[name], rel=1e-6, abs=1e-9)
    assert tr.calls["cli.main"] == sum(len(d["steps"]) for d in docs)


class _TamperingCli:
    """Runs the real CLI, then scales the top rung's lambda in a decomposition."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        code = self.cli.main(argv)
        if argv[0] == "decompose":
            path = argv[argv.index("--output") + 1]
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["triples"][-1]["lambda"] *= 1.5
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return code


def test_oracle_flags_a_tampered_decomposition(tmp_path, amalgam, reference):
    doc = next(d for d in _small_docs(tmp_path) if d["steps"][1]["step"] == "decompose")
    honest = worker.Client(amalgam.cli, reference)
    honest.run(doc)
    assert honest.failed == 0 and honest.attempted == len(doc["steps"])

    tampered = worker.Client(_TamperingCli(amalgam.cli), reference)
    tampered.run(doc)
    steps = {f.split(" ")[1].rstrip(":"): f for f in tampered.failures}
    assert "lambda differs" in steps["decompose"]
    assert "exit code 1" in steps["verify"]
    assert tampered.failed == 2


def test_oracle_route_and_heuristic_rules(reference):
    ref = next(r for k, r in reference.items() if k.startswith("exact-small/over-cap/"))
    props = {"expected_route": "heuristic-family"}
    assert ref["duality"]["route"] == props["expected_route"]
    got = dict(ref["duality"])
    assert oracle._compare("duality", got, ref["duality"], props) is None
    got["campanato"] = ref["duality"]["campanato"] * 1.01
    assert oracle._compare("duality", got, ref["duality"], props) is None
    got["campanato"] = ref["duality"]["campanato"] * 0.99
    assert "fell below" in oracle._compare("duality", got, ref["duality"], props)
    got = dict(ref["duality"], route="exact-enumeration")
    assert "route" in oracle._compare("duality", got, ref["duality"], props)


def test_timings_are_scaled_by_each_pass_calibration():
    ref = run.CALIBRATION_REF_S
    # the second pass ran on a host half as fast: its documents and its
    # calibration unit both took twice as long
    fast = {"latency_s": {"0": 0.010, "1": 0.030}, "calibration_s": [ref, ref, 0.9 * ref]}
    slow = {"latency_s": {"0": 0.020, "1": 0.060}, "calibration_s": [2 * ref] * 3}
    assert run.host_scale(slow) == pytest.approx(0.5)
    assert run._per_doc([fast, slow]) == pytest.approx([0.010, 0.030])
    assert run._per_doc([fast, slow], scaled=False) == pytest.approx([0.015, 0.045])
    assert 0.5e-3 <= worker.calibration_s() <= 0.5
