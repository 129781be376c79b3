"""End-to-end benchmark of the ``amalgam`` CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds T --trace 0

Run from the root of a checkout.  A run generates the workload's corpus
from ``--seed``, then makes a fixed number of passes, one per 5 s of T.
Each pass is a fresh worker process that imports ``amalgam`` from
``src``, warms up and drives the corpus once through
``amalgam.cli.main``.  The timings are scaled to a reference host speed
by a calibration unit timed between documents (see ``host_scale``).
With ``--trace 0`` the result holds the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1``, traced passes
alternating with untraced ones give the per-layer metrics.
The last line of standard output is the JSON result; the full record, with
per-document facts and a version stamp, goes to ``.perfbench_results/``
for ``compare.py``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in the worker that inherits them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import corpus  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results")
#: seconds of ``--seconds`` that one pass stands for
PASS_SECONDS = 5.0
#: passes a run makes at least; each document keeps its median pass
MIN_PASSES = 3
#: workers that only set up, so that setup_s is a median of more set-ups
SETUP_ONLY = 3
#: seconds one calibration unit (worker.calibration_s) takes on the
#: reference host; the end-to-end timings are scaled to that speed
CALIBRATION_REF_S = 0.005
#: percentiles tried for doc_ms_tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is measured."""


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _spawn_worker(manifest, order_seed, traced=False, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--manifest", manifest,
           "--order-seed", str(order_seed)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _generate(workload, seed, work, reference):
    """Write the corpus; return its documents, warm-up documents and the time taken."""
    t0 = time.perf_counter()
    docs, warmup = corpus.write_corpus(workload, seed, work)
    gen_s = time.perf_counter() - t0
    for doc in docs + warmup:
        ref = reference.get(doc["key"])
        if ref is None or ref["digest"] != doc["digest"]:
            raise BenchError(f"reference.json does not match entry {doc['key']}; "
                             "regenerate it with perfbench/make_reference.py")
    return docs, warmup, gen_s


def passes(seconds, trace):
    """Worker passes of one run, as (order seed offset, traced) pairs.

    A run makes one pass per PASS_SECONDS of ``seconds``, at least
    MIN_PASSES, the same on every workload and commit.  A traced run makes
    half as many rounds, at least one, of one untraced and one traced pass.
    """
    n = max(MIN_PASSES, round(seconds / PASS_SECONDS))
    if not trace:
        return [(k, False) for k in range(n)]
    return [(k, k % 2 == 1) for k in range(2 * max(1, n // 2))]


def run_workload(name, seed, seconds, trace):
    """Set up, measure and check one workload; return the full record.

    The corpus is generated once; then every pass starts a fresh worker,
    which imports the program, warms up and runs the corpus once, and a
    few more workers only import and warm up.
    """
    if name not in corpus.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}")
    workload = corpus.WORKLOADS[name]
    reference = _load_json(os.path.join(HERE, "reference.json"))["entries"]
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    try:
        docs, warmup, gen_s = _generate(workload, seed, work, reference)
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"root": ROOT, "docs": docs, "warmup": warmup,
                       "reference": {d["key"]: reference[d["key"]] for d in docs + warmup}},
                      fh)
        reports = [(traced, _spawn_worker(manifest, seed * 64 + k, traced))
                   for k, traced in passes(seconds, trace)]
        setups = [_spawn_worker(manifest, 0, setup_only=True) for _ in range(SETUP_ONLY)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _summarise(workload, seed, seconds, trace, docs, gen_s, setups, reports)


def host_scale(report) -> float:
    """CALIBRATION_REF_S over the worker's median calibration time.

    Other tenants of a shared host change its speed by a quarter or more,
    in spells of seconds to minutes that cover whole runs, and every
    document slows by about the same factor.  Multiplying a worker's
    timings by this factor states them at the reference host's speed.
    The calibration unit runs no program code, so the factor is the same
    for every commit on a steady host.
    """
    return CALIBRATION_REF_S / statistics.median(report["calibration_s"])


def _per_doc(reports, scaled=True):
    """Each document's median latency over the passes ``reports``, in seconds.

    The median over a run's fixed number of passes, each in a fresh
    process, is steadier than the fastest pass, which hangs on whether a
    short fast spell happened to fall in the run.
    """
    scale = [host_scale(r) if scaled else 1.0 for r in reports]
    return [statistics.median(r["latency_s"][i] * f for r, f in zip(reports, scale))
            for i in reports[0]["latency_s"]]


def _timings(plain, workers, scaled):
    """The timed end-to-end metrics, scaled to the reference host or as measured."""
    # the program's own set-up, in every worker of the run; the corpus is
    # the benchmark's and is reported apart as harness.generate_ms
    setup_s = statistics.median((r["import_s"] + r["warmup_s"]) * (host_scale(r) if scaled else 1.0)
                                for r in workers)
    per_doc = _per_doc(plain, scaled)
    pct = tail_percentile(len(per_doc))
    return {
        "docs_per_s": {"value": len(per_doc) / sum(per_doc), "unit": "1/s"},
        "doc_ms_p50": {"value": 1e3 * statistics.median(per_doc), "unit": "ms"},
        "doc_ms_tail": {"value": 1e3 * percentile(per_doc, pct), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _summarise(workload, seed, seconds, trace, docs, gen_s, setups, reports):
    plain = [r for traced, r in reports if not traced]
    workers = setups + [r for _, r in reports]
    n_docs = len(plain[0]["latency_s"])
    pct = tail_percentile(n_docs)
    e2e = _timings(plain, workers, scaled=True)
    e2e["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] for r in plain), "unit": "MB"}
    docs_per_s = e2e["docs_per_s"]["value"]
    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    failed_frac = failed / attempted
    layers = {}
    if trace:
        traced = [r for t, r in reports if t]
        for metric, m in traced[0]["layers"].items():
            layers[metric] = {"value": statistics.fmean(r["layers"][metric]["value"]
                                                        for r in traced),
                              "unit": m["unit"]}
        traced_per_s = n_docs / sum(_per_doc(traced))
        layers.update({
            "trace.overhead_frac": {"value": 1.0 - traced_per_s / docs_per_s, "unit": "ratio"},
            "trace.base_docs_per_s": {"value": docs_per_s, "unit": "1/s"},
            "harness.generate_ms": {"value": 1e3 * gen_s, "unit": "ms"},
            "failed_frac": {"value": failed_frac, "unit": "ratio"},
            "e2e.tail_percentile": {"value": pct, "unit": "pct"},
            "e2e.docs": {"value": n_docs, "unit": "count"},
        })
    results = {}
    for _, r in reports:
        for k, v in r["results"].items():
            results.setdefault(k, v)
    records = []
    for doc in docs:
        got = results.get(str(doc["id"]), {})
        records.append({
            "key": doc["key"], **doc["props"],
            "route": got.get("duality", {}).get("route"),
            "rungs": len(got["decompose"]["lambdas"]) if "decompose" in got else None,
        })
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "failures": [f for r in workers for f in r["failures"]][:20],
        "end_to_end": e2e, "per_layer": layers,
        # the same timings as measured, before scaling to the reference host
        "measured": _timings(plain, workers, scaled=False),
        "host_scale": [host_scale(r) for r in workers],
        "tail": {"percentile": pct, "samples": n_docs, "passes": len(plain),
                 "failed_frac": failed_frac},
        "stamp": {**plain[0]["stamp"], "git_sha": _git_sha(), "nproc": os.cpu_count()},
        "documents": records,
        "latency_s": {i: [r["latency_s"][i] for r in plain] for i in plain[0]["latency_s"]},
    }


def _print_record(rec):
    t = rec["tail"]
    for name, m in {**rec["end_to_end"], **rec["per_layer"]}.items():
        if name == "failed_frac":
            continue
        note = ""
        if name in rec["measured"]:
            note = f"  (measured {rec['measured'][name]['value']:.6g})"
        if name == "doc_ms_tail":
            note += f"  (p{t['percentile']:g} of {t['samples']} documents, {t['passes']} passes)"
        print(f"{rec['workload']:<18} {name:<32} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"{rec['workload']:<18} {'failed_frac':<32} {t['failed_frac']:>14.6g} ratio"
          f"  ({rec['failed']} of {rec['attempted']} calls)")
    for line in rec["failures"]:
        print(f"{rec['workload']:<18} FAILED {line}")


def _save(rec):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}"
                                 f"-{int(time.time())}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="amalgam end-to-end benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "amalgam", "cli.py")):
            raise BenchError(f"no amalgam sources under {ROOT}/src; run from a checkout")
        spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
        names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wanted = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for rec in records:
        _save(rec)
        _print_record(rec)
        prefix = "" if len(records) == 1 else rec["workload"] + "/"
        have = {**rec["end_to_end"], **rec["per_layer"]}
        for m in spec[wanted]:
            metrics[prefix + m["name"]] = have[m["name"]]
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
