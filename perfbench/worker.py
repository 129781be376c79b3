"""Measuring process of the benchmark, started fresh for every pass.

It imports ``amalgam`` from the checkout's ``src``, warms up on documents
outside the corpus, then makes one pass over the corpus named in a manifest
through ``amalgam.cli.main`` in-process as one closed-loop client: a
document's next call starts only after the previous one returned.  A fresh
process per pass keeps anything the program memoises from one pass out of
the next.  Every call is checked by the oracle outside the timed region,
and a calibration unit that measures the host's speed runs between
documents, also untimed.  The last line of standard output is a JSON report.

    python3 perfbench/worker.py --manifest FILE --order-seed N [--traced | --setup-only]
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402


def import_program(root):
    """Import amalgam from ``root/src`` and refuse any other copy."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import amalgam
    import amalgam.cli

    if not os.path.abspath(amalgam.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"amalgam was imported from {amalgam.__file__}, not {src}")
    return amalgam


class Client:
    """Closed-loop client: one document at a time, one call at a time."""

    def __init__(self, cli, reference):
        self.cli = cli
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.results = {}   # doc id -> {step: extracted outputs}

    def _call(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code
        except Exception:  # a crash is a failed call; keep driving the corpus
            if len(self.failures) < 5:
                traceback.print_exc(file=sys.stderr)
            return "exception"

    def run(self, doc, tr=None) -> float:
        """Run one document's calls, check them and return its latency."""
        for step in doc["steps"]:
            if os.path.exists(step["output"]):
                os.remove(step["output"])
        codes = []
        if tr is not None:
            tr.doc = doc["id"]
        t0 = time.perf_counter()
        root = tr.enter(tracing.ROOT_SPAN) if tr is not None else None
        for step in doc["steps"]:
            codes.append(self._call(step["argv"]))
        if root is not None:
            tr.exit(root)
        latency = time.perf_counter() - t0
        ref = self.reference[doc["key"]]
        for step, code in zip(doc["steps"], codes):
            self.attempted += 1
            reason, got = oracle.check(step["step"], code, step["output"], ref, doc["props"])
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{doc['key']} {step['step']}: {reason}")
            elif got is not None:
                self.results.setdefault(doc["id"], {})[step["step"]] = got
        return latency


#: calibration units a worker that only sets up times after its warm-up
SETUP_CALIBRATION_UNITS = 24
#: rows that the calibration unit encodes and decodes
_CAL_ROWS = [[i * 0.25, f"c{i:05d}", i % 7] for i in range(750)]


def calibration_s() -> float:
    """Time one fixed unit of json, interpreter and small-array numpy work.

    The unit uses no ``amalgam`` code, so it costs the same on every
    commit, and the garbage collector is off while it runs, so the size of
    the program's heap does not change its cost.  How long it takes tracks
    how fast the shared host runs at that moment.
    """
    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        json.loads(json.dumps(_CAL_ROWS))
        acc = {}
        for i in range(10000):
            acc[i % 613] = acc.get(i % 613, 0.0) + i * 0.5
        x = np.arange(64.0)
        for _ in range(200):
            x = np.sqrt(x * x + 1.0) - 0.5
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(client, docs, rng, tr=None):
    """One pass over ``docs`` in a shuffled order.

    Times one calibration unit before each document, outside its latency.
    Returns each document's latency by id and the calibration times.
    """
    order = list(docs)
    rng.shuffle(order)
    latency, calibration = {}, []
    for doc in order:
        calibration.append(calibration_s())
        latency[doc["id"]] = client.run(doc, tr)
    return latency, calibration


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    Linux carries ``ru_maxrss`` over from the parent through fork and
    exec, so a worker would report the launcher's peak whenever that is
    higher; ``VmHWM`` belongs to the process's own address space.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--order-seed", type=int, required=True,
                    help="seeds the order in which the pass runs the documents")
    ap.add_argument("--traced", action="store_true",
                    help="wrap the program's layers with spans during the pass")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after imports and warm-up")
    args = ap.parse_args(argv)
    with open(args.manifest, "r", encoding="utf-8") as fh:
        man = json.load(fh)

    amalgam = import_program(man["root"])
    import numpy

    import_s = time.perf_counter() - _STARTED
    client = Client(amalgam.cli, man["reference"])
    t0 = time.perf_counter()
    for doc in man["warmup"]:
        client.run(doc)
    warmup_s = time.perf_counter() - t0

    rng = random.Random(args.order_seed)
    report = {"import_s": import_s, "warmup_s": warmup_s}
    if args.setup_only:
        report.update(attempted=client.attempted, failed=client.failed,
                      failures=client.failures,
                      calibration_s=[calibration_s() for _ in range(SETUP_CALIBRATION_UNITS)])
        print(json.dumps(report))
        return 0
    if args.traced:
        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            report["latency_s"], report["calibration_s"] = run_pass(client, man["docs"], rng, tr)
        finally:
            tracing.uninstall(tr)
        report["layers"] = tracing.layer_metrics(tr, len(man["docs"]))
    else:
        report["latency_s"], report["calibration_s"] = run_pass(client, man["docs"], rng)
    report.update(
        attempted=client.attempted,
        failed=client.failed,
        failures=client.failures,
        results={str(k): v for k, v in client.results.items()},
        peak_rss_mb=peak_rss_mb(),
        stamp={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "kernel_backend": getattr(amalgam._kernels, "BACKEND", None),
            "numba_importable": _importable("numba"),
        },
    )
    print(json.dumps(report))
    return 0


def _importable(name) -> bool:
    import importlib.util

    return importlib.util.find_spec(name) is not None


if __name__ == "__main__":
    sys.exit(main())
