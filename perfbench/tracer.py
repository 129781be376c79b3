"""Span tracing of the ``amalgam`` layers, applied from outside the program.

:func:`install` replaces the public functions of each ``amalgam`` module
with wrappers, in the defining module and in every module that imported
them, and :func:`uninstall` puts the originals back.  A wrapper records a
span (name, start, end, parent span, document id) and counts; spans are
kept in memory in flat arrays.  A span's self time is its duration minus
the time its child spans cover, so the self times of one document's spans
add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

#: functions wrapped with a span, by module; ``Class`` means its __init__
SPANS = {
    "_kernels": ("cell_sums", "cell_max"),
    "space": ("FilteredSpace", "conditional_expectation", "conditional_ess_sup",
              "is_measurable", "count_stopping_times"),
    "martingale": ("Martingale", "PredictorEnvelope", "from_terminal", "differences",
                   "quadratic_variation_partial", "conditional_quadratic_variation_partial",
                   "quadratic_variation", "conditional_quadratic_variation",
                   "maximal_function", "minimal_envelope", "dominates", "stop",
                   "ladder_stopping_time", "_ladder_statistic", "_threshold_time",
                   "ladder_window"),
    "norms": ("lpq_norm", "lp_norm", "hardy_s_norm", "hardy_S_norm", "hardy_star_norm",
              "q_space_norm", "p_space_norm", "all_five_norms"),
    "atoms": ("decompose", "verify_atom", "atom_statistic", "reconstruct",
              "certify_bounds", "aggregate_eta_norm", "rung_weight"),
    "duality": ("campanato_norm", "certify_duality"),
    "jsonio": ("load_json", "dump_json", "canonical_dumps", "space_from_doc",
               "martingale_from_doc", "function_from_doc", "decomposition_from_doc",
               "source_norm_for", "space_to_doc", "martingale_to_doc",
               "function_to_doc", "decomposition_to_doc"),
    "cli": ("main",),
}
#: generator functions: one span per resume, so consumer work is not counted
GENERATORS = {"space": ("enumerate_stopping_times",)}
#: functions and classes whose calls are only counted, because they run
#: once per candidate and a span each would dominate what it measures;
#: StoppingTime objects are also counted apart while a duality call is open
COUNTED = {"space": ("StoppingTime",), "duality": ("oscillation",)}

ROOT_SPAN = "bench.doc"


def _layer(module):
    return module.lstrip("_")


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.doc_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.doc = -1
        self.in_duality = 0
        self._stack = []
        self._patches = []

    def enter(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.doc_id.append(self.doc)
        self.end.append(0.0)
        frame = [idx, 0.0, name, 0.0]
        self._stack.append(frame)
        frame[3] = t = perf_counter()
        self.start.append(t)
        return frame

    def exit(self, frame):
        t = perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[2]} closed out of order")
        idx, child, name, t0 = frame
        self.end[idx] = t
        dur = t - t0
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def spans(self):
        """Yield (name, start, end, parent, doc) for every recorded span."""
        for i in range(len(self.start)):
            yield (self.names[self.name_id[i]], self.start[i], self.end[i],
                   self.parent[i], self.doc_id[i])


# -- wrappers ---------------------------------------------------------------


def _span(tr, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.exit(frame)
        if after is not None:
            after(tr, args, kwargs, out)
        return out

    return wrapper


def _generator(tr, name, fn):
    def resume(it):
        while True:
            frame = tr.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.exit(frame)
            tr.count(name + ".yields")
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return resume(fn(*args, **kwargs))

    return wrapper


def _counted(tr, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts[name] = tr.counts.get(name, 0) + 1
        if tr.in_duality:
            tr.counts[name + ".in_duality"] = tr.counts.get(name + ".in_duality", 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _kernel_work(tr, args, kwargs, out):
    n = len(args[0])
    tr.count("kernels.elems", n)
    # computed, not measured: labels and values read, one float per cell written
    tr.count("kernels.bytes_computed", 16 * n + 8 * len(out))


def _bytes_read(tr, args, kwargs, out):
    tr.count("jsonio.bytes_read", os.path.getsize(args[0]))


def _bytes_written(tr, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None:
        tr.count("jsonio.bytes_written", len(out.encode()))


def _rungs(tr, args, kwargs, out):
    tr.count("atoms.rungs", len(out.triples))


AFTER = {
    "kernels.cell_sums": _kernel_work,
    "kernels.cell_max": _kernel_work,
    "jsonio.load_json": _bytes_read,
    "jsonio.dump_json": _bytes_written,
    "atoms.decompose": _rungs,
}


def _duality(tr, name, fn):
    """Span that marks the duality layer open, for scoped counts."""
    inner = _span(tr, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.in_duality += 1
        try:
            return inner(*args, **kwargs)
        finally:
            tr.in_duality -= 1

    return wrapper


def _campanato(tr, name, fn):
    """Duality span plus candidate counts: built = objects made inside + extras."""
    objects = "space.StoppingTime"
    inner = _duality(tr, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tr.counts.get(objects, 0)
        extra = len(kwargs.get("extra_candidates", args[6] if len(args) > 6 else ()))
        out = inner(*args, **kwargs)
        tr.count("duality.candidates_built", tr.counts.get(objects, 0) - before + extra)
        tr.count("duality.candidates_examined", out.candidates_examined)
        return out

    return wrapper


# -- installation -----------------------------------------------------------


def _amalgam_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "amalgam" or k.startswith("amalgam."))]


def _replace(tr, orig, new):
    """Point every amalgam namespace that holds ``orig`` at ``new``."""
    for mod in _amalgam_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                tr._patches.append((mod, attr, orig))
                setattr(mod, attr, new)


def _wrap(tr, module, attr, make):
    mod = importlib.import_module(f"amalgam.{module}")
    name = f"{_layer(module)}.{attr}"
    obj = getattr(mod, attr)
    if isinstance(obj, type):
        init = obj.__init__
        tr._patches.append((obj, "__init__", init))
        obj.__init__ = make(tr, name, init)
    else:
        _replace(tr, obj, make(tr, name, obj))


def install(tr: Tracer):
    """Wrap every traced amalgam function; amalgam must be importable."""
    if tr._patches:
        raise RuntimeError("tracer already installed")
    for module, attrs in SPANS.items():
        for attr in attrs:
            name = f"{_layer(module)}.{attr}"
            if name == "duality.campanato_norm":
                _wrap(tr, module, attr, _campanato)
            elif module == "duality":
                _wrap(tr, module, attr, _duality)
            else:
                after = AFTER.get(name)
                _wrap(tr, module, attr,
                      lambda t, n, f, after=after: _span(t, n, f, after))
    for module, attrs in GENERATORS.items():
        for attr in attrs:
            _wrap(tr, module, attr, _generator)
    for module, attrs in COUNTED.items():
        for attr in attrs:
            _wrap(tr, module, attr, _counted)


def uninstall(tr: Tracer):
    for target, attr, orig in reversed(tr._patches):
        setattr(target, attr, orig)
    tr._patches.clear()


# -- per-layer metrics ------------------------------------------------------

_DUAL = ("duality.campanato_norm", "duality.certify_duality")
_COND = ("space.conditional_expectation", "space.conditional_ess_sup",
         "space.is_measurable")
_KERN = ("kernels.cell_sums", "kernels.cell_max")

#: (metric, unit, kind, span names or counter); values are per document
LAYER_METRICS = (
    ("cli.calls", "count", "calls", ("cli.main",)),
    ("cli.self_ms", "ms", "self", ("cli.main",)),
    ("jsonio.load_ms", "ms", "self", ("jsonio.load_json",)),
    ("jsonio.dump_ms", "ms", "self",
     ("jsonio.dump_json", "jsonio.canonical_dumps", "jsonio.space_to_doc",
      "jsonio.martingale_to_doc", "jsonio.function_to_doc",
      "jsonio.decomposition_to_doc")),
    ("jsonio.decode_ms", "ms", "self",
     ("jsonio.space_from_doc", "jsonio.martingale_from_doc", "jsonio.function_from_doc",
      "jsonio.decomposition_from_doc", "jsonio.source_norm_for")),
    ("jsonio.bytes_read", "bytes", "count", "jsonio.bytes_read"),
    ("jsonio.bytes_written", "bytes", "count", "jsonio.bytes_written"),
    ("space.construct_ms", "ms", "self", ("space.FilteredSpace",)),
    ("space.construct_calls", "count", "calls", ("space.FilteredSpace",)),
    ("space.condition_ms", "ms", "self", _COND),
    ("space.condition_calls", "count", "calls", _COND),
    ("space.enumerate_ms", "ms", "self", ("space.enumerate_stopping_times",)),
    ("space.stopping_times_enumerated", "count", "count",
     "space.enumerate_stopping_times.yields"),
    ("space.count_ms", "ms", "self", ("space.count_stopping_times",)),
    ("space.stopping_time_objects", "count", "count", "space.StoppingTime.in_duality"),
    ("duality.campanato_ms", "ms", "self", ("duality.campanato_norm",)),
    ("duality.certify_ms", "ms", "self", ("duality.certify_duality",)),
    ("duality.self_ms", "ms", "self", _DUAL),
    ("duality.candidates_built", "count", "count", "duality.candidates_built"),
    ("duality.candidates_examined", "count", "count", "duality.candidates_examined"),
    ("duality.oscillation_calls", "count", "count", "duality.oscillation"),
    ("kernels.calls", "count", "calls", _KERN),
    ("kernels.elems", "count", "count", "kernels.elems"),
    ("kernels.bytes_computed", "bytes", "count", "kernels.bytes_computed"),
    ("kernels.self_ms", "ms", "self", _KERN),
    ("martingale.from_terminal_ms", "ms", "self", ("martingale.from_terminal",)),
    ("martingale.validate_ms", "ms", "self", ("martingale.Martingale",)),
    ("martingale.qv_ms", "ms", "self",
     ("martingale.differences", "martingale.quadratic_variation_partial",
      "martingale.conditional_quadratic_variation_partial",
      "martingale.quadratic_variation", "martingale.conditional_quadratic_variation",
      "martingale.maximal_function")),
    ("martingale.envelope_ms", "ms", "self",
     ("martingale.minimal_envelope", "martingale.PredictorEnvelope",
      "martingale.dominates")),
    ("martingale.ladder_ms", "ms", "self",
     ("martingale.ladder_stopping_time", "martingale._ladder_statistic",
      "martingale._threshold_time", "martingale.ladder_window")),
    ("martingale.stop_calls", "count", "calls", ("martingale.stop",)),
    ("martingale.stop_ms", "ms", "self", ("martingale.stop",)),
    ("norms.lpq_calls", "count", "calls", ("norms.lpq_norm",)),
    ("norms.lpq_ms", "ms", "self", ("norms.lpq_norm",)),
    ("norms.process_ms", "ms", "self",
     ("norms.lp_norm", "norms.hardy_s_norm", "norms.hardy_S_norm",
      "norms.hardy_star_norm", "norms.q_space_norm", "norms.p_space_norm",
      "norms.all_five_norms")),
    ("atoms.decompose_ms", "ms", "self", ("atoms.decompose",)),
    ("atoms.rungs", "count", "count", "atoms.rungs"),
    ("atoms.verify_atom_calls", "count", "calls", ("atoms.verify_atom",)),
    ("atoms.verify_atom_ms", "ms", "self", ("atoms.verify_atom", "atoms.atom_statistic")),
    ("atoms.reconstruct_ms", "ms", "self", ("atoms.reconstruct",)),
    ("atoms.certify_bounds_ms", "ms", "self",
     ("atoms.certify_bounds", "atoms.aggregate_eta_norm", "atoms.rung_weight")),
    ("trace.doc_ms", "ms", "self", None),
)


def layer_metrics(tr: Tracer, docs: int) -> dict:
    """Per-document value of every LAYER_METRICS entry, plus useful_ratio."""
    out = {}
    for metric, unit, kind, spec in LAYER_METRICS:
        if spec is None:  # every span: the documents' total traced time
            value = 1e3 * sum(tr.self_s.values())
        elif kind == "self":
            value = 1e3 * sum(tr.self_s.get(s, 0.0) for s in spec)
        elif kind == "calls":
            value = sum(tr.calls.get(s, 0) for s in spec)
        else:
            value = tr.counts.get(spec, 0)
        out[metric] = {"value": value / docs, "unit": unit}
    built = tr.counts.get("duality.candidates_built", 0)
    examined = tr.counts.get("duality.candidates_examined", 0)
    out["duality.useful_ratio"] = {"value": examined / built if built else 0.0,
                                   "unit": "ratio"}
    return out
