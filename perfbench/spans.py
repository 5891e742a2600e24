"""In-memory span tracer that wraps doalab's public functions from outside.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``doalab`` module (for example both ``doalab.doa.root_music`` and
``doalab.harness.root_music``) with a wrapper that records a span: name,
start, end, parent and one optional attribute.  Counters are kept beside
the spans.  Nothing is written until the caller asks for it.

The harness's ``ProcessPoolExecutor`` binding is replaced by a pool that
counts its starts, runs each task under a ``harness.pool_task`` span in the
worker and ships the worker's spans and counters back to the parent.  The
harness pools fork, so the workers inherit the installed wrappers.
"""

import functools
import importlib
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# (module, function, span name); functions sharing a span name are summed
TRACED = (
    ("rng", "trial_rng", "rng.trial_rng"),
    ("arrays", "synthesize_snapshots", "arrays.synthesize_snapshots"),
    ("arrays", "analog_combine", "arrays.analog_combine"),
    ("spectral", "sample_covariance", "spectral.sample_covariance"),
    ("spectral", "root_music", "spectral.root_music"),
    ("harness", "detection_eigs", "harness.detection_eigs"),
    ("harness", "run_train_mlnn", "harness.run_train_mlnn"),
    ("harness", "run_roc", "harness.run_roc"),
    ("harness", "run_rmse_snr", "harness.run_rmse_snr"),
    ("harness", "run_rmse_eta", "harness.run_rmse_eta"),
    ("harness", "run_loss_bits", "harness.run_loss_bits"),
    ("mlnn", "train", "mlnn.train"),
    ("mlnn", "forward", "mlnn.forward"),
    ("mlnn", "select_architecture", "mlnn.select_architecture"),
    ("detect", "glrt_statistic", "detect.statistics"),
    ("detect", "maxmin_statistic", "detect.statistics"),
    ("detect", "roc_points", "detect.roc_points"),
    ("doa", "had_root_music_classic", "doa.had_root_music_classic"),
    ("doa", "fhad_root_music", "doa.fhad_root_music"),
    ("doa", "tlhad_estimate", "doa.tlhad_estimate"),
    ("crlb", "crlb_fd", "crlb"),
    ("crlb", "crlb_had", "crlb"),
    ("crlb", "crlb_tlhad", "crlb"),
    # the package attribute ``doalab.quantize`` is the function, so the
    # module is reached through importlib
    ("quantize", "lloyd_max_codebook", "quantize.lloyd_max_codebook"),
    ("quantize", "quantize", "quantize.quantize"),
)

ROOT_MUSIC_BUCKETS = (("le16", 1, 16), ("17to32", 17, 32), ("33to64", 33, 64))

NAME, START, END, PARENT, ATTR = range(5)

# the tracer whose wrappers are installed; pool workers reach it here
_active = None


def _nearest(cands, u):
    return int(np.argmin(np.abs(cands - u)))


def _count(tracer, name, args, kwargs, result):
    """Counters recorded at the span boundary of ``name``."""
    c = tracer.counts
    if name == "arrays.synthesize_snapshots":
        c[name + ".samples"] += result.samples.size
    elif name == "harness.detection_eigs":
        c[name + ".trials"] += int(args[4] if len(args) > 4 else kwargs["n_trials"])
    elif name == "mlnn.train":
        data, hyper = args[1], args[2]
        c[name + ".examples"] += hyper.epochs * len(data)
    elif name == "mlnn.forward":
        c[name + ".rows"] += np.atleast_2d(args[1]).shape[0]
    elif name.startswith("doa."):
        scen = args[1]
        u_true = float(scen.direction_sines[0])
        if result.candidates is not None:
            cands = result.candidates.candidates
            if _nearest(cands, result.u) != _nearest(cands, u_true):
                c[name + ".wrong_candidate"] += 1
        if result.flags:
            c[name + ".flagged"] += 1


def _attr(name, args, kwargs):
    if name == "spectral.root_music":
        return args[0].dim
    if name == "quantize.lloyd_max_codebook":
        return int(args[0] if args else kwargs["bits"])
    return None


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._saved = []

    def reset(self):
        self.spans, self.stack, self.counts = [], [], Counter()

    def open(self, name, attr=None):
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else -1, attr]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name, _attr(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            _count(self, name, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every binding of the traced functions in loaded doalab modules."""
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if k == "doalab" or k.startswith("doalab.")]
        replace = {}
        for mod, fn_name, span in TRACED:
            fn = getattr(importlib.import_module(f"doalab.{mod}"), fn_name)
            replace[id(fn)] = self._wrap(fn, span)
        replace[id(ProcessPoolExecutor)] = _TracedPool
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])
        _active = self

    def uninstall(self):
        global _active
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []
        _active = None

    def merge(self, spans, counts, parent):
        """Adopt a worker's spans under span index ``parent``."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] < 0 else rec[PARENT] + base
            self.spans.append(rec)
        self.counts.update(counts)

    def self_times(self):
        """Span duration minus the union of its children's intervals."""
        children = [[] for _ in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                children[rec[PARENT]].append((rec[START], rec[END]))
        out = []
        for rec, kids in zip(self.spans, children):
            covered, reach = 0.0, rec[START]
            for lo, hi in sorted(kids):
                lo, hi = max(lo, reach), min(hi, rec[END])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(rec[END] - rec[START] - covered)
        return out

    def metrics(self):
        """Per-layer metrics by name: counts, self and total seconds of every
        span name, root_music medians, cold codebook builds and counters."""
        selfs = self.self_times()
        found = Counter()
        root_us = {b: [] for b, _, _ in ROOT_MUSIC_BUCKETS}
        seen_bits = set()
        for rec, s in zip(self.spans, selfs):
            name, total = rec[NAME], rec[END] - rec[START]
            found[f"{name}.calls"] += 1
            found[f"{name}.self_s"] += s
            found[f"{name}.s"] += total
            if name == "spectral.root_music":
                for b, lo, hi in ROOT_MUSIC_BUCKETS:
                    if lo <= rec[ATTR] <= hi:
                        root_us[b].append(total * 1e6)
            elif name == "quantize.lloyd_max_codebook" and rec[ATTR] not in seen_bits:
                seen_bits.add(rec[ATTR])  # the first call per bit depth builds it
                found[f"{name}.cold_s"] += total
        for b, _, _ in ROOT_MUSIC_BUCKETS:
            if root_us[b]:
                found[f"spectral.root_music.p50_us.{b}"] = statistics.median(root_us[b])
        found["harness.pool_s"] = found["harness.pool.self_s"]
        found.update(self.counts)
        return dict(found)

    def dump(self):
        return [{"name": r[NAME], "start": r[START], "end": r[END],
                 "parent": r[PARENT], "attr": r[ATTR]} for r in self.spans]


def _run_task(fn, arg):
    """Worker side of ``_TracedPool.map``: one task under a fresh tracer."""
    tracer = _active
    tracer.reset()
    rec = tracer.open("harness.pool_task")
    try:
        result = fn(arg)
    finally:
        tracer.close(rec)
    return result, tracer.spans, dict(tracer.counts)


class _TracedPool(ProcessPoolExecutor):
    """The harness pool, counted and spanned, with worker spans merged back."""

    def __init__(self, *args, **kwargs):
        self._tracer = _active
        self._tracer.counts["harness.pool_starts"] += 1
        self._rec = self._tracer.open("harness.pool")
        super().__init__(*args, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        parent = self._tracer.stack[-1]
        results = []
        for result, spans, counts in super().map(
                functools.partial(_run_task, fn), *iterables, **kwargs):
            self._tracer.merge(spans, counts, parent)
            results.append(result)
        return iter(results)

    def shutdown(self, *args, **kwargs):
        try:
            super().shutdown(*args, **kwargs)
        finally:
            if self._rec[END] is None:
                self._tracer.close(self._rec)
