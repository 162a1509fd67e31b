"""In-memory span tracer that wraps cdknlab's public functions from outside.

Each layer is a function named by its defining module ("geodesics1d.blocks_cdf").
`Tracer.install` replaces that function object at every cdknlab module
namespace that binds it (``cdcheck.blocks_cdf`` and ``geodesics1d.blocks_cdf``
are the same object, and a call through either must be seen).  Modules are
reached through ``sys.modules`` because ``cdknlab/__init__`` re-exports the
*function* ``ikrw``, which shadows the attribute ``cdknlab.ikrw``.

A span is (layer, parent span, start, end).  Spans stay in memory until
`write` is called; a layer's self time is its span's duration minus the
durations of its direct child spans.  The program runs single-threaded, so
child spans never overlap and that difference is the uncovered part.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np


# layer -> {counter name: fn(bound arguments, result) -> number}
LAYERS = {
    "geodesics1d.blocks_cdf": {
        "segments": lambda a, r: np.size(a["u0"]),
        "points": lambda a, r: np.size(a["pts"]),
    },
    "geodesics1d.bin_blocks": {},
    "distortion.tau_KN_vec": {"elems": lambda a, r: np.size(r)},
    "cdcheck.t_functional": {},
    "measure.entropy_from_masses": {},
    "transport.optimal_coupling_lp": {
        "lp_vars": lambda a, r: a["mu"].support.size * a["nu"].support.size,
    },
    "transport.wc_distance": {},
    "mmspace.k_cut": {},
    "ikrw.ikrw_fm": {},
    "transport.monotone_map": {"segments": lambda a, r: np.size(r.w)},
    "cdcheck.mass_in_intervals": {},
    "cdcheck.estimate_omega": {"accepted": lambda a, r: a["n_samples"]},
    "measure.renyi_entropy": {},
    "measure.measure_from_dict": {},
    "cdcheck.sample_pair_specs": {"accepted": lambda a, r: len(r)},
    # private: every marginal drawn by either sampler passes through it; its
    # calls from outside itself (mixtures recurse) are two per attempted pair
    "cdcheck._one_spec": {},
    "cdcheck.verify_cd": {
        "rows": lambda a, r: len(r.rows),
        "rows_compared": lambda a, r: sum(
            row.status in ("ok", "violated") for row in r.rows),
    },
    "mmspace.build_model_space": {},
    "cli.main": {},
}


class Tracer:
    def __init__(self):
        self.spans: list = []   # (layer, parent index or -1, start, end)
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, layer: str, fn, counters: dict):
        spans, stack, counts = self.spans, self._stack, self.counts
        sig = inspect.signature(fn) if counters else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (layer, parent, t0, clock())
                stack.pop()
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, count in counters.items():
                    counts[f"{layer}.{name}"] += count(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every layer at every cdknlab namespace that binds it."""
        for layer, counters in LAYERS.items():
            mod_name, fn_name = layer.rsplit(".", 1)
            orig = getattr(importlib.import_module(f"cdknlab.{mod_name}"), fn_name)
            wrapper = self._wrap(layer, orig, counters)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "cdknlab" and not name.startswith("cdknlab."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def layer_totals(self) -> dict:
        """{layer: {"calls": n, "self_s": seconds}} over all closed spans."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, parent, t0, t1), c in zip(self.spans, child):
            out[layer]["calls"] += 1
            out[layer]["self_s"] += (t1 - t0) - c
        # sampler attempts: _one_spec calls not made by _one_spec, two per pair
        out["cdcheck._one_spec"]["attempted_pairs"] = sum(
            1 for layer, parent, _, _ in self.spans
            if layer == "cdcheck._one_spec"
            and (parent < 0 or self.spans[parent][0] != "cdcheck._one_spec")) / 2
        return out

    def write(self, path: str):
        """Dump every span (layer index, parent, start, end) as gzipped JSON."""
        names = list(LAYERS)
        index = {n: i for i, n in enumerate(names)}
        doc = {"layers": names,
               "spans": [[index[n], p, t0, t1] for n, p, t0, t1 in self.spans],
               "counts": dict(self.counts)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
