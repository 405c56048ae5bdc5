"""Span tracer for the benchmark's traced run.

The program has no instrumentation of its own, so the tracer replaces the
public functions of each layer with timing wrappers, both in the module
that defines them and under every name another kobalab module imported
them as (``kobalab.checker.distance`` is ``kobalab.metric.distance``).
Every call records a span (layer, start, end, parent); a span without a
parent starts a top-level query, and its id is the query id of all spans
below it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric-name prefix -> kobalab functions it times.  `closed_forms.kernels`
# aggregates the five closed-form distance kernels into one layer.
LAYERS = {
    "cli.main": ["cli.main"],
    "serialize.parse_point": ["serialize.parse_point"],
    "domains.domain_from_dict": ["domains.domain_from_dict"],
    "domains.require_interior": ["domains.require_interior"],
    "metric.distance": ["metric.distance"],
    "metric.deck_infimum": ["metric.deck_infimum"],
    "closed_forms.kernels": ["closed_forms.disc_distance", "closed_forms.strip_distance",
                             "closed_forms.halfplane_distance", "closed_forms.ball_distance",
                             "closed_forms.polydisc_distance"],
    "tube.tube_distance_bounds": ["tube.tube_distance_bounds"],
    "tube.caratheodory_lower": ["tube.caratheodory_lower"],
    "tube.lempert_upper": ["tube.lempert_upper"],
    "tube.affine_disc_tau": ["tube.affine_disc_tau"],
    "checker.audit_isometry": ["checker.audit_isometry"],
    "checker.completeness_check": ["checker.completeness_check"],
    "checker.injectivity_probe": ["checker.injectivity_probe"],
    "checker.properness_probe": ["checker.properness_probe"],
    "coverings.apply_map": ["coverings.apply_map"],
    "coverings.monomial_preimages": ["coverings.monomial_preimages"],
}
# layers whose inclusive (busy) time is reported beside their self time
BUSY_LAYERS = ("checker.completeness_check", "checker.injectivity_probe",
               "checker.properness_probe")
# child spans of a deck query that evaluate the cover distance once each
COVER_KERNELS = ("closed_forms.kernels", "tube.caratheodory_lower")


class Tracer:
    def __init__(self):
        self.labels = list(LAYERS)
        self.layer_of = []   # span -> index into self.labels
        self.parent = []     # span -> parent span, -1 for a top-level query
        self.start = []
        self.end = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: int, fn):
        layer_of, parent, start, end = self.layer_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = len(layer_of)
            layer_of.append(layer)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
        return timed

    def install(self):
        """Wrap every function named in LAYERS; names that no longer exist
        are recorded in `missing` instead of failing the run."""
        wrappers = {}
        for layer, label in enumerate(self.labels):
            for qual in LAYERS[label]:
                mod_name, attr = qual.rsplit(".", 1)
                fn = getattr(importlib.import_module(f"kobalab.{mod_name}"), attr, None)
                if not callable(fn):
                    self.missing.append(qual)
                    continue
                wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kobalab" or mod_name.startswith("kobalab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per-layer calls, self time and busy time, the two work ratios,
        and the sum of all self times."""
        n_layers = len(self.labels)
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        busy_s = [0.0] * n_layers
        cover_evals = 0
        deck = self.labels.index("metric.deck_infimum")
        cover = {self.labels.index(k) for k in COVER_KERNELS}
        for sid, layer in enumerate(self.layer_of):
            dur = self.end[sid] - self.start[sid]
            calls[layer] += 1
            self_s[layer] += dur
            busy_s[layer] += dur
            p = self.parent[sid]
            if p >= 0:
                p_layer = self.layer_of[p]
                self_s[p_layer] -= dur
                if p_layer == deck and layer in cover:
                    cover_evals += 1
        # busy time counts a recursive layer once: drop spans nested in their own layer
        busy = {self.labels.index(k) for k in BUSY_LAYERS}
        for sid, layer in enumerate(self.layer_of):
            if layer not in busy:
                continue
            p = self.parent[sid]
            while p >= 0 and self.layer_of[p] != layer:
                p = self.parent[p]
            if p >= 0:
                busy_s[layer] -= self.end[sid] - self.start[sid]
        out = {}
        for i, label in enumerate(self.labels):
            out[label] = {"calls": calls[i], "self_s": self_s[i]}
            if i in busy:
                out[label]["busy_s"] = busy_s[i]
        upper = calls[self.labels.index("tube.lempert_upper")]
        tau = calls[self.labels.index("tube.affine_disc_tau")]
        ratios = {
            "metric.deck_infimum.evals_per_call": (cover_evals, calls[deck]),
            "tube.affine_disc_tau.per_upper": (tau, upper),
        }
        return {"layers": out, "ratios": ratios, "self_sum_s": sum(self_s),
                "spans": len(self.layer_of),
                "queries": sum(1 for p in self.parent if p < 0)}

    def write_spans(self, path):
        """One CSV line per span: id, layer, start, end, parent, query id."""
        query = []
        with open(path, "w") as fh:
            fh.write("id,layer,start_s,end_s,parent,query\n")
            t0 = self.start[0] if self.start else 0.0
            for sid, layer in enumerate(self.layer_of):
                p = self.parent[sid]
                query.append(sid if p < 0 else query[p])
                fh.write(f"{sid},{self.labels[layer]},{self.start[sid] - t0:.9f},"
                         f"{self.end[sid] - t0:.9f},{p},{query[sid]}\n")
