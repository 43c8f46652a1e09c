"""Span recorder for the traced benchmark run.

`SpanRecorder.install()` replaces each layer function listed in `TARGETS` by
a timing wrapper, everywhere the package holds a reference to it: the
defining module or class, copies imported into other modules (such as
`verify.local_sector_count` or `cli.build_geometric_bde`), aliases such as
`Poly2.__rmul__`, and the benchmark's own modules.  Spans (name, start, end,
parent, request) live in compact in-memory arrays and are written once, at
the end, by `dump()`.  A span's self time is its duration minus the time
covered by its direct child spans, so time in code that is not wrapped is
charged to the nearest wrapped caller (or to the `request` span).

Only the benchmark's files are touched; the package is patched in memory.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

import numpy as np
from edgefol.tracer import TERM_CAP

REQUEST = "request"

# (module, attribute path, span name).  A span name is `<module>.<function>`
# with the package prefix dropped; each `verify._run_trials` span is named
# after the suite whose trial function it runs.
TARGETS = (
    ("edgefol.jets", "load_jet", "jets.load_jet"),
    ("edgefol.geometry", "form_polynomials", "geometry.form_polynomials"),
    ("edgefol.poly", "Poly2.__mul__", "poly.Poly2.__mul__"),
    ("edgefol.poly", "CompiledPolySet.values", "poly.CompiledPolySet.values"),
    ("edgefol.foliations", "build_geometric_bde", "foliations.build_geometric_bde"),
    ("edgefol.foliations", "classify_edge_foliation",
     "foliations.classify_edge_foliation"),
    ("edgefol.foliations", "closed_form_analysis", "foliations.closed_form_analysis"),
    ("edgefol.foliations", "EdgeClassification.to_json",
     "foliations.EdgeClassification.to_json"),
    ("edgefol.bde", "delta_and_case", "bde.delta_and_case"),
    ("edgefol.bde", "cubic_analysis", "bde.cubic_analysis"),
    ("edgefol.bde", "restricted_jacobian", "bde.restricted_jacobian"),
    ("edgefol.bde", "solve_fiber_coordinate", "bde.solve_fiber_coordinate"),
    ("edgefol.tracer", "_integrate_batch", "tracer._integrate_batch"),
    ("edgefol.tracer", "_ChartCore.rhs", "tracer._ChartCore.rhs"),
    ("edgefol.tracer", "_ChartCore.residual_and_fp", "tracer._ChartCore.residual_and_fp"),
    ("edgefol.tracer", "_ChartCore.project_gradient", "tracer._ChartCore.project_gradient"),
    ("edgefol.tracer", "trace_portrait", "tracer.trace_portrait"),
    ("edgefol.tracer", "discriminant_locus", "tracer.discriminant_locus"),
    ("edgefol.tracer", "project_to_surface", "tracer.project_to_surface"),
    ("edgefol.tracer", "local_sector_count", "tracer.local_sector_count"),
    ("edgefol.render", "portrait_to_svg", "render.portrait_to_svg"),
    ("edgefol.render", "surface_view_to_svg", "render.surface_view_to_svg"),
    ("edgefol.render", "curves_to_csv", "render.curves_to_csv"),
    ("edgefol.verify", "run_verify", "verify.run_verify"),
    ("edgefol.verify", "_run_trials", "verify._run_trials"),
    ("edgefol.verify", "documented_discrepancies", "verify.documented_discrepancies"),
)

# lru-cached layers whose hit share is read from cache_info()
CACHED = ("geometry.form_polynomials", "foliations.build_geometric_bde")


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class SpanRecorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._request = -1
        self.counters = {}
        self.rows_per_values_call = array("l")
        self._patched = []
        self._cache_base = {}
        self._cached = {}

    # --- span bookkeeping ---

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, index):
        self._request = index
        return self.open(REQUEST)

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    # --- patching ---

    def install(self, extra_modules=()):
        """Wrap every target wherever the package or `extra_modules` refer to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "edgefol" or name.startswith("edgefol.")]
        modules += list(extra_modules)
        for module_name, path, label in TARGETS:
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._wrap(original, label)
            for holder in modules + [owner]:
                for scope in [holder] + [v for v in vars(holder).values()
                                         if isinstance(v, type)]:
                    for key, value in list(vars(scope).items()):
                        if value is original:
                            self._patched.append((scope, key, original))
                            setattr(scope, key, wrapper)
            if label in CACHED:
                self._cached[label] = original
                self._cache_base[label] = original.cache_info()

    def uninstall(self):
        for scope, key, original in reversed(self._patched):
            setattr(scope, key, original)
        self._patched.clear()

    def _wrap(self, fn, label):
        rec = self
        hook = _HOOKS.get(label)
        if label == "verify._run_trials":
            suites = {f: name for name, f, _ in sys.modules["edgefol.verify"]._SUITES}

            def run_trials(trial_fn, args_list, workers):
                idx = rec.open("verify." + suites.get(trial_fn, trial_fn.__name__))
                try:
                    return fn(trial_fn, args_list, workers)
                finally:
                    rec.close(idx)
            return run_trials

        depth = [0]

        def wrapper(*args, **kwargs):
            depth[0] += 1
            idx = rec.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
                depth[0] -= 1
            # a recursive call (chunked _integrate_batch) is counted once,
            # by its outermost span
            if hook is not None and depth[0] == 0:
                hook(rec, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ---

    def dump(self, path):
        """Write every span once, as arrays, to an .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), request=np.asarray(self.request),
            start=np.asarray(self.start), end=np.asarray(self.end))

    def self_times(self):
        """Total self time and call count per span name."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        if has_parent.any():
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
        self_time = dur - child
        ids = np.asarray(self.name_id)
        totals = np.bincount(ids, weights=self_time, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {name: (float(totals[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def total_times(self):
        """Total duration per span name, children included."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        totals = np.bincount(np.asarray(self.name_id), weights=dur,
                             minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def cache_hit_share(self, label):
        original = self._cached.get(label)
        if original is None:
            return 0.0
        now, base = original.cache_info(), self._cache_base[label]
        hits, misses = now.hits - base.hits, now.misses - base.misses
        return hits / (hits + misses) if hits + misses else 0.0


# --- counters measured at the span boundaries ---

def _values_hook(rec, args, result):
    cset, u = args[0], args[1]
    rows = int(np.size(u))
    k, du1, dv1 = cset.mats.shape
    rec.rows_per_values_call.append(rows)
    # computed, not measured: one multiply-add per (poly, i, j) term and row,
    # plus the two power tables
    rec.add("values_flop", 2 * rows * k * du1 * dv1 + rows * (du1 + dv1 - 2))


def _rhs_hook(rec, args, result):
    rec.add("rhs_rows", len(args[1]))


def _integrate_hook(rec, args, result):
    steps = np.asarray(result.steps)
    capped = np.asarray(result.status) == TERM_CAP
    rec.add("batch_rows", len(steps))
    rec.add("row_steps", int(steps.sum()))
    rec.add("capped_rows", int(capped.sum()))
    rec.add("capped_steps", int(steps[capped].sum()))


def _portrait_hook(rec, args, result):
    rec.add("curves", len(result.curves))
    rec.add("samples", sum(len(c) for c in result.curves))
    rec.add("warnings", result.warnings)
    worst = max((c.max_residual for c in result.curves), default=0.0)
    rec.counters["max_residual"] = max(rec.counters.get("max_residual", 0.0), worst)


def _sector_hook(rec, args, result):
    rec.add("probes", result.probes)
    rec.add("ambiguous", int(result.pattern == "ambiguous"))


def _csv_hook(rec, args, result):
    rec.add("csv_bytes", len(result))


def _svg_hook(rec, args, result):
    rec.add("svg_bytes", len(result))


_HOOKS = {
    "poly.CompiledPolySet.values": _values_hook,
    "tracer._ChartCore.rhs": _rhs_hook,
    "tracer._integrate_batch": _integrate_hook,
    "tracer.trace_portrait": _portrait_hook,
    "tracer.local_sector_count": _sector_hook,
    "render.curves_to_csv": _csv_hook,
    "render.portrait_to_svg": _svg_hook,
    "render.surface_view_to_svg": _svg_hook,
}

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder) -> dict:
    """Per-layer metrics named `<module>.<function>.<stat>`."""
    st = rec.self_times()
    c = rec.counters

    def self_s(name):
        return st.get(name, (0.0, 0))[0]

    def calls(name):
        return st.get(name, (0.0, 0))[1]

    rhs_calls = calls("tracer._ChartCore.rhs")
    iterations = rhs_calls / 4          # four field evaluations per RK4 step
    rows = np.asarray(rec.rows_per_values_call)
    out = {
        "request.self_s": self_s(REQUEST),
        "jets.load_jet.self_s": self_s("jets.load_jet"),
        "geometry.form_polynomials.self_s": self_s("geometry.form_polynomials"),
        "geometry.form_polynomials.hit_share":
            rec.cache_hit_share("geometry.form_polynomials"),
        "poly.Poly2.__mul__.calls": calls("poly.Poly2.__mul__"),
        "poly.Poly2.__mul__.self_s": self_s("poly.Poly2.__mul__"),
        "poly.CompiledPolySet.values.calls": calls("poly.CompiledPolySet.values"),
        "poly.CompiledPolySet.values.rows": int(rows.sum()),
        "poly.CompiledPolySet.values.self_s": self_s("poly.CompiledPolySet.values"),
        "poly.CompiledPolySet.values.rows_per_call_p50":
            float(np.median(rows)) if rows.size else 0.0,
        "poly.CompiledPolySet.values.computed_gflop_s":
            _ratio(c.get("values_flop", 0) / 1e9,
                   self_s("poly.CompiledPolySet.values")),
        "foliations.build_geometric_bde.self_s": self_s("foliations.build_geometric_bde"),
        "foliations.build_geometric_bde.hit_share":
            rec.cache_hit_share("foliations.build_geometric_bde"),
        "foliations.classify_edge_foliation.self_s":
            self_s("foliations.classify_edge_foliation"),
        "foliations.closed_form_analysis.self_s": self_s("foliations.closed_form_analysis"),
        "foliations.EdgeClassification.to_json.self_s":
            self_s("foliations.EdgeClassification.to_json"),
        "bde.delta_and_case.self_s": self_s("bde.delta_and_case"),
        "bde.cubic_analysis.self_s": self_s("bde.cubic_analysis"),
        "bde.restricted_jacobian.self_s": self_s("bde.restricted_jacobian"),
        "bde.solve_fiber_coordinate.calls": calls("bde.solve_fiber_coordinate"),
        "tracer._integrate_batch.calls": calls("tracer._integrate_batch"),
        "tracer._integrate_batch.self_s": self_s("tracer._integrate_batch"),
        "tracer._integrate_batch.rows": c.get("batch_rows", 0),
        "tracer._integrate_batch.row_steps": c.get("row_steps", 0),
        "tracer._integrate_batch.iterations": iterations,
        "tracer._integrate_batch.active_rows_per_iteration":
            _ratio(c.get("rhs_rows", 0), rhs_calls),
        "tracer._integrate_batch.step_cap_share":
            _ratio(c.get("capped_rows", 0), c.get("batch_rows", 0)),
        "tracer._integrate_batch.capped_step_share":
            _ratio(c.get("capped_steps", 0), c.get("row_steps", 0)),
        "tracer._ChartCore.rhs.self_s": self_s("tracer._ChartCore.rhs"),
        "tracer._ChartCore.residual_and_fp.calls":
            calls("tracer._ChartCore.residual_and_fp"),
        "tracer._ChartCore.project_gradient.calls":
            calls("tracer._ChartCore.project_gradient"),
        "tracer.trace_portrait.self_s": self_s("tracer.trace_portrait"),
        "tracer.discriminant_locus.self_s": self_s("tracer.discriminant_locus"),
        "tracer.project_to_surface.self_s": self_s("tracer.project_to_surface"),
        "tracer.portrait.curves": c.get("curves", 0),
        "tracer.portrait.samples": c.get("samples", 0),
        "tracer.portrait.warnings": c.get("warnings", 0),
        "tracer.portrait.max_residual": c.get("max_residual", 0.0),
        "tracer.local_sector_count.self_s": self_s("tracer.local_sector_count"),
        "tracer.local_sector_count.calls": calls("tracer.local_sector_count"),
        "tracer.local_sector_count.probes": c.get("probes", 0),
        "tracer.local_sector_count.ambiguous_share":
            _ratio(c.get("ambiguous", 0), calls("tracer.local_sector_count")),
        "render.portrait_to_svg.self_s": self_s("render.portrait_to_svg"),
        "render.surface_view_to_svg.self_s": self_s("render.surface_view_to_svg"),
        "render.curves_to_csv.self_s": self_s("render.curves_to_csv"),
        "render.csv_bytes": c.get("csv_bytes", 0),
        "render.csv_mb_per_s":
            _ratio(c.get("csv_bytes", 0) / 1e6, self_s("render.curves_to_csv")),
        "render.svg_bytes": c.get("svg_bytes", 0),
        "verify.run_verify.self_s": self_s("verify.run_verify"),
        "verify.documented_discrepancies.self_s":
            self_s("verify.documented_discrepancies"),
        "trace.spans": len(rec.start),
    }
    totals = rec.total_times()
    for suite, _, _ in sys.modules["edgefol.verify"]._SUITES:
        out[f"verify.{suite}.self_s"] = self_s(f"verify.{suite}")
        out[f"verify.{suite}.total_s"] = totals.get(f"verify.{suite}", 0.0)
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"layer metric {key} is not finite: {value}")
    return out
