"""The three benchmark workloads: inputs from a seed, requests, output checks.

Each workload is a closed loop with one caller: the next request is sent
only after the previous one returned.  Requests call the library the way the
CLI commands do, without the CLI, so process start-up is paid only in set-up.
Library functions are looked up on their modules at call time, so the span
recorder's wrappers see every call.

Output checks recompute what they can from the inputs and the structured
result; none of them compares against stored program output.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np

from edgefol import bde as bde_mod
from edgefol import foliations, geometry, jets, render, tracer, verify
from edgefol.errors import EdgefolError
from edgefol.foliations import FoliationKind

KINDS = tuple(FoliationKind)
SCENARIOS = ("generic", "edge_degenerate")
TYPE2_CLASSES = {
    # (real roots, saddles) -> class; the saddle sign convention of the paper
    (3, 3): "ThreeSaddles", (3, 2): "TwoSaddlesOneNode",
    (3, 1): "OneSaddleTwoNodes", (1, 1): "OneSaddle", (1, 0): "OneNode",
}
CSV_HEADER = "t,u,v,p,x,y,z,curve_id,separatrix"

# One warm-up input per workload, fixed and outside every timed list: the
# timed lists are drawn at random, this jet is a hand-written literal.
WARMUP_JET = jets.EdgeJet(0.3, -0.2, 0.0, 0.7, -1.1, 0.9)

# `edgefol render --box 0.15 --seeds-per-side 8 --max-steps 120`.  At the
# CLI defaults (box 0.5, 24 seeds a side, 6000 steps) one portrait takes
# 2-18 s on a 2-core Xeon, so a run would hold a handful of requests: no
# steady rate and no tail.  At this size a portrait takes about 0.15-0.3 s
# and a 30 s run holds 100-200, so the tail percentile is the 90th or above.
PORTRAIT_CONFIG = tracer.TraceConfig(box=0.15, seeds_per_side=8, max_steps=120)
PORTRAIT_PAIRS = 300
PORTRAIT_STYLE = render.RenderStyle()

VERIFY_TRIALS = 1
WARMUP_VERIFY_SEED = 7
VERIFY_REQUESTS = 300
# Real roots of the sector_counts trial's lifted cubic, request by request.
# That trial calls local_sector_count once per root, so a request with three
# roots takes about three times as long (0.3-0.5 s against 0.1-0.2 s on a
# 2-core Xeon).  Over seeds 1-20, 2249 of 6000 drawn master seeds (0.375)
# had three roots.  Drawn at random, a run's ~110 requests hold that share
# give or take 5 points, and the median request falls in one mode or in the
# other.  Master seeds are therefore dealt in this fixed pattern, three
# three-root requests in every eight, in the order they were drawn, so that
# every run holds the same mix.
VERIFY_ROOT_PATTERN = (1, 3, 1, 1, 3, 1, 3, 1)


def _draw_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


# --- classify_mix ---

def classify_inputs(seed: int, start: int, count: int) -> list:
    """Jets as JSON text; scenarios alternate, b20 != 0 then b20 = 0."""
    base = _draw_seed(seed, 1, 0)
    out = []
    for i in range(start, start + count):
        scenario = SCENARIOS[i % 2]
        jet = jets.sample_generic_jet(base + i, scenario)
        out.append(jets.dump_jet(jet))
    return out


def classify_request(text: str):
    jet = jets.load_jet(text)
    return jet.b20, [foliations.classify_edge_foliation(jet, k).to_json()
                     for k in KINDS]


def _cubic_discriminant(a, b, c, d):
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 \
        - 27 * a * a * d * d


def check_classification(b20: float, kind: FoliationKind, text: str) -> list:
    """Problems with one classification JSON (empty when it is right)."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"JSON does not parse: {exc}"]
    problems = []
    cls = out.get("top_class")
    if out.get("kind") != kind.value:
        problems.append(f"kind {out.get('kind')!r} != {kind.value!r}")
    reason = out.get("degenerate_reason")
    if cls == "Degenerate":
        if not reason:
            problems.append("Degenerate without a reason")
        return problems
    if reason is not None:
        problems.append(f"{cls} carries a degenerate_reason")
    if kind is FoliationKind.LINES_OF_CURVATURE:
        if cls != "RegularPair":
            problems.append(f"lines of curvature classed {cls}")
        return problems
    if b20 != 0.0:
        if cls != "CuspFamily":
            problems.append(f"b20 = {b20} but class {cls}")
        return problems
    if cls not in TYPE2_CLASSES.values():
        return problems + [f"b20 = 0 but class {cls}"]
    inv = out["invariants"]
    phi, alpha = inv["phi"], inv["alpha"]
    scale = max(abs(x) for x in phi)
    d = _cubic_discriminant(*(x / scale for x in phi))
    if d * inv["D"] <= 0:
        problems.append(f"D sign: recomputed {d:.3e}, reported {inv['D']:.3e}")
    roots = out.get("roots", [])
    if len(roots) != (3 if d > 0 else 1):
        problems.append(f"{len(roots)} roots for discriminant {d:.3e}")
    saddles = 0
    for r in roots:
        a_val = (alpha[0] * r + alpha[1]) * r + alpha[2]
        minus_dphi = -((3 * phi[0] * r + 2 * phi[1]) * r + phi[2])
        saddles += a_val * minus_dphi < 0
    expected = TYPE2_CLASSES.get((len(roots), saddles))
    if expected != cls:
        problems.append(f"{len(roots)} roots, {saddles} saddles but class {cls}")
    return problems


def check_classify(result) -> list:
    b20, texts = result
    return [p for kind, text in zip(KINDS, texts)
            for p in check_classification(b20, kind, text)]


# --- portrait_render ---

def _has_seeds(bde, config) -> bool:
    """Whether trace_portrait would start any curve: a boundary seed
    (tracer.py, trace_portrait: the side grid filtered by chart_bound) or a
    separatrix seed (one set per lifted saddle of the case-3 analysis).
    Without one the portrait is empty and rendering raises EmptyPortrait by
    design."""
    b, n = config.box, config.seeds_per_side
    offsets = -b + 2.0 * b * (np.arange(n) + 0.5) / n
    sides = [(t, -b) for t in offsets] + [(t, b) for t in offsets] \
        + [(-b, t) for t in offsets] + [(b, t) for t in offsets]
    if any(abs(value) <= config.chart_bound
           for u, v in sides for _, value in tracer.direction_roots(bde, float(u), float(v))):
        return True
    try:
        case = bde_mod.delta_and_case(bde)[1]
    except EdgefolError:
        return True     # trace_portrait raises too: keep it as a failed request
    if case is not bde_mod.Case.CASE3:
        return False
    try:
        analysis = bde_mod.cubic_analysis(bde_mod.lift(bde, bde_mod.CHART_Q))
    except EdgefolError:
        return False
    return any(r.lifted_type == bde_mod.SADDLE for r in analysis.per_root)


def portrait_inputs(seed: int, count: int):
    """(jet, kind) pairs cycling over the three foliations x two scenarios,
    a fresh jet for every pair, and the number of draws skipped as empty."""
    out = []
    draw = 0
    while len(out) < count:
        scenario = SCENARIOS[(len(out) // 3) % 2]
        kind = KINDS[len(out) % 3]
        jet = jets.sample_generic_jet(_draw_seed(seed, 2, draw), scenario)
        draw += 1
        if _has_seeds(foliations.build_geometric_bde(jet, kind), PORTRAIT_CONFIG):
            out.append((jet, kind))
    # requests start from the caches a fresh process has
    foliations.build_geometric_bde.cache_clear()
    geometry.form_polynomials.cache_clear()
    return out, {"draws": draw, "skipped_empty": draw - count}


def portrait_request(pair):
    jet, kind = pair
    bde = foliations.build_geometric_bde(jet, kind)
    top_class = foliations.classify_edge_foliation(jet, kind).top_class.value
    portrait = tracer.trace_portrait(bde, PORTRAIT_CONFIG)
    svg = render.portrait_to_svg(portrait, PORTRAIT_STYLE, top_class=top_class)
    csv_text = render.curves_to_csv(portrait, jet)
    surface = render.surface_view_to_svg(
        tracer.project_to_surface(jet, portrait), PORTRAIT_STYLE)
    return top_class, portrait, svg, csv_text, surface


def check_portrait(result, box: float = PORTRAIT_CONFIG.box) -> list:
    top_class, portrait, svg, csv_text, surface = result
    problems = []
    if not portrait.curves:
        problems.append("no curves")
    limit = box * (1 + 1e-9)
    for i, curve in enumerate(portrait.curves):
        if not curve.max_residual <= 1e-8:
            problems.append(f"curve {i}: residual {curve.max_residual:.3e}")
        if np.any(np.abs(curve.samples[:, :2]) > limit):
            problems.append(f"curve {i}: sample outside the box")
    analysis = portrait.analysis
    for root, lifted_type in portrait.singular_points:
        if lifted_type != "saddle":
            continue
        near = [c for c in portrait.separatrices
                if c.chart == analysis.chart and np.allclose(
                    c.samples[c.seed_sample], (0.0, 0.0, root), atol=1e-3)]
        if not near:
            problems.append(f"saddle at p = {root:.6g} has no separatrix curve")
    for name, doc in (("portrait", svg), ("surface", surface)):
        try:
            ET.fromstring(doc)
        except ET.ParseError as exc:
            problems.append(f"{name} SVG does not parse: {exc}")
    if f"<!-- top_class: {top_class} |" not in svg:
        problems.append("portrait SVG lacks the top_class comment")
    if not csv_text.startswith(CSV_HEADER + "\n"):
        problems.append("CSV header differs")
    rows = csv_text.count("\n") - 1
    samples = sum(len(c) for c in portrait.curves)
    if rows != samples:
        problems.append(f"CSV has {rows} rows for {samples} samples")
    return problems


# --- verify_oracles ---

def sector_roots(master_seed: int) -> int:
    """Real roots of the lifted cubic in run_verify's sector_counts trial
    (verify.py, _sector_trial: suite stream 6, trial 0 at one trial), i.e.
    how many local_sector_count calls that request makes."""
    jet = jets.sample_generic_jet(verify._trial_seed(master_seed, 6, 0),
                                  "edge_degenerate")
    bde = foliations.build_geometric_bde(jet, FoliationKind.ASYMPTOTIC)
    return len(bde_mod.cubic_analysis(bde_mod.lift(bde, bde_mod.CHART_Q)).per_root)


def verify_inputs(seed: int, count: int):
    """Master seeds in VERIFY_ROOT_PATTERN, each root count in draw order,
    and the draw counts (left-over draws are skipped)."""
    pools, out, draw, three = {}, [], 0, 0
    while len(out) < count:
        want = VERIFY_ROOT_PATTERN[len(out) % len(VERIFY_ROOT_PATTERN)]
        while not pools.get(want):
            master = _draw_seed(seed, 3, draw)
            draw += 1
            roots = sector_roots(master)
            three += roots == 3
            pools.setdefault(roots, []).append(master)
        out.append(pools[want].pop(0))
    # requests start from the caches a fresh process has
    foliations.build_geometric_bde.cache_clear()
    geometry.form_polynomials.cache_clear()
    return out, {"draws": draw, "three_root_draws": three,
                 "skipped": draw - count}


def verify_request(master_seed: int):
    return verify.run_verify(trials=VERIFY_TRIALS, seed=master_seed, workers=1)


def check_verify(report, trials: int = VERIFY_TRIALS) -> list:
    problems = []
    if not report.passed:
        problems.append("report did not pass")
    names = [s.name for s in report.suites]
    if len(names) != 9 or len(set(names)) != 9:
        problems.append(f"suites {names}")
    for s in report.suites:
        if s.trials != verify._suite_trials(s.name, trials):
            problems.append(f"{s.name}: {s.trials} trials")
    return problems


# --- registry ---

class Workload:
    """Inputs, one request and its check, for one workload."""

    def __init__(self, name, make_inputs, request, check, warmup, fixed_count,
                 refill=None, label=None):
        self.name = name
        self.make_inputs = make_inputs      # seed -> (input list, stats)
        self.refill = refill                # (seed, start) -> more inputs
        self.request = request
        self.check = check
        self.warmup = warmup                # fixed input, never in the list
        self.fixed_count = fixed_count      # requests in a traced run
        self.label = label                  # result -> class, for the mix


CLASSIFY_CHUNK = 2000

WORKLOADS = {
    "classify_mix": Workload(
        "classify_mix",
        lambda seed: (classify_inputs(seed, 0, CLASSIFY_CHUNK), {}),
        classify_request, check_classify, jets.dump_jet(WARMUP_JET), 1000,
        refill=lambda seed, start: classify_inputs(seed, start, CLASSIFY_CHUNK)),
    "portrait_render": Workload(
        "portrait_render", lambda seed: portrait_inputs(seed, PORTRAIT_PAIRS),
        portrait_request, check_portrait,
        (WARMUP_JET, FoliationKind.LINES_OF_CURVATURE), 24,
        label=lambda result: result[0]),
    "verify_oracles": Workload(
        "verify_oracles", lambda seed: verify_inputs(seed, VERIFY_REQUESTS),
        verify_request, check_verify, WARMUP_VERIFY_SEED, 12),
}
