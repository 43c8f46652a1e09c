"""Integral-curve tracing on the lifted surface M and local portrait oracles.

Curves are integrated in ambient (u, v, p) with classical fixed-step RK4 on
the lifted field, which is exactly tangent to every level set of F, so the
on-surface residual is pure roundoff; a periodic Newton projection in p mops
that up.  The field comes from the compiled evaluator `bde._ChartCore`,
which serves both charts from the nine compiled values of (A, B, C), read
through one permutation in chart q; every function here that has the BDE
reads it as `bde.core`, compiled once per BDE.  Seeds and chart
continuations are internal rows: (u, v, p) in chart p, (v, u, q) in chart
q.  Every batch row carries its own chart, step and stops: a request
integrates its charts, time directions and probed roots as one batch.  A
recorded batch logs the samples each step takes and assembles one path per
row at the end; `_trace_worklist` turns a portrait's two batches (seeds,
then chart continuations) into curves with array operations.

The module also provides the two independent oracles used to validate the
classifier: a sector-count probe around each lifted singular point and a
cusp-order detector for projected curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .bde import (
    BdeField,
    CHART_P,
    CHART_Q,
    DUAL,
    Case,
    CubicAnalysis,
    NODE,
    SADDLE,
    cubic_analysis,
    delta_and_case,
    discriminant_poly,
    lift,
    restricted_jacobian,
    solve_fiber_coordinate,
    solve_quadratic,
    _ChartCore,
)
from .errors import (
    DegenerateDiscriminant,
    EdgefolError,
    FitIllConditioned,
    WindowTooSmall,
)
from .geometry import surface_polynomials
from .jets import EdgeJet
from .poly import CompiledPolySet

SEED_RESIDUAL_TOL = 1e-8
CHART_BOUND = 1e3
SEPARATRIX_OFFSET = 1e-4     # separatrix seeds' distance from their saddle
PROJECT_EVERY = 50           # RK4 steps between scheduled projections onto M
PROBE_PROJECT_EVERY = 10     # the same for sector probes (gradient projection)
SINGULAR_STOP = 1e-5         # radius around a lifted zero that ends a curve
LOCUS_GRID = 512             # marching-squares samples per box side

TERM_BOX = "box_exit"
TERM_CAP = "step_cap"
TERM_SINGULAR = "singular_point"
TERM_CHART = "chart_breakdown"
TERM_NONFINITE = "non_finite"
TERM_STALLED = "stalled"
TERM_LANDED = "landed"
TERM_EXITED = "exited"


@dataclass(frozen=True)
class TraceConfig:
    box: float = 0.5
    step: float = 1e-3
    max_steps: int = 6000
    seeds_per_side: int = 24
    chart_bound = CHART_BOUND    # not a field: every batch reads CHART_BOUND


@dataclass
class TracedCurve:
    """One integral curve of the lifted field, both time directions joined."""

    samples: np.ndarray          # (n, 3) rows (u, v, chart variable)
    t: np.ndarray                # chordal arclength along the samples
    chart: str
    termination: str             # forward-time stop reason
    termination_backward: str
    is_separatrix: bool = False
    max_residual: float = 0.0
    seed_index: int = -1
    seed_sample: int = 0         # position of the seed within samples

    @property
    def projected(self) -> np.ndarray:
        return self.samples[:, :2]

    def __len__(self):
        return len(self.samples)


@dataclass
class Portrait:
    curves: list
    singular_points: tuple       # ((chart value, lifted type), ...) over the origin
    discriminant_locus: list     # polylines of {delta = 0}
    box: float
    case: Case | None            # None: discriminant too degenerate to split
    analysis: CubicAnalysis | None = None
    warnings: int = 0

    @property
    def separatrices(self):
        return [c for c in self.curves if c.is_separatrix]


# --- batched integrator core ---

def _swap_uv(states, q):
    """Public <-> internal (n, 3) rows: chart-q rows (mask `q`) swap u, v."""
    return np.where(np.reshape(q, (-1, 1)), states[:, [1, 0, 2]], states)


@dataclass
class _BatchResult:
    status: np.ndarray           # termination string per state
    final: np.ndarray            # (n, 3) internal coordinates
    steps: np.ndarray
    paths: list | None           # per-state (k, 3) internal samples incl. seed


def _newton_p(core: _ChartCore, S, q, ftol=0.0) -> bool:
    """One Newton step in the chart variable toward F = 0, in place on the
    rows of S.  Rows with |F_p| <= 1e-12 or |F| < ftol keep their value;
    returns whether any row moved."""
    f, fp = core.residual_and_fp(S, q)
    ok = (np.abs(fp) > 1e-12) & ~(np.abs(f) < ftol)
    S[ok, 2] -= f[ok] / fp[ok]
    return bool(ok.any())


def _integrate_batch(core: _ChartCore, states, q, *, step, max_steps,
                     box=None, singular=None, singular_stop=SINGULAR_STOP,
                     ball=None):
    """Fixed-step RK4 on the lifted field for a batch of internal states.

    Each row has its own chart (`q`), signed `step` and stopping tests: a
    non-finite step (the field overflowed), box exit on the base
    coordinates, proximity to its chart's singular points (0, 0, p_i)
    (`singular` maps chart -> p_i), chart-variable blowup past CHART_BOUND,
    and optionally land/exit radii of `ball = (center, land, exit, transform)`
    measured in the surface-graph coordinates (first base coordinate, chart
    variable), after the 2x2 `transform` (used to measure in
    eigencoordinates, where the linearized flow has no transient growth).
    Last, a row back at its state of the previous scheduled projection (the
    seed before the first), bit for bit, stops as stalled.  A batch with a
    `ball` is a sector probe: it follows the unit-speed field, projects
    along the full gradient every PROBE_PROJECT_EVERY steps and records no
    paths.  Any other batch logs each step's samples and assembles one path
    per row at the end.  Terminated rows freeze; the loop ends when none
    remain.
    """
    S = np.array(states, dtype=float)
    n = len(S)
    q = np.broadcast_to(q, (n,))
    step = np.broadcast_to(np.asarray(step, dtype=float), (n,))
    probe = ball is not None
    project_every = PROBE_PROJECT_EVERY if probe else PROJECT_EVERY
    status = np.array([""] * n, dtype=object)
    steps_used = np.zeros(n, dtype=int)
    # (rows, sample index, samples, wild) per step, the seeds first
    log = None if probe else [(np.arange(n), np.zeros(n, dtype=int), S.copy(),
                               np.zeros(n, dtype=bool))]
    active = np.arange(n)
    # each row's singular points, padded with inf (never within reach)
    sing_by_chart = [(singular or {}).get(c, ()) for c in (CHART_P, CHART_Q)]
    sing = np.full((n, max(map(len, sing_by_chart))), np.inf)
    for in_q, roots in enumerate(sing_by_chart):
        sing[q == bool(in_q), :len(roots)] = roots

    # Near a vertical direction the chart variable escapes to infinity in
    # finite time and RK4 steps grow without bound.  A step larger than a few
    # percent of the current chart value is rejected rather than recorded:
    # the curve freezes at its last accepted sample (re-projected onto M)
    # with a chart-breakdown status so the caller can continue in the dual
    # chart, where the motion is slow again.  Per-row parameters, that step
    # cap among them, are gathered through `active` whenever it shrinks.
    h, abs_h = step[:, None], np.abs(step)
    per_row = dict(q=q, h=h, half_h=0.5 * h, sixth_h=h / 6.0,
                   stiff_move=5.0 * abs_h, wild_move=20.0 * abs_h,
                   cap=np.maximum(0.05, 50.0 * abs_h), sing=sing)
    if probe:
        per_row.update(zip(("center", "land", "exit", "transform"), ball))
    r = per_row
    anchor = S.copy()   # each row's last scheduled state, indexed like S
    for k in range(1, max_steps + 1):
        if active.size == 0:
            break
        qa = r["q"]
        cur = S[active]
        k1 = core.rhs(cur, qa, probe)
        k2 = core.rhs(cur + r["half_h"] * k1, qa, probe)
        k3 = core.rhs(cur + r["half_h"] * k2, qa, probe)
        k4 = core.rhs(cur + r["h"] * k3, qa, probe)
        nxt = cur + r["sixth_h"] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        move = np.abs(nxt - cur)
        # scheduled projection, plus a safety projection wherever the chart
        # variable is moving fast (stiff approach to a vertical direction,
        # where the 50-step cadence provably undershoots)
        stiff = move[:, 2] > r["stiff_move"]
        scheduled = k % project_every == 0
        if scheduled and probe:
            core.project_gradient(nxt, qa)
        elif scheduled or stiff.any():
            rows = slice(None) if scheduled else stiff
            part = nxt[rows]
            _newton_p(core, part, qa[rows])
            nxt[rows] = part
        nonfinite = ~np.all(np.isfinite(nxt), axis=1)
        wild = (
            nonfinite
            | (np.abs(nxt[:, 2]) > CHART_BOUND)
            | (move[:, 2] > np.maximum(r["wild_move"],
                                       0.02 * (1.0 + np.abs(cur[:, 2]))))
            | (np.maximum(move[:, 0], move[:, 1]) > r["cap"])
        )
        # a wild row keeps its last accepted sample, re-projected onto M in p
        if wild.any():
            frozen = cur[wild]
            _newton_p(core, frozen, qa[wild])
            nxt[wild] = frozen
        at = k - wild               # a wild row keeps its step count
        S[active] = nxt
        steps_used[active] = at
        if log is not None:
            log.append((active, at, nxt, wild))

        stops = [(nonfinite, TERM_NONFINITE), (wild, TERM_CHART)]
        if box is not None:
            stops.append((np.abs(nxt[:, :2]).max(axis=1) > box, TERM_BOX))
        if sing.size:
            d2 = (nxt[:, 0, None] ** 2 + nxt[:, 1, None] ** 2
                  + (nxt[:, 2, None] - r["sing"]) ** 2)
            stops.append((d2.min(axis=1) < singular_stop**2, TERM_SINGULAR))
        if probe:
            dw = nxt[:, 0] - r["center"][:, 0]
            dp = nxt[:, 2] - r["center"][:, 1]
            m = r["transform"]
            dw, dp = (m[:, 0, 0] * dw + m[:, 0, 1] * dp,
                      m[:, 1, 0] * dw + m[:, 1, 1] * dp)
            r2 = dw * dw + dp * dp
            stops += [(r2 < r["land"]**2, TERM_LANDED),
                      (r2 > r["exit"]**2, TERM_EXITED)]
        if scheduled:
            # a cadence of steps depends only on its start state: a row back
            # at it, bit for bit, would repeat itself until the step cap
            same = nxt.view(np.int64) == anchor[active].view(np.int64)
            stops.append((same.all(axis=1), TERM_STALLED))
            anchor[active] = nxt     # a copy: `nxt` itself is logged
        done = np.zeros(len(nxt), dtype=bool)
        for mask, term in stops:     # the first test a row meets names its stop
            status[active[mask & ~done]] = term
            done |= mask
        if done.any():
            active = active[~done]
            r = {name: x[active] for name, x in per_row.items()}

    status[active] = TERM_CAP
    paths = None
    if log is not None:
        rows, at, samples, wild = (np.concatenate(col) for col in zip(*log))
        sizes = steps_used + 1
        ends = np.cumsum(sizes)
        where = ends[rows] - sizes[rows] + at
        out = np.empty((sizes.sum(), 3))
        out[where[~wild]] = samples[~wild]
        # a wild row's re-projected sample replaces the one logged before it
        out[where[wild]] = samples[wild]
        paths = np.split(out, ends)[:-1]
    return _BatchResult(status=status, final=S, steps=steps_used, paths=paths)


def _clip_box_exits(core: _ChartCore, S, last, prev, q, box):
    """Clip each box-exit sample S[last] (in place) to the boundary along its
    step from S[prev], at the first crossing fraction in [0, 1] (else 1), and
    Newton-polish its chart variable onto {F = 0} for the residual bound."""
    a, b = S[last, :2], S[prev, :2]
    with np.errstate(divide="ignore", invalid="ignore"):
        spans = (np.copysign(box, a) - b) / (a - b)
    crossing = (np.abs(a) > box) & (a != b) & (spans >= 0.0) & (spans <= 1.0)
    clipped = S[prev] + np.where(crossing, spans, 1.0).min(axis=1)[:, None] \
        * (S[last] - S[prev])
    for _ in range(8):   # a row that stops moving stays put on later passes
        if not _newton_p(core, clipped, q[last], ftol=1e-15):
            break
    S[last] = clipped


# --- seeding ---

def direction_roots(bde: BdeField, u: float, v: float):
    """Projective solution directions of the BDE at one base point.

    Returns (chart, value) pairs, each in the chart where the direction
    coordinate has magnitude <= 1, so seeds stay well conditioned.
    """
    a = float(bde.A(u, v))
    b = float(bde.B(u, v))
    c = float(bde.C(u, v))
    if max(abs(a), abs(b), abs(c)) == 0.0:
        return []
    if b * b - a * c < 0.0:
        return []
    if abs(a) >= abs(c) and a != 0.0:
        dirs = [(CHART_P, p) for p in solve_quadratic(a, 2.0 * b, c)]
    elif c != 0.0:
        dirs = [(CHART_Q, q) for q in solve_quadratic(c, 2.0 * b, a)]
    else:
        dirs = [(CHART_P, 0.0), (CHART_Q, 0.0)]
    # a direction whose value exceeds 1 in magnitude is read in the dual
    # chart, and one at exactly 1 in chart p
    return sorted({(chart, x) if abs(x) < 1.0 or (abs(x) == 1.0 and chart == CHART_P)
                   else (DUAL[chart], 1.0 / x) for chart, x in dirs})


def _seeds_on_M(eq, root: float, dw, dp) -> np.ndarray:
    """Internal rows (dw, w, root + dp) with w solved onto M, started at
    root * dw."""
    p = root + dp
    return np.column_stack([dw, solve_fiber_coordinate(eq, dw, p, start=root * dw), p])


def _separatrix_seeds(bde: BdeField, analysis: CubicAnalysis):
    """Four internal rows per saddle: +-SEPARATRIX_OFFSET along each
    eigenvector of the lifted linearization, pushed back onto M by one
    Newton solve; a graph offset below 1e-14 stays on the fiber."""
    eq = lift(bde, analysis.chart)
    seeds = []
    for data in analysis.per_root:
        if data.lifted_type != SADDLE:
            continue
        _, eigvecs = np.linalg.eig(restricted_jacobian(eq, data.root))
        # one norm per eigenvector: a batched norm can differ in the last bit
        dw, dp = np.reshape([sign * SEPARATRIX_OFFSET * (vec / np.linalg.norm(vec))
                             for vec in np.real(eigvecs).T if np.linalg.norm(vec) != 0.0
                             for sign in (+1.0, -1.0)], (-1, 2)).T
        rows = _seeds_on_M(eq, data.root, dw, dp)
        rows[np.abs(dw) < 1e-14, :2] = 0.0
        seeds += rows.tolist()
    return seeds


# overflow shows as dropped seeds and TERM_NONFINITE rows, not numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _trace_worklist(bde: BdeField, worklist, config: TraceConfig,
                    singular_by_chart):
    """Integrate (chart, internal state, is_separatrix) seeds both ways in
    one batch, then their chart breakdowns in a second; returns the curves
    and the number of seeds dropped as off M.

    Each round finishes its curves at once: box exits clipped, halves
    joined at the seed, one swap to public coordinates, one residual.  The
    seeds' curves come in worklist order, then the continuations with
    seed_index -1: chart-p seeds' first, each chart in worklist order,
    backward before forward.  The internal row (w, x, p) continues as the
    dual chart's row (x, w, 1/p); a continuation is not continued again."""
    core = bde.core
    tol = SEED_RESIDUAL_TOL * max(1.0, bde.coefficient_scale())
    curves, warnings = [], 0
    for seeds_round in (True, False):
        q = np.array([chart == CHART_Q for chart, _, _ in worklist], dtype=bool)
        states = np.array([s for _, s, _ in worklist], dtype=float).reshape(-1, 3)
        ok = np.abs(core.residual(states, q)) <= tol
        warnings += int(np.sum(~ok))
        entries = [e for e, good in zip(enumerate(worklist), ok) if good]
        n = len(entries)
        if n == 0:
            break
        # rows 0..n-1 run backward in time, rows n..2n-1 forward
        run = _integrate_batch(
            core, np.vstack([states[ok]] * 2), np.tile(q[ok], 2),
            step=np.repeat([-config.step, config.step], n),
            max_steps=config.max_steps, box=config.box, singular=singular_by_chart,
        )
        back = run.steps[:n]
        sizes = back + 1 + run.steps[n:]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        joined = np.concatenate([part for b, f in zip(run.paths[:n], run.paths[n:])
                                 for part in (b[::-1], f[1:])])
        q_joined = np.repeat(q[ok], sizes)
        # backward halves end at their curve's first sample, forward ones at its last
        exits = np.flatnonzero(run.status == TERM_BOX)
        fwd = exits >= n
        last = np.where(fwd, ends[exits % n] - 1, starts[exits % n])
        _clip_box_exits(core, joined, last, np.where(fwd, last - 1, last + 1),
                        q_joined, config.box)
        samples = _swap_uv(joined, q_joined)
        chord = np.sqrt(np.sum(np.diff(samples, axis=0) ** 2, axis=1))
        peak = np.maximum.reduceat(np.abs(core.residual(joined, q_joined)), starts)
        for row, (index, (chart, _, is_sep)) in enumerate(entries):
            lo, hi = starts[row], ends[row]
            curves.append(TracedCurve(     # t: chordal arclength, per curve
                samples=samples[lo:hi],
                t=np.concatenate([[0.0], np.cumsum(chord[lo:hi - 1])]),
                chart=chart, termination=run.status[n + row],
                termination_backward=run.status[row], is_separatrix=is_sep,
                max_residual=float(peak[row]), seed_sample=int(back[row]),
                seed_index=index if seeds_round else -1))

        # the exceptional fiber projects to a point: nothing to continue there
        w, x, p = run.final.T
        goes_on = (run.status == TERM_CHART) & (np.abs(p) > 0) \
            & ~(np.maximum(np.abs(w), np.abs(x)) < 1e-12)
        # chart-p seeds' continuations, in chart q, first (sorted() is stable)
        worklist = sorted([(DUAL[chart], (x[r], w[r], 1.0 / p[r]), is_sep)
                           for row, (_, (chart, _, is_sep)) in enumerate(entries)
                           for r in (row, n + row) if goes_on[r]],
                          key=lambda seed: seed[0], reverse=True)
        if not worklist:
            break
    return curves, warnings


def trace_portrait(bde: BdeField, config: TraceConfig = TraceConfig()) -> Portrait:
    """Phase portrait of a BDE.

    Seeds a uniform grid on each box side (one seed per direction branch),
    adds four separatrix seeds per lifted saddle of the chart-q cubic
    analysis (Case 3 only), traces everything in batched RK4, and extracts
    the locus of the full discriminant by marching squares.  Failed seeds
    are dropped and counted in `warnings`.  A discriminant too degenerate
    for the case split leaves `case` None (one warning): tracing and the
    locus do not need it.  A field that overflows in the first step of
    every seed raises OverflowError, as an infinite coefficient does.
    """
    warnings = 0
    analysis = None
    delta, case = discriminant_poly(bde), None
    try:
        case = delta_and_case(bde)[1]
    except DegenerateDiscriminant:
        warnings += 1
    if case is Case.CASE3:
        try:
            analysis = cubic_analysis(lift(bde, CHART_Q))
        except EdgefolError:
            warnings += 1

    worklist = []
    b = config.box
    offsets = -b + 2.0 * b * (np.arange(config.seeds_per_side) + 0.5) \
        / config.seeds_per_side
    sides = ([(float(t), -b) for t in offsets] + [(float(t), b) for t in offsets]
             + [(-b, float(t)) for t in offsets] + [(b, float(t)) for t in offsets])
    for u, v in sides:
        for chart, value in direction_roots(bde, u, v):
            w, x = (u, v) if chart == CHART_P else (v, u)
            worklist.append((chart, (w, x, value), False))

    singular_points = ()
    singular_by_chart = {}
    if analysis is not None:
        singular_points = tuple((r.root, r.lifted_type) for r in analysis.per_root)
        singular_by_chart = {chart: analysis.roots_in(chart) for chart in DUAL}
        try:
            for state in _separatrix_seeds(bde, analysis):
                worklist.append((analysis.chart, state, True))
        except EdgefolError:
            warnings += 1

    curves, dropped = _trace_worklist(bde, worklist, config, singular_by_chart)
    if {(len(c), c.termination, c.termination_backward) for c in curves} \
            == {(1, TERM_NONFINITE, TERM_NONFINITE)}:   # no row took a step
        raise OverflowError("the lifted field overflows at every seed")
    warnings += dropped

    locus = discriminant_locus(delta, config.box)
    return Portrait(curves=curves, singular_points=singular_points,
                    discriminant_locus=locus, box=config.box, case=case,
                    analysis=analysis, warnings=warnings)


# --- discriminant locus by marching squares ---

def discriminant_locus(delta, box: float):
    """Polylines of {delta = 0} inside the box, by marching squares.

    The edge crossings of all mixed cells are computed as arrays, laid out
    cell-major (cells in row-major grid order) and, within a cell, in edge
    order bottom, right, top, left; consecutive crossings of a cell pair
    into its one or two segments.
    """
    xs = np.linspace(-box, box, LOCUS_GRID)
    cp = CompiledPolySet([delta])
    U = np.vander(xs, cp.du + 1, increasing=True)
    V = np.vander(xs, cp.dv + 1, increasing=True)
    vals = U @ cp.mats[0] @ V.T       # vals[i, j] = delta(xs[i], xs[j])
    pos = vals > 0.0
    i, j = np.nonzero(
        (pos[:-1, :-1] != pos[1:, :-1]) | (pos[:-1, :-1] != pos[:-1, 1:])
        | (pos[:-1, :-1] != pos[1:, 1:])
    )
    x0, x1, y0, y1 = xs[i], xs[i + 1], xs[j], xs[j + 1]
    f00, f10 = vals[i, j], vals[i + 1, j]
    f01, f11 = vals[i, j + 1], vals[i + 1, j + 1]
    edges = (((x0, y0, f00), (x1, y0, f10)), ((x1, y0, f10), (x1, y1, f11)),
             ((x0, y1, f01), (x1, y1, f11)), ((x0, y0, f00), (x0, y1, f01)))
    crossings = np.empty((len(i), 4, 2))
    hit = np.empty((len(i), 4), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for e, ((xa, ya, fa), (xb, yb, fb)) in enumerate(edges):
            s = fa / (fa - fb)
            crossings[:, e, 0] = xa + s * (xb - xa)
            crossings[:, e, 1] = ya + s * (yb - ya)
            hit[:, e] = (fa > 0) != (fb > 0)
    segments = crossings[hit].reshape(-1, 2, 2)
    return _chain_segments(segments, tol=(xs[1] - xs[0]) * 1e-6)


def _chain_segments(segments, tol):
    """Join segments (an (m, 2, 2) array) sharing endpoints into polylines.

    Endpoint 2 * idx + end is point `end` of segment idx; endpoints meet when
    their coordinates agree after rounding to multiples of tol.
    """
    points = segments.reshape(-1, 2)
    keys = [tuple(k) for k in np.round(points / tol).astype(np.int64).tolist()]
    adjacency = {}
    for n, k in enumerate(keys):
        adjacency.setdefault(k, []).append(n)

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = [2 * start, 2 * start + 1]
        for endwise in (1, 0):
            while True:
                tail = chain[-1] if endwise else chain[0]
                hits = [n for n in adjacency[keys[tail]] if not used[n // 2]]
                if not hits:
                    break
                used[hits[0] // 2] = True
                nxt = hits[0] ^ 1    # the other end of the joined segment
                if endwise:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(points[chain])
    return polylines


# --- surface projection ---

@dataclass
class SurfaceCurve:
    points: np.ndarray           # (n, 3)
    kind: str                    # curve | separatrix | edge | discriminant
    domain: np.ndarray | None = None


def project_to_surface(jet: EdgeJet, portrait: Portrait) -> list:
    """Map every portrait curve through the parametrization; the singular
    edge curve f(u, 0) is always included, at 301 points."""
    f1, f2, f3 = surface_polynomials(jet)
    cset = CompiledPolySet([f1, f2, f3])

    def image(domain):
        pts = cset.values(domain[:, 0], domain[:, 1])
        return np.stack(pts, axis=1)

    out = []
    for curve in portrait.curves:
        dom = curve.projected
        out.append(SurfaceCurve(
            points=image(dom),
            kind="separatrix" if curve.is_separatrix else "curve",
            domain=dom,
        ))
    for line in portrait.discriminant_locus:
        out.append(SurfaceCurve(points=image(line), kind="discriminant",
                                domain=line))
    us = np.linspace(-portrait.box, portrait.box, 301)
    edge_dom = np.stack([us, np.zeros_like(us)], axis=1)
    out.append(SurfaceCurve(points=image(edge_dom), kind="edge",
                            domain=edge_dom))
    return out


# --- cusp-order detection ---

class CuspClass(str, Enum):
    NO_CUSP = "NoCusp"
    CUSP_23 = "Cusp23"
    CUSP_34 = "Cusp34"
    CUSP_345 = "Cusp345"


VANISH_TOL = 1e-3
INDEPENDENCE_TOL = 1e-3
MIN_WINDOW = 25


def _independent(vectors):
    rows = []
    for vec in vectors:
        n = np.linalg.norm(vec)
        if n == 0.0:
            return False
        rows.append(vec / n)
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return bool(np.all(sv[1:] / sv[:-1] > INDEPENDENCE_TOL)) if len(sv) > 1 else True


def detect_cusp_order(points, t=None, t0: float = 0.0,
                      window: int | None = None) -> CuspClass:
    """Classify the local singularity of a sampled curve at parameter t0.

    A degree-5 least-squares fit per coordinate over a centered window gives
    the derivative vectors; a vector vanishes when its norm, relative to the
    window scale, is below VANISH_TOL, and vectors are independent when
    every singular-value ratio exceeds INDEPENDENCE_TOL.  Recognizes
    ordinary (2,3)-cusps and the two space-cusp orders (3,4) and (3,4,5).
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    t = np.arange(n, dtype=float) if t is None else np.asarray(t, dtype=float)
    split = int(np.searchsorted(t, t0))
    if window is not None:
        lo, hi = max(0, split - window), min(n, split + window)
        pts, t = pts[lo:hi], t[lo:hi]
        split = int(np.searchsorted(t, t0))
    if split < MIN_WINDOW or len(t) - split < MIN_WINDOW:
        raise WindowTooSmall(
            f"need >= {MIN_WINDOW} samples each side of t0, have "
            f"{split} / {len(t) - split}"
        )

    s = t - t0
    width = float(np.max(np.abs(s)))
    if width == 0.0:
        raise FitIllConditioned("degenerate parameter window")
    sn = s / width
    V = np.vander(sn, 6, increasing=True)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e8:
        raise FitIllConditioned(f"Vandermonde condition number {cond:.3e}")
    spread = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if spread == 0.0:
        return CuspClass.NO_CUSP
    coef, *_ = np.linalg.lstsq(V, pts / spread, rcond=None)

    # scaled derivative vectors: d_k = k! c_k, dimensionless
    fact = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0]
    d = [fact[k] * coef[k] for k in range(6)]
    vanish = [np.linalg.norm(dk) < VANISH_TOL for dk in d]

    if not vanish[1]:
        return CuspClass.NO_CUSP
    if not vanish[2]:
        if not vanish[3] and _independent([d[2], d[3]]):
            return CuspClass.CUSP_23
        return CuspClass.NO_CUSP
    if vanish[3] or vanish[4] or not _independent([d[3], d[4]]):
        return CuspClass.NO_CUSP
    if dim == 2 or vanish[5] or not _independent([d[3], d[4], d[5]]):
        return CuspClass.CUSP_34
    return CuspClass.CUSP_345


# --- sector-count oracle ---

PROBE_RADIUS = 0.02          # largest probe-circle radius
PROBES_PER_SIDE = 8          # probes on each side of the circle
LAND_FRACTION = 0.05         # landing radius, as a fraction of the circle's
EXIT_FRACTION = 3.0          # exit radius, likewise

def _edge_zero_distance(bde: BdeField) -> float:
    """Distance from the origin to the nearest other degenerate fiber on the
    edge v = 0.

    For the geometric BDEs the dv^2 and dudv coefficients vanish identically
    on the edge, so the whole fiber over (u, 0) lies in the lifted surface
    exactly where the du^2 coefficient vanishes; probes must stay well inside
    the nearest such point or they drain toward its zeros instead."""
    on_edge = {i: c for (i, j), c in bde.C.terms.items() if j == 0}
    if not on_edge:
        return math.inf
    degree = max(on_edge)
    coeffs = np.array([float(on_edge.get(k, 0.0)) for k in range(degree + 1)])
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return math.inf
    # deflate the root at the origin itself (present when the origin is the
    # degenerate point under study)
    while abs(coeffs[0]) <= 1e-12 * scale and len(coeffs) > 1:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return math.inf
    roots = np.roots(coeffs[::-1])
    real = [abs(r.real) for r in roots
            if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and abs(r) > 1e-12]
    return min(real, default=math.inf)


@dataclass(frozen=True)
class SectorCount:
    """Local behavior census around one lifted singular point.

    For a saddle every probe sweeps past the point (hyperbolic behavior) and
    the projected separatrices split each side of the edge direction in two:
    four hyperbolic sectors.  For a node every probe converges in one time
    direction: two landing fans, one on each side.
    """

    pattern: str                 # saddle | node | ambiguous
    landings_forward: int
    landings_backward: int
    exits_both: int
    probes: int

    @property
    def sectors(self) -> int | None:
        return {SADDLE: 4, NODE: 2}.get(self.pattern)

    def matches(self, lifted_type: str) -> bool:
        return self.pattern == lifted_type


class _ProbeCircle(NamedTuple):
    """Probe seeds on M around one lifted singular point (0, 0, root)."""

    q: bool                      # chart q (else chart p)
    root: float
    rho: float
    inverse: np.ndarray          # (graph coordinate, chart variable) -> eigen
    weak_index: int
    internal: np.ndarray         # internal coordinates


def _probe_circle(bde: BdeField, analysis: CubicAnalysis,
                  root_index: int) -> _ProbeCircle:
    root, chart = analysis.roots[root_index], analysis.chart
    if abs(root) > 1.0:
        chart, root = DUAL[chart], 1.0 / root
    gap = min((abs(root - o) for o in analysis.roots_in(chart) if o != root),
              default=math.inf)

    eq = lift(bde, chart)

    # eigenbasis of the restricted Jacobian in (graph coordinate, chart
    # variable); columns normalized, fall back to identity if degenerate
    jac = restricted_jacobian(eq, root)
    eigvals, eigvecs = np.linalg.eig(jac)
    basis = np.real(eigvecs)
    norms = np.linalg.norm(basis, axis=0)
    lam = np.real(eigvals)
    if np.any(np.abs(np.imag(eigvals)) > 1e-9 * np.abs(eigvals).max()) \
            or np.any(norms == 0.0):
        basis = np.eye(2)
    elif lam[0] * lam[1] > 0.0 and abs(np.linalg.det(basis / norms)) < 1e-2:
        # nearly defective node: its eigencoordinates magnify errors into
        # spurious exits.  Schur vectors, the second shrunk until the shear is
        # below the eigenvalues, make the linear flow monotone in the norm.
        v = basis[:, 0] / norms[0]
        u = np.array([-v[1], v[0]])
        shrink = math.sqrt(lam[0] * lam[1]) / max(abs(v @ jac @ u), 1e-300)
        basis = np.column_stack([v, min(1.0, shrink) * u])
    elif abs(np.linalg.det(basis / norms)) < 1e-3:
        basis = np.eye(2)
    else:
        basis = basis / norms
    inverse = np.linalg.inv(basis)

    # the probe circle must sit inside the linearization region of the WEAK
    # eigenvalue, past which quadratic terms redirect the slow manifold,
    # and inside the basin boundary set by the nearest other degenerate
    # fiber on the edge
    second_order = max(
        (abs(float(c)) for poly in (bde.A, bde.B, bde.C)
         for (i, j), c in poly.terms.items() if i + j == 2), default=0.0)
    lam_min = float(np.min(np.abs(np.real(eigvals))))
    rho = max(1e-6, min(PROBE_RADIUS, 0.3 * gap, 0.3 * _edge_zero_distance(bde),
                        0.2 * lam_min / max(second_order, 1e-9)))

    angles = []
    span = 0.38 * math.pi
    for k in range(PROBES_PER_SIDE):
        base = -span + 2 * span * (k + 0.5) / PROBES_PER_SIDE
        angles.extend([base, base + math.pi])

    dw, dp = np.array([basis @ (rho * math.cos(psi), rho * math.sin(psi))
                       for psi in angles]).T
    internal = _seeds_on_M(eq, root, dw, dp)
    resid = np.abs(bde.core.residual(internal, chart == CHART_Q))
    keep = resid <= 1e-9 * max(1.0, bde.coefficient_scale())
    weak_index = int(np.argmin(np.abs(np.real(eigvals))))
    return _ProbeCircle(chart == CHART_Q, root, rho, inverse, weak_index,
                        internal[keep])


def local_sector_counts(bde: BdeField, analysis: CubicAnalysis,
                        indices=None) -> list:
    """Probe the flow near lifted singular points and count local sectors.

    Probes seed on a small circle around (0, 0, p_i) in the eigencoordinates
    of the restricted linearization (so anisotropy and shear cause no
    spurious transient exits) and integrate the unit-speed field both ways.
    All probes escaping both ways is the saddle pattern (4 hyperbolic
    sectors); all probes converging in a common time direction is the node
    pattern (2 landing fans).  One SectorCount per root in `indices` (every
    root by default); all their probes and both directions share one batch.
    """
    if indices is None:
        indices = range(len(analysis.roots))
    circles = [_probe_circle(bde, analysis, i) for i in indices]
    # each circle with enough probes: its forward rows, then its backward rows
    probed = [c for c in circles if len(c.internal) >= PROBES_PER_SIDE]
    sizes = [2 * len(c.internal) for c in probed]

    def per_row(values):
        return np.repeat(np.array(values), sizes, axis=0)

    if probed:
        res = _integrate_batch(
            bde.core, np.vstack([np.vstack([c.internal] * 2) for c in probed]),
            per_row([c.q for c in probed]),
            step=np.concatenate([np.repeat([c.rho / 60.0, -c.rho / 60.0],
                                           len(c.internal)) for c in probed]),
            max_steps=24000,
            ball=(per_row([(0.0, c.root) for c in probed]),
                  per_row([LAND_FRACTION * c.rho for c in probed]),
                  per_row([EXIT_FRACTION * c.rho for c in probed]),
                  per_row([c.inverse for c in probed])),
        )

    def eigencoords(c, states):
        return c.inverse @ np.stack([states[:, 0], states[:, 2] - c.root], axis=0)

    counts, start = [], 0
    for c in circles:
        n = len(c.internal)
        if n < PROBES_PER_SIDE:
            counts.append(SectorCount("ambiguous", 0, 0, 0, n))
            continue
        y_seed = eigencoords(c, c.internal)
        outcomes = []                    # forward, then backward
        for rows in (slice(start, start + n), slice(start + n, start + 2 * n)):
            status = res.status[rows].copy()
            # step-capped probes creep along the weak manifold too slowly for
            # the arclength budget; classify them by whether the weak
            # eigencoordinate contracted (inward fan) or expanded (slow escape)
            if TERM_CAP in status:
                y_final = eigencoords(c, res.final[rows])
                w0 = np.abs(y_seed[c.weak_index])
                wT = np.abs(y_final[c.weak_index])
                capped = status == TERM_CAP
                landed = (wT <= 0.6 * np.maximum(w0, 1e-30)) \
                    & (np.hypot(*y_final) <= c.rho)
                status[capped & landed] = TERM_LANDED
                status[capped & ~landed & (wT >= 1.8 * w0)] = TERM_EXITED
            outcomes.append(status)
        start += 2 * n

        fwd_land, bwd_land = (int(np.sum(s == TERM_LANDED)) for s in outcomes)
        both_exit = int(np.sum((outcomes[0] == TERM_EXITED)
                               & (outcomes[1] == TERM_EXITED)))
        if both_exit >= n - 1 and fwd_land + bwd_land <= 1:
            pattern = SADDLE
        elif (fwd_land >= n - 1 and bwd_land == 0) \
                or (bwd_land >= n - 1 and fwd_land == 0):
            pattern = NODE
        else:
            pattern = "ambiguous"
        counts.append(SectorCount(pattern, fwd_land, bwd_land, both_exit, n))
    return counts


def local_sector_count(bde: BdeField, analysis: CubicAnalysis,
                       root_index: int) -> SectorCount:
    """`local_sector_counts` for the single root `root_index`."""
    return local_sector_counts(bde, analysis, (root_index,))[0]
