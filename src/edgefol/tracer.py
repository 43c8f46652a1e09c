"""Integral-curve tracing on the lifted surface M and local portrait oracles.

Curves are integrated in ambient (u, v, p) with classical fixed-step RK4 on
the lifted field, which is exactly tangent to every level set of F, so the
on-surface residual is pure roundoff; a periodic Newton projection in p mops
that up.  The field comes from the compiled evaluator `bde._ChartCore`,
which serves both charts from one table of monomials over the internal
coordinates; every function here that has the BDE reads it as
`bde.core`, compiled once per BDE.  Seeds and chart
continuations are internal rows: (u, v, p) in chart p, (v, u, q) in chart
q.  `_integrate_batch` runs every seed both ways, each with its own chart,
step and stops, so a request integrates its charts, time directions and
probed roots as one batch.  It clips box exits at the step where they
happen, and a recorded batch returns each seed's curve already joined;
`_trace_worklist` turns a portrait's two batches (seeds, then chart
continuations) into curves with array operations.

Separatrix seeds and sector probes read one local model per lifted zero,
the eigenframe of `LiftedEquation.jacobian`.  The module also provides the
independent oracle that validates the classifier: a sector-count probe
around each lifted singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    discriminant_poly,
    lift,
    origin_case,
    solve_fiber_coordinate,
    solve_quadratic,
    _ChartCore,
)
from .errors import DegenerateDiscriminant, EdgefolError
from .geometry import surface_map
from .jets import EdgeJet
from .poly import CompiledPolySet, power_table

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
    """Portrait settings, and the CLI's trace flags in this order."""

    box: float = 0.5
    step: float = 1e-3
    seeds_per_side: int = 24
    max_steps: int = 6000
    chart_bound = CHART_BOUND    # not a field: every batch reads CHART_BOUND


@dataclass
class TracedCurve:
    """One integral curve of the lifted field, both time directions joined."""

    samples: np.ndarray          # (n, 3) rows (u, v, chart variable)
    t: np.ndarray                # chordal arclength along the samples
    chart: str
    termination: str             # forward-time stop reason
    termination_backward: str
    is_separatrix: bool
    max_residual: float
    seed_index: int              # -1 for a chart continuation
    seed_sample: int             # position of the seed within samples

    @property
    def projected(self) -> np.ndarray:
        return self.samples[:, :2]

    def __len__(self):
        return len(self.samples)


@dataclass
class Portrait:
    curves: list
    discriminant_locus: list     # polylines of {delta = 0}
    box: float
    case: Case | None            # None: discriminant too degenerate to split
    analysis: CubicAnalysis | None   # the Case-3 lifted zeros over the origin
    warnings: int

    @property
    def singular_points(self) -> tuple:
        """((root, lifted type), ...) of the analysis, in its chart."""
        if self.analysis is None:
            return ()
        return tuple((r.root, r.lifted_type) for r in self.analysis.per_root)

    @property
    def separatrices(self):
        return [c for c in self.curves if c.is_separatrix]


# --- batched integrator core ---

def _swap_uv(states, q):
    """Public <-> internal (n, 3) rows: chart-q rows (mask `q`) swap u, v."""
    return np.where(np.reshape(q, (-1, 1)), states[:, [1, 0, 2]], states)


@dataclass
class _BatchResult:
    status: np.ndarray           # per row: row i runs seed i backward, n + i forward
    final: np.ndarray            # (2n, 3) internal coordinates
    steps: np.ndarray
    samples: np.ndarray | None   # each seed's curve in turn, internal coordinates
    bounds: np.ndarray | None    # seed i's curve is samples[bounds[i]:bounds[i + 1]]


def _newton_p(core: _ChartCore, S, q, ftol) -> bool:
    """One Newton step in the chart variable toward F = 0, in place on the
    rows of S.  Rows with |F_p| <= 1e-12 or |F| < ftol keep their value;
    returns whether any row moved."""
    f, fp = core.residual_and_fp(S, q)
    ok = (np.abs(fp) > 1e-12) & ~(np.abs(f) < ftol)
    S[ok, 2] -= f[ok] / fp[ok]
    return bool(ok.any())


def _integrate_batch(core: _ChartCore, seeds, q, *, step, max_steps,
                     box=np.inf, singular=None, ball=None):
    """Fixed-step RK4 on the lifted field, each internal seed both ways.

    Row i runs seed i backward in time and row n + i forward.  Each seed has
    its own chart (`q`), step size (`step`, unsigned) and stopping tests: a
    non-finite step (the field overflowed), box exit on the base
    coordinates, proximity within SINGULAR_STOP to its chart's singular
    points (0, 0, p_i) (`singular` maps chart -> p_i), chart-variable blowup
    past CHART_BOUND, and optionally land/exit radii of `ball = (center,
    land, exit, transform)`
    measured in the surface-graph coordinates (first base coordinate, chart
    variable), after the 2x2 `transform` (used to measure in
    eigencoordinates, where the linearized flow has no transient growth).
    Last, a row back at its state of the previous scheduled projection (the
    seed before the first), bit for bit, stops as stalled.  A box-exit
    sample is clipped to the box along its step and Newton-polished onto M.
    A batch with a `ball` is a sector probe: it follows the unit-speed
    field, projects along the full gradient every PROBE_PROJECT_EVERY steps
    and records no samples.  Any other batch logs each step's samples and
    joins each seed's two halves at the end: the backward half reversed, the
    seed, then the forward half.  Terminated rows freeze; the loop ends when
    none remain.  The loop carries only the active rows' states and names
    statuses only at a step where some row stops.
    """
    S = np.tile(np.asarray(seeds, dtype=float), (2, 1))
    n = len(S) // 2
    q = np.tile(np.broadcast_to(q, (n,)), 2)
    size = np.broadcast_to(np.asarray(step, dtype=float), (n,))
    step = np.concatenate([-size, size])
    probe = ball is not None
    project_every = PROBE_PROJECT_EVERY if probe else PROJECT_EVERY
    status = np.array([""] * (2 * n), dtype=object)
    steps_used = np.zeros(2 * n, dtype=int)
    # (rows, sample index, samples, wild) per step, the seeds first
    log = None if probe else [(np.arange(2 * n), np.zeros(2 * n, dtype=int),
                               S.copy(), np.zeros(2 * n, dtype=bool))]
    active = np.arange(2 * n)
    # each row's singular points, padded with inf (never within reach)
    sing_by_chart = [(singular or {}).get(c, ()) for c in (CHART_P, CHART_Q)]
    sing = np.full((2 * n, max(map(len, sing_by_chart))), np.inf)
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
        per_row.update(zip(("center", "land", "exit", "transform"),
                           (np.concatenate([x, x]) for x in ball)))
    r = per_row
    anchor = S.copy()   # each row's last scheduled state, indexed like S
    cur = S.copy()      # the active rows' states; S takes a row's when it stops
    for k in range(1, max_steps + 1):
        if active.size == 0:
            break
        qa = r["q"]
        k1 = core.rhs(cur, qa, probe)
        k2 = core.rhs(cur + r["half_h"] * k1, qa, probe)
        k3 = core.rhs(cur + r["half_h"] * k2, qa, probe)
        k4 = core.rhs(cur + r["h"] * k3, qa, probe)
        nxt = cur + r["sixth_h"] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        w, x, p = nxt.T     # views: they see the in-place fixes below

        move = np.abs(nxt - cur)
        # scheduled projection, plus a safety projection wherever the chart
        # variable is moving fast (stiff approach to a vertical direction,
        # where the 50-step cadence provably undershoots)
        stiff = move[:, 2] > r["stiff_move"]
        scheduled = k % project_every == 0
        if scheduled and probe:
            core.project_gradient(nxt, qa)
        elif scheduled or np.count_nonzero(stiff):
            rows = slice(None) if scheduled else stiff
            part = nxt[rows]
            _newton_p(core, part, qa[rows], 0.0)
            nxt[rows] = part
        nonfinite = ~(np.isfinite(w) & np.isfinite(x) & np.isfinite(p))
        wild = (
            nonfinite
            | (np.abs(p) > CHART_BOUND)
            | (move[:, 2] > np.maximum(r["wild_move"],
                                       0.02 * (1.0 + np.abs(cur[:, 2]))))
            | (np.maximum(move[:, 0], move[:, 1]) > r["cap"])
        )
        # a wild row keeps its last accepted sample, re-projected onto M in p
        if np.count_nonzero(wild):
            frozen = cur[wild]
            _newton_p(core, frozen, qa[wild], 0.0)
            nxt[wild] = frozen
        out = np.maximum(np.abs(w), np.abs(x)) > box
        leaving = out & ~wild
        if np.count_nonzero(leaving):
            nxt[leaving] = _clip_box_exits(core, nxt[leaving], cur[leaving],
                                           qa[leaving], box)
        at = k - wild               # a wild row keeps its step count
        if log is not None:
            log.append((active, at, nxt, wild))

        # nonfinite rows are wild, so `stopped` needs only the later tests
        stops = [(nonfinite, TERM_NONFINITE), (wild, TERM_CHART), (out, TERM_BOX)]
        stopped = wild | out
        if sing.size:
            d2 = (w[:, None] ** 2 + x[:, None] ** 2
                  + (p[:, None] - r["sing"]) ** 2)
            stops.append((d2.min(axis=1) < SINGULAR_STOP**2, TERM_SINGULAR))
        if probe:
            dw = w - r["center"][:, 0]
            dp = p - r["center"][:, 1]
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
        for mask, _ in stops[3:]:
            stopped |= mask
        if not np.count_nonzero(stopped):
            cur = nxt
            continue
        named = np.zeros(len(nxt), dtype=bool)
        for mask, term in stops:     # the first test a row meets names its stop
            status[active[mask & ~named]] = term
            named |= mask
        S[active[stopped]] = nxt[stopped]
        steps_used[active[stopped]] = at[stopped]
        going = ~stopped
        active, cur = active[going], nxt[going]
        r = {name: col[active] for name, col in per_row.items()}

    S[active] = cur
    steps_used[active] = max_steps
    status[active] = TERM_CAP
    samples = bounds = None
    if log is not None:
        rows, at, logged, wild = (np.concatenate(col) for col in zip(*log))
        # a curve holds its backward steps, the seed and its forward steps
        bounds = np.concatenate([[0], np.cumsum(steps_used[:n] + 1 + steps_used[n:])])
        where = (bounds[:-1] + steps_used[:n])[rows % n] + np.where(rows < n, -at, at)
        # the seed sample is the backward row's (re-projected if it was wild
        # at once); a wild row's re-projected sample replaces the one before it
        keep = (rows < n) | (at > 0)
        samples = np.empty((bounds[-1], 3))
        for mask in (keep & ~wild, keep & wild):
            samples[where[mask]] = logged[mask]
    return _BatchResult(status, S, steps_used, samples, bounds)


def _clip_box_exits(core: _ChartCore, a, b, q, box):
    """The steps from rows b to rows a, which leave the box, cut at their
    first boundary crossing fraction in [0, 1] (else 1), with the chart
    variable Newton-polished onto {F = 0} for the residual bound."""
    ab, bb = a[:, :2], b[:, :2]
    with np.errstate(divide="ignore", invalid="ignore"):
        spans = (np.copysign(box, ab) - bb) / (ab - bb)
    crossing = (np.abs(ab) > box) & (ab != bb) & (spans >= 0.0) & (spans <= 1.0)
    clipped = b + np.where(crossing, spans, 1.0).min(axis=1)[:, None] * (a - b)
    for _ in range(8):   # a row that stops moving stays put on later passes
        if not _newton_p(core, clipped, q, ftol=1e-15):
            break
    return clipped


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


def _eigenframe(eq, root: float):
    """The exact linearization J at the lifted zero (0, 0, root) and, as
    columns, its unit eigenvectors: the fiber's (0, 1) first, then the
    transverse (J00 - J11, J10), left zero where that vector is."""
    jac = eq.jacobian(root)
    transverse = np.array([jac[0, 0] - jac[1, 1], jac[1, 0]])
    norm = math.hypot(*transverse) or 1.0
    return jac, np.column_stack([(0.0, 1.0), transverse / norm])


def _separatrix_seeds(bde: BdeField, analysis: CubicAnalysis):
    """Four internal rows per saddle: +-SEPARATRIX_OFFSET along each unit
    eigenvector of its linearization, pushed back onto M by one Newton
    solve; the two fiber seeds stay on the fiber."""
    eq = lift(bde, analysis.chart)
    seeds = []
    for data in analysis.per_root:
        if data.lifted_type != SADDLE:
            continue
        # rows +v, -v for each eigenvector v
        offsets = np.kron(_eigenframe(eq, data.root)[1].T,
                          [[SEPARATRIX_OFFSET], [-SEPARATRIX_OFFSET]])
        seeds += _seeds_on_M(eq, data.root, *offsets.T).tolist()
    return seeds


# overflow shows as dropped seeds and TERM_NONFINITE rows, not numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _trace_worklist(bde: BdeField, worklist, config: TraceConfig,
                    singular_by_chart):
    """Integrate (chart, internal state, is_separatrix) seeds both ways in
    one batch, then their chart breakdowns in a second; returns the curves
    and the number of seeds dropped as off M.

    Each round finishes the joined curves `_integrate_batch` returns at
    once: one swap to public coordinates, one residual.  The
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
        run = _integrate_batch(core, states[ok], q[ok], step=config.step,
                               max_steps=config.max_steps, box=config.box,
                               singular=singular_by_chart)
        q_joined = np.repeat(q[ok], np.diff(run.bounds))
        samples = _swap_uv(run.samples, q_joined)
        chord = np.sqrt(np.sum(np.diff(samples, axis=0) ** 2, axis=1))
        peak = np.maximum.reduceat(np.abs(core.residual(run.samples, q_joined)),
                                   run.bounds[:-1])
        for row, (index, (chart, _, is_sep)) in enumerate(entries):
            lo, hi = run.bounds[row], run.bounds[row + 1]
            curves.append(TracedCurve(     # t: chordal arclength, per curve
                samples=samples[lo:hi],
                t=np.concatenate([[0.0], np.cumsum(chord[lo:hi - 1])]),
                chart=chart, termination=run.status[n + row],
                termination_backward=run.status[row], is_separatrix=is_sep,
                max_residual=float(peak[row]), seed_sample=int(run.steps[row]),
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


def trace_portrait(bde: BdeField, config: TraceConfig) -> Portrait:
    """Phase portrait of a BDE.

    Seeds a uniform grid on each box side (one seed per direction branch),
    adds four separatrix seeds per lifted saddle of the chart-q cubic
    analysis (Case 3 only), traces everything in batched RK4, and extracts
    the locus of the full discriminant by marching squares.  Failed seeds
    are dropped and counted in `warnings`.  A discriminant too degenerate
    for the case split leaves `case` None (one warning): tracing and the
    locus do not need it.  A portrait in which no curve took a step (huge
    coefficients) raises OverflowError, as an infinite coefficient does.
    """
    warnings = 0
    analysis = None
    delta, case = discriminant_poly(bde, math.inf), None
    try:
        case = origin_case(bde, delta, bde.coefficient_scale())
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

    singular_by_chart = {}
    if analysis is not None:
        singular_by_chart = {chart: analysis.roots_in(chart) for chart in DUAL}
        worklist += [(analysis.chart, state, True)
                     for state in _separatrix_seeds(bde, analysis)]

    curves, dropped = _trace_worklist(bde, worklist, config, singular_by_chart)
    if curves and all(len(c) == 1 for c in curves):    # no curve took a step
        raise OverflowError("no curve took a step: the lifted field is too large")
    warnings += dropped

    locus = discriminant_locus(delta, config.box)
    return Portrait(curves=curves, discriminant_locus=locus, box=config.box,
                    case=case, analysis=analysis, warnings=warnings)


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
    vals = (power_table(xs, cp.du) @ cp.mats[0]
            @ power_table(xs, cp.dv).T)   # vals[i, j] = delta(xs[i], xs[j])
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


def project_to_surface(jet: EdgeJet, portrait: Portrait) -> list:
    """Map every portrait curve through the parametrization; the singular
    edge curve f(u, 0) is always included, at 301 points."""
    image = surface_map(jet)
    out = [SurfaceCurve(points=image(*curve.projected.T),
                        kind="separatrix" if curve.is_separatrix else "curve")
           for curve in portrait.curves]
    out += [SurfaceCurve(points=image(*line.T), kind="discriminant")
            for line in portrait.discriminant_locus]
    us = np.linspace(-portrait.box, portrait.box, 301)
    out.append(SurfaceCurve(points=image(us, np.zeros_like(us)), kind="edge"))
    return out


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

    # the eigenframe over (graph coordinate, chart variable) and its
    # eigenvalues, fiber first; the unit frame [[0, t0], [1, t1]] has
    # |det| = |t0|
    jac, basis = _eigenframe(eq, root)
    lam, det = np.diag(jac)[::-1], abs(basis[0, 1])
    if lam[0] * lam[1] > 0.0 and 0.0 < det < 1e-2:
        # nearly defective node: its eigencoordinates magnify errors into
        # spurious exits.  Schur vectors, the fiber and (-1, 0) shrunk until
        # the shear |J10| is below the eigenvalues, make the linear flow
        # monotone in the norm.
        shrink = math.sqrt(lam[0] * lam[1]) / abs(jac[1, 0])
        basis = np.array([[0.0, -min(1.0, shrink)], [1.0, 0.0]])
    elif det < 1e-3:    # a saddle's nearly parallel eigenvectors, or no transverse one
        basis = np.eye(2)
    inverse = np.linalg.inv(basis)

    # the probe circle must sit inside the linearization region of the WEAK
    # eigenvalue, past which quadratic terms redirect the slow manifold,
    # and inside the basin boundary set by the nearest other degenerate
    # fiber on the edge
    second_order = max(
        (abs(float(c)) for poly in (bde.A, bde.B, bde.C)
         for (i, j), c in poly.terms.items() if i + j == 2), default=0.0)
    lam_min = float(np.min(np.abs(lam)))
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
    weak_index = int(np.argmin(np.abs(lam)))
    return _ProbeCircle(chart == CHART_Q, root, rho, inverse, weak_index,
                        internal[keep])


def local_sector_counts(bde: BdeField, analysis: CubicAnalysis,
                        indices=None) -> list:
    """Probe the flow near lifted singular points and count local sectors.

    Probes seed on a small circle around (0, 0, p_i) in the eigencoordinates
    of its exact linearization (so anisotropy and shear cause no
    spurious transient exits) and integrate the unit-speed field both ways.
    All probes escaping both ways is the saddle pattern (4 hyperbolic
    sectors); all probes converging in a common time direction is the node
    pattern (2 landing fans).  One SectorCount per root in `indices` (every
    root by default); all their probes and both directions share one batch.
    """
    if indices is None:
        indices = range(len(analysis.roots))
    circles = [_probe_circle(bde, analysis, i) for i in indices]
    probed = [c for c in circles if len(c.internal) >= PROBES_PER_SIDE]
    sizes = [len(c.internal) for c in probed]
    total = sum(sizes)

    def per_seed(values):
        return np.repeat(np.array(values), sizes, axis=0)

    if probed:
        res = _integrate_batch(
            bde.core, np.vstack([c.internal for c in probed]),
            per_seed([c.q for c in probed]),
            step=per_seed([c.rho / 60.0 for c in probed]), max_steps=24000,
            ball=(per_seed([(0.0, c.root) for c in probed]),
                  per_seed([LAND_FRACTION * c.rho for c in probed]),
                  per_seed([EXIT_FRACTION * c.rho for c in probed]),
                  per_seed([c.inverse for c in probed])),
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
        for first in (total + start, start):
            rows = slice(first, first + n)
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
        start += n

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
