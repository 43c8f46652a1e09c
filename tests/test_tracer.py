"""Curve tracing, portraits, sector counts, cusp detection."""

import math

import numpy as np
import pytest

from cusp_oracle import (
    CuspClass,
    FitIllConditioned,
    WindowTooSmall,
    detect_cusp_order,
    edge_crossing_curve,
    surface_image,
)
from edgefol.bde import (BdeField, CHART_P, CHART_Q, Case, cubic_analysis, lift,
                         _ChartCore)
from edgefol.foliations import FoliationKind, build_geometric_bde
from edgefol.jets import EdgeJet, sample_generic_jet
from edgefol.poly import CompiledPolySet, Poly2
from edgefol.render import RenderStyle, portrait_to_svg
from edgefol import tracer
from edgefol.tracer import (
    TERM_CAP,
    SectorCount,
    TraceConfig,
    _eigenframe,
    _integrate_batch,
    _probe_circle,
    _swap_uv,
    _trace_worklist,
    direction_roots,
    discriminant_locus,
    local_sector_count,
    local_sector_counts,
    project_to_surface,
    trace_portrait,
)

U = Poly2.monomial(1, 0)
V = Poly2.monomial(0, 1)
ONE = Poly2.monomial(0, 0, 1.0)

THREE_SADDLES_JET = EdgeJet(0.0, 0.0, 0.0, 0.1, -1.0, 1.0)
ONE_SADDLE_JET = EdgeJet(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)


def _trace_seed(bde, chart, seed, step, max_steps, roots=()):
    """One seed traced both ways through the portrait's worklist path, in
    the box [-0.5, 0.5]^2; returns (curves, warnings), the seed's curve
    followed by its chart-breakdown continuations."""
    return _trace_worklist(
        bde, [(chart, seed, False)],
        TraceConfig(box=0.5, step=step, max_steps=max_steps), {chart: roots})


def test_constant_bde_traces_diagonal_line():
    field = BdeField(ONE, Poly2(), Poly2.monomial(0, 0, -1.0))
    (curve,), _ = _trace_seed(field, CHART_P, (0.0, 0.0, 1.0), 1e-3, 4000)
    assert np.max(np.abs(curve.samples[:, 0] - curve.samples[:, 1])) < 1e-12
    assert np.max(np.abs(curve.samples[:, 2] - 1.0)) < 1e-12
    assert curve.termination == "box_exit"
    assert curve.termination_backward == "box_exit"
    # clipped endpoints land on the box boundary
    assert math.isclose(max(abs(curve.samples[0, 0]), abs(curve.samples[0, 1])),
                        0.5, rel_tol=1e-9)


def test_on_surface_residual_bound():
    jet = sample_generic_jet(12, "edge_degenerate")
    for kind in (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC,
                 FoliationKind.LINES_OF_CURVATURE):
        portrait = trace_portrait(build_geometric_bde(jet, kind),
                                  TraceConfig(max_steps=3000))
        assert portrait.curves
        assert max(c.max_residual for c in portrait.curves) <= 1e-8


def test_seed_off_surface_rejected():
    field = BdeField(ONE, Poly2(), Poly2.monomial(0, 0, -1.0))
    curves, warnings = _trace_seed(field, CHART_P, (0.0, 0.0, 0.5), 1e-3, 100)
    assert warnings == 1
    assert curves == []


def test_termination_at_singular_point():
    # fiber seed between two roots: both directions converge to a zero of
    # the lifted field and stop within the singular radius
    field = build_geometric_bde(THREE_SADDLES_JET, FoliationKind.ASYMPTOTIC)
    analysis = cubic_analysis(lift(field, CHART_Q))
    (curve,), _ = _trace_seed(field, CHART_Q, (0.0, 0.0, 0.0), 1e-3, 40000,
                              analysis.roots)
    assert curve.termination == "singular_point"
    assert curve.termination_backward == "singular_point"
    ends = sorted([curve.samples[0, 2], curve.samples[-1, 2]])
    assert math.isclose(ends[0], analysis.roots[0], abs_tol=2e-5)
    assert math.isclose(ends[1], analysis.roots[1], abs_tol=2e-5)


def test_termination_near_single_saddle_despite_fiber_escape():
    # seeded near the unique zero: the inward direction terminates at it;
    # the outward fiber direction escapes the chart, reported as breakdown;
    # on the fiber it projects to a point, so nothing is continued (one curve)
    field = build_geometric_bde(ONE_SADDLE_JET, FoliationKind.ASYMPTOTIC)
    root = -2.0 ** (-1.0 / 3.0)
    (curve,), _ = _trace_seed(
        field, CHART_Q, (0.0, 0.0, -0.7), 1e-3, 400000, (root,))
    ends = {curve.termination: curve.samples[-1],
            curve.termination_backward: curve.samples[0]}
    assert set(ends) == {"singular_point", "chart_breakdown"}
    assert math.isclose(ends["singular_point"][2], root, abs_tol=2e-5)
    assert np.array_equal(ends["chart_breakdown"][:2], (0.0, 0.0))


def test_chart_breakdown_raises_with_partial():
    # on the exceptional fiber the chart variable escapes to infinity; the
    # broken half is kept, and since the fiber projects to a point nothing
    # is continued in the dual chart (one curve).  The forward half reaches
    # the third saddle root, which is not listed as singular, and stops
    # moving there: it stops as stalled, not at the 200,000-step cap
    field = build_geometric_bde(THREE_SADDLES_JET, FoliationKind.ASYMPTOTIC)
    (curve,), _ = _trace_seed(field, CHART_Q, (0.0, 0.0, 5.0), 1e-2, 200000)
    assert "chart_breakdown" in (curve.termination, curve.termination_backward)
    end = curve.samples[-1] if curve.termination == "chart_breakdown" \
        else curve.samples[0]
    assert np.array_equal(end[:2], (0.0, 0.0))
    assert curve.termination == "stalled"
    assert np.array_equal(curve.samples[curve.seed_sample], (0.0, 0.0, 5.0))


def test_chart_breakdown_continues_in_dual_chart():
    # one boundary curve of this portrait breaks down in its chart; the
    # portrait continues it in the dual chart from the broken half's end
    bde = build_geometric_bde(sample_generic_jet(4, "generic"),
                              FoliationKind.CHARACTERISTIC)
    portrait = trace_portrait(bde, TraceConfig(box=0.15, seeds_per_side=8,
                                               max_steps=120))
    broken = [c for c in portrait.curves if c.seed_index >= 0 and "chart_breakdown"
              in (c.termination, c.termination_backward)]
    continued = [c for c in portrait.curves if c.seed_index == -1]
    assert len(broken) == len(continued) == 1
    (curve,), (more,) = broken, continued
    end = curve.samples[-1] if curve.termination == "chart_breakdown" \
        else curve.samples[0]
    assert more.chart == (CHART_P if curve.chart == CHART_Q else CHART_Q)
    assert np.array_equal(more.samples[more.seed_sample],
                          (end[0], end[1], 1.0 / end[2]))

    # Which half goes on: on M, F_q = 2qF - F_p = -F_p, so in (u, v) the dual
    # chart's field is -(1/p) times the parent chart's, p the parent's chart
    # variable.  A parent half that broke down running in time direction s
    # goes on as the dual half run in direction -s*sign(p); the other half
    # retraces the parent.
    def uv_field(chart, row):
        swap = [1, 0, 2] if chart == CHART_Q else [0, 1, 2]
        xi = bde.core.rhs(row[None, swap], chart == CHART_Q, False)[0]
        return xi[swap][:2]

    k, p = more.seed_sample, end[2]
    ratio = uv_field(more.chart, more.samples[k]) / uv_field(curve.chart, end)
    assert np.max(np.abs(ratio * p + 1.0)) <= 1e-12
    s = 1 if curve.termination == "chart_breakdown" else -1
    last = (end - curve.samples[-2 if s == 1 else 1])[:2]
    for half in (1, -1):
        first = (more.samples[k + half] - more.samples[k])[:2]
        cosine = first @ last / (np.linalg.norm(first) * np.linalg.norm(last))
        if half == -s * np.sign(p):
            assert cosine >= 0.999
        else:
            assert cosine <= -0.999


def test_overflowing_rows_stop_non_finite_and_are_not_continued():
    # coefficients near 1e150: the field is finite at the seed, but the
    # first RK4 step overflows, in both time directions
    field = build_geometric_bde(EdgeJet(0.0, 0.0, 0.0, 0.1, 1e150, 1.0),
                                FoliationKind.ASYMPTOTIC)
    ((chart, value), *_) = direction_roots(field, 0.5, 0.2)
    seed = (0.5, 0.2, value) if chart == CHART_P else (0.2, 0.5, value)
    (curve,), warnings = _trace_seed(field, chart, seed, 1e-3, 100)
    assert (curve.termination, curve.termination_backward, len(curve)) \
        == ("non_finite", "non_finite", 1)
    assert warnings == 0


def test_step_halving_convergence():
    field = BdeField(ONE, Poly2.monomial(1, 0, 0.3),
                     Poly2.monomial(0, 0, -1.0) + Poly2.monomial(0, 1, 0.4))
    (coarse,), _ = _trace_seed(field, CHART_P, (0.0, 0.0, 1.0), 1e-3, 8000)
    (fine,), _ = _trace_seed(field, CHART_P, (0.0, 0.0, 1.0), 5e-4, 16000)
    assert np.max(np.abs(coarse.samples[-1] - fine.samples[-1])) <= 1e-6
    assert np.max(np.abs(coarse.samples[0] - fine.samples[0])) <= 1e-6


def test_direction_roots_cover_both_branches():
    field = BdeField(ONE, Poly2(), Poly2.monomial(0, 0, -1.0))
    seeds = direction_roots(field, 0.1, 0.2)
    assert len(seeds) == 2
    values = sorted(v for _, v in seeds)
    assert np.allclose(values, [-1.0, 1.0])
    # no real direction, and a zero tensor (every direction solves it)
    for field in (BdeField(ONE, Poly2(), ONE), BdeField(Poly2(), Poly2(), Poly2())):
        assert direction_roots(field, 0.0, 0.0) == []
    # every direction on the side grids of the geometric BDEs lies in the
    # unit interval of its chart: trace_portrait seeds them unfiltered
    for config in (TraceConfig(), TraceConfig(box=0.15, seeds_per_side=8)):
        b, n = config.box, config.seeds_per_side
        offsets = -b + 2.0 * b * (np.arange(n) + 0.5) / n
        sides = [(t, s) for t in offsets for s in (-b, b)] \
            + [(s, t) for t in offsets for s in (-b, b)]
        for seed in range(100):
            for scenario in ("generic", "edge_degenerate"):
                for kind in FoliationKind:
                    field = build_geometric_bde(
                        sample_generic_jet(seed, scenario), kind)
                    values = [x for u, v in sides for _, x in
                              direction_roots(field, float(u), float(v))]
                    assert all(math.isfinite(x) and abs(x) <= 1.0
                               for x in values), (seed, kind)


def test_portrait_three_saddles_structure():
    portrait = trace_portrait(
        build_geometric_bde(THREE_SADDLES_JET, FoliationKind.ASYMPTOTIC),
        TraceConfig(max_steps=4000))
    assert portrait.case is Case.CASE3
    assert len(portrait.singular_points) == 3
    assert all(t == "saddle" for _, t in portrait.singular_points)
    assert len(portrait.separatrices) == 12
    assert portrait.discriminant_locus


def test_portrait_cusp_family_structure():
    portrait = trace_portrait(BdeField(ONE, Poly2(), U),
                              TraceConfig(max_steps=2500))
    assert portrait.case is Case.CASE2_TRANSVERSE
    assert portrait.singular_points == ()
    assert portrait.separatrices == []
    assert portrait.curves
    # discriminant locus is the line u = 0
    for line in portrait.discriminant_locus:
        assert np.max(np.abs(line[:, 0])) < 1e-9


def test_portrait_regular_pair_empty_locus():
    portrait = trace_portrait(BdeField(ONE, Poly2(), Poly2.monomial(0, 0, -1.0)),
                              TraceConfig(max_steps=2500, seeds_per_side=8))
    assert portrait.case is Case.CASE1_REGULAR
    assert portrait.discriminant_locus == []
    assert portrait.curves


def _matches(curve, other, image):
    """`other` is `curve` mirrored (`image` its mirrored samples), forward or
    reversed in time: the same chart, separatrix flag, length and pair of
    terminations, and samples within 1e-12."""
    return (other.chart == curve.chart
            and other.is_separatrix == curve.is_separatrix
            and len(other) == len(curve)
            and sorted((other.termination, other.termination_backward))
            == sorted((curve.termination, curve.termination_backward))
            and any(np.allclose(s, image, rtol=0.0, atol=1e-12)
                    for s in (other.samples, other.samples[::-1])))


def test_mirrored_jet_traces_the_mirror_image():
    """The jet reflected by u -> -u (a30, b30 and b12 negated) has the
    mirrored portrait: every curve is a curve of the other portrait under
    (u, v, p) -> (-u, v, -p), in either chart."""
    config = TraceConfig(box=0.15, seeds_per_side=8, max_steps=120)
    jets = (THREE_SADDLES_JET, sample_generic_jet(0, "generic"),
            sample_generic_jet(0, "edge_degenerate"))
    for jet in jets:
        mirror = EdgeJet(jet.a20, -jet.a30, jet.b20, -jet.b30, -jet.b12, jet.b03)
        for kind in FoliationKind:
            want, got = (trace_portrait(build_geometric_bde(j, kind), config)
                         for j in (jet, mirror))
            assert len(got.curves) == len(want.curves)
            unmatched = list(got.curves)
            for curve in want.curves:
                image = curve.samples * (-1.0, 1.0, -1.0)
                index = next((i for i, other in enumerate(unmatched)
                              if _matches(curve, other, image)), None)
                assert index is not None, (jet, kind)
                del unmatched[index]


DEGENERATE_DISCRIMINANT_JET = EdgeJet(
    1.8326254198917673, -1.1288815147959674, 0.00016399349644413697,
    0.8770688933117707, -1.9014670044780781, 0.14352657812054792)


def test_portrait_of_degenerate_discriminant_has_unknown_case():
    # delta and its differential vanish at the origin: no case split, but
    # the curves and the locus are still traced
    bde = build_geometric_bde(DEGENERATE_DISCRIMINANT_JET,
                              FoliationKind.CHARACTERISTIC)
    portrait = trace_portrait(bde, TraceConfig(box=0.15, seeds_per_side=24,
                                               max_steps=120))
    assert portrait.case is None
    assert portrait.analysis is None
    assert portrait.warnings >= 1
    assert portrait.curves
    assert portrait.discriminant_locus
    svg = portrait_to_svg(portrait, RenderStyle(), top_class="Degenerate")
    assert "<!-- top_class: Degenerate | case: unknown -->" in svg


def _locus_reference(delta, box, grid=512):
    """The per-cell marching squares and per-endpoint chaining loop that
    discriminant_locus must reproduce bit for bit."""
    xs = np.linspace(-box, box, grid)
    cp = CompiledPolySet([delta])
    vals = (np.vander(xs, cp.du + 1, increasing=True) @ cp.mats[0]
            @ np.vander(xs, cp.dv + 1, increasing=True).T)
    pos = vals > 0.0

    def interp(x0, y0, f0, x1, y1, f1):
        s = f0 / (f0 - f1)
        return (x0 + s * (x1 - x0), y0 + s * (y1 - y0))

    segments = []
    mixed = np.nonzero(
        (pos[:-1, :-1] != pos[1:, :-1]) | (pos[:-1, :-1] != pos[:-1, 1:])
        | (pos[:-1, :-1] != pos[1:, 1:]))
    for i, j in zip(*mixed):
        x0, x1, y0, y1 = xs[i], xs[i + 1], xs[j], xs[j + 1]
        f00, f10 = vals[i, j], vals[i + 1, j]
        f01, f11 = vals[i, j + 1], vals[i + 1, j + 1]
        crossings = []
        if (f00 > 0) != (f10 > 0):
            crossings.append(interp(x0, y0, f00, x1, y0, f10))
        if (f10 > 0) != (f11 > 0):
            crossings.append(interp(x1, y0, f10, x1, y1, f11))
        if (f01 > 0) != (f11 > 0):
            crossings.append(interp(x0, y1, f01, x1, y1, f11))
        if (f00 > 0) != (f01 > 0):
            crossings.append(interp(x0, y0, f00, x0, y1, f01))
        for k in range(0, len(crossings), 2):
            segments.append((crossings[k], crossings[k + 1]))

    tol = (xs[1] - xs[0]) * 1e-6

    def key(pt):
        return (round(pt[0] / tol), round(pt[1] / tol))

    adjacency = {}
    for idx, (p0, p1) in enumerate(segments):
        adjacency.setdefault(key(p0), []).append((idx, 0))
        adjacency.setdefault(key(p1), []).append((idx, 1))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = [segments[start][0], segments[start][1]]
        for endwise in (1, 0):
            while True:
                tail = chain[-1] if endwise else chain[0]
                hits = [(idx, end) for idx, end in adjacency.get(key(tail), [])
                        if not used[idx]]
                if not hits:
                    break
                idx, end = hits[0]
                used[idx] = True
                nxt = segments[idx][1 - end]
                if endwise:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(np.array(chain))
    return polylines, segments


@pytest.mark.parametrize("name", ["saddle", "circle", "empty"])
def test_discriminant_locus_matches_loop_reference_bitwise(name):
    delta = {
        "saddle": U * V,
        "circle": U * U + V * V + Poly2.monomial(0, 0, -0.09),
        "empty": U * U + V * V + ONE,
    }[name]
    box = 0.5
    expected, segments = _locus_reference(delta, box)
    got = discriminant_locus(delta, box)
    assert len(got) == len(expected)
    for line, ref in zip(got, expected):
        assert line.dtype == ref.dtype and line.shape == ref.shape
        assert line.tobytes() == ref.tobytes()
    if name == "saddle":
        # 510 cells on each axis give one segment; the centre cell holds the
        # origin, crosses on all four edges and gives two
        assert len(segments) == 2 * 510 + 2
    elif name == "circle":
        assert len(got) == 1
        assert np.array_equal(got[0][0], got[0][-1])     # closed
    else:
        assert got == []


def test_sector_counts_match_types_on_worked_jets():
    for jet in (THREE_SADDLES_JET, ONE_SADDLE_JET):
        for kind in (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC):
            field = build_geometric_bde(jet, kind)
            analysis = cubic_analysis(lift(field, CHART_Q))
            counts = local_sector_counts(field, analysis)
            for i, (count, data) in enumerate(zip(counts, analysis.per_root)):
                assert count.pattern == data.lifted_type, (jet, kind, i)


def test_eigenframe_columns_are_unit_eigenvectors_fiber_first():
    """Every root of the first 20 sampled jets, both Type-2 kinds, in both
    charts: the fiber's (0, 1) with eigenvalue J11 = -phi', then the
    transverse eigenvector with eigenvalue J00 = alpha, each of unit norm."""
    for seed in range(20):
        jet = sample_generic_jet(seed, "edge_degenerate")
        for kind in (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC):
            field = build_geometric_bde(jet, kind)
            analysis = cubic_analysis(lift(field, CHART_Q))
            for chart in (CHART_P, CHART_Q):
                eq = lift(field, chart)
                for root in analysis.roots_in(chart):
                    jac, basis = _eigenframe(eq, root)
                    assert basis[:, 0].tolist() == [0.0, 1.0]
                    assert np.allclose(np.hypot(*basis), 1.0, rtol=0, atol=1e-15)
                    for vec, lam in zip(basis.T, (jac[1, 1], jac[0, 0])):
                        assert np.allclose(jac @ vec, lam * vec, rtol=0,
                                           atol=1e-12 * np.max(np.abs(jac)))


def test_mixed_batch_rows_match_one_row_batches(monkeypatch):
    """Seeds of one batch (both charts, each with its own probe ball and its
    chart's singular set) follow, both ways, exactly the trajectories they
    follow alone."""
    field = build_geometric_bde(THREE_SADDLES_JET, FoliationKind.ASYMPTOTIC)
    analysis = cubic_analysis(lift(field, CHART_Q))
    core = field.core
    circles = [_probe_circle(field, analysis, i)
               for i in range(len(analysis.roots))]
    assert {c.q for c in circles} == {True, False}
    # (state, chart q, step, ball center, land, exit, transform): probes of
    # every saddle, plus a fiber seed that runs into the singular points
    seeds = [(c.internal[k], c.q, c.rho / 60.0, (0.0, c.root),
              0.05 * c.rho, 3.0 * c.rho, c.inverse)
             for c in circles for k in (0, 5, 11)]
    seeds += [((0.0, 0.0, 0.0), True, 1e-3, (0.0, 0.0), 0.0, 1e9, np.eye(2))]
    states, q, step, *ball = (np.array(col) for col in zip(*seeds))
    monkeypatch.setattr(tracer, "SINGULAR_STOP", 2e-3)
    options = dict(max_steps=3000,
                   singular={CHART_Q: analysis.roots,
                             CHART_P: [1.0 / r for r in analysis.roots]})
    mixed = _integrate_batch(core, states, q, step=step, ball=tuple(ball),
                             **options)
    assert set(mixed.status) == {"exited", "singular_point", "step_cap"}
    n = len(seeds)
    for i in range(n):
        one = _integrate_batch(core, states[i:i + 1], q[i:i + 1],
                               step=step[i:i + 1],
                               ball=tuple(x[i:i + 1] for x in ball), **options)
        halves = [i, n + i]      # backward, forward
        assert list(mixed.status[halves]) == list(one.status)
        assert list(mixed.steps[halves]) == list(one.steps)
        assert mixed.final[halves].tobytes() == one.final.tobytes()


def test_recorded_batch_rows_match_one_row_batches():
    """Recorded seeds of one batch (both charts) keep, both ways, exactly
    the curve, statuses and step counts they get alone, whether a half
    exits the box, hits the step cap or breaks down at a vertical
    direction.  At 600 steps 9 of the 64 halves break down, and for 4 of
    them the re-projection moves the last sample."""
    field = build_geometric_bde(sample_generic_jet(4, "generic"),
                                FoliationKind.CHARACTERISTIC)
    config = TraceConfig(box=0.15, seeds_per_side=8, max_steps=600)
    seeds = [c for c in trace_portrait(field, config).curves if c.seed_index >= 0]
    q = np.array([c.chart == CHART_Q for c in seeds])
    states = _swap_uv(np.array([c.samples[c.seed_sample] for c in seeds]), q)
    options = dict(step=config.step, max_steps=config.max_steps, box=config.box)
    mixed = _integrate_batch(field.core, states, q, **options)
    assert set(q) == {True, False}
    assert set(mixed.status) == {"box_exit", "step_cap", "chart_breakdown"}
    n = len(seeds)
    sizes = mixed.steps[:n] + 1 + mixed.steps[n:]
    ends = np.cumsum(sizes)
    assert mixed.bounds.tolist() == [0, *ends.tolist()]
    for i in range(n):
        one = _integrate_batch(field.core, states[i:i + 1], q[i:i + 1], **options)
        halves = [i, n + i]      # backward, forward
        assert list(mixed.status[halves]) == list(one.status)
        assert list(mixed.steps[halves]) == list(one.steps)
        curve, alone = mixed.samples[ends[i] - sizes[i]:ends[i]], one.samples
        assert curve.shape == alone.shape == (sizes[i], 3)
        assert curve.tobytes() == alone.tobytes()
        # a curve runs from the backward half's final state (for a broken
        # half, its re-projected last sample) through the seed to the
        # forward half's
        assert curve[mixed.steps[i]].tobytes() == states[i].tobytes()
        assert curve[[0, -1]].tobytes() == mixed.final[halves].tobytes()


def test_rhs_runs_four_times_per_step(monkeypatch):
    """The loop evaluates the field four times per RK4 step, and only
    there: over one recorded portrait batch and one probe batch, each with
    rows of both charts, `rhs` runs four times the loop's iterations, the
    largest step count of the batch."""
    field = build_geometric_bde(sample_generic_jet(4, "generic"),
                                FoliationKind.CHARACTERISTIC)
    config = TraceConfig(box=0.15, seeds_per_side=8, max_steps=600)
    seeds = [c for c in trace_portrait(field, config).curves if c.seed_index >= 0]
    q = np.array([c.chart == CHART_Q for c in seeds])
    states = _swap_uv(np.array([c.samples[c.seed_sample] for c in seeds]), q)
    saddles = build_geometric_bde(THREE_SADDLES_JET, FoliationKind.ASYMPTOTIC)
    analysis = cubic_analysis(lift(saddles, CHART_Q))
    assert {_probe_circle(saddles, analysis, i).q
            for i in range(len(analysis.roots))} == {True, False}

    calls, runs = [0], []
    rhs, batch = _ChartCore.rhs, tracer._integrate_batch

    def counted_rhs(self, S, q, normalize):
        calls[0] += 1
        return rhs(self, S, q, normalize)

    def recorded_batch(*args, **kwargs):
        before = calls[0]
        run = batch(*args, **kwargs)
        runs.append((calls[0] - before, run))
        return run

    monkeypatch.setattr(_ChartCore, "rhs", counted_rhs)
    monkeypatch.setattr(tracer, "_integrate_batch", recorded_batch)
    tracer._integrate_batch(field.core, states, q, step=config.step,
                            max_steps=config.max_steps, box=config.box)
    local_sector_counts(saddles, analysis)
    assert len(runs) == 2 and set(q) == {True, False}
    for rhs_calls, run in runs:
        assert rhs_calls == 4 * run.steps.max() > 0


def test_seed_sample_is_the_backward_halfs():
    """A half rejected as wild at its first step logs its seed re-projected
    onto M; the joined curve's seed sample is the backward half's entry,
    here the seed itself, never the forward half's re-projection."""
    field = BdeField(Poly2(), Poly2.monomial(0, 0, 0.5),
                     Poly2.monomial(0, 0, -1000.0) + Poly2.monomial(1, 0, -10.0))
    seed = (-4e-6, 0.0, 999.999961)
    (curve, *_), _ = _trace_worklist(
        field, [(CHART_P, seed, False)],
        TraceConfig(box=0.5, step=1e-5, max_steps=50), {})
    assert (curve.termination_backward, curve.termination) \
        == ("step_cap", "chart_breakdown")
    assert curve.seed_sample == len(curve) - 1 == 50   # no forward step taken
    assert curve.samples[curve.seed_sample].tobytes() == np.array(seed).tobytes()


def _curve_bytes(curve):
    return (curve.samples.tobytes(), curve.t.tobytes(), curve.chart,
            curve.termination, curve.termination_backward, curve.is_separatrix,
            curve.max_residual, curve.seed_sample)


@pytest.mark.parametrize("jet, kind, config", [
    (sample_generic_jet(4, "generic"), FoliationKind.CHARACTERISTIC,
     TraceConfig(box=0.15, seeds_per_side=8, max_steps=120)),
    (sample_generic_jet(1, "edge_degenerate"), FoliationKind.ASYMPTOTIC,
     TraceConfig(box=0.1, step=1e-2, seeds_per_side=3, max_steps=600)),
])
def test_portrait_curves_match_lone_seed_traces(jet, kind, config):
    """Every curve of a portrait is, bit for bit, the curve its seed gives
    when traced alone: a round's box clips, joins, swaps and residuals are
    made for all its rows at once without mixing them.  Both portraits have
    box exits, step caps and chart breakdowns, whose continuations are the
    lone traces' later curves.  In the second, separatrix and continuation
    seeds start inside the box, so their lone traces clip without the
    boundary seeds' box exits, whose clipped samples need no Newton pass."""
    field = build_geometric_bde(jet, kind)
    portrait = trace_portrait(field, config)
    singular = {} if portrait.analysis is None else {
        chart: portrait.analysis.roots_in(chart) for chart in (CHART_P, CHART_Q)}
    # the portrait's order: chart-p seeds first, each in worklist order
    seeds = sorted((c for c in portrait.curves if c.seed_index >= 0),
                   key=lambda c: c.chart)
    continued = [c for c in portrait.curves if c.seed_index == -1]
    assert {t for c in seeds for t in (c.termination, c.termination_backward)} \
        >= {"box_exit", "step_cap", "chart_breakdown"}
    assert continued
    lone_continuations = []
    for curve in seeds:
        seed = _swap_uv(curve.samples[[curve.seed_sample]], curve.chart == CHART_Q)[0]
        (alone, *more), _ = _trace_worklist(
            field, [(curve.chart, tuple(seed), curve.is_separatrix)], config,
            singular)
        assert _curve_bytes(alone) == _curve_bytes(curve)
        lone_continuations += more
    assert [_curve_bytes(c) for c in lone_continuations] \
        == [_curve_bytes(c) for c in continued]


def test_batched_sector_counts_equal_single_root_counts():
    jets = [THREE_SADDLES_JET] + [sample_generic_jet(seed, "edge_degenerate")
                                  for seed in range(20)]
    for jet in jets:
        field = build_geometric_bde(jet, FoliationKind.ASYMPTOTIC)
        analysis = cubic_analysis(lift(field, CHART_Q))
        single = [local_sector_count(field, analysis, i)
                  for i in range(len(analysis.roots))]
        assert local_sector_counts(field, analysis) == single


def test_sector_counts_nearly_defective_node():
    # the node's eigenvectors are almost parallel (|det| of the normalized
    # eigenbasis 1.04e-3), so eigencoordinates turned two probes into exits
    jet = EdgeJet(1.2898415012961335, -1.844196083413999, 0.0,
                  0.6747014326340315, 0.4152125286841195, -1.2496927738898154)
    field = build_geometric_bde(jet, FoliationKind.ASYMPTOTIC)
    analysis = cubic_analysis(lift(field, CHART_Q))
    assert [r.lifted_type for r in analysis.per_root] == ["node", "saddle", "saddle"]
    counts = local_sector_counts(field, analysis)
    assert [c.pattern for c in counts] == ["node", "saddle", "saddle"]


def test_step_capped_probes_are_classified_by_their_weak_coordinate(monkeypatch):
    # the one Type-2 root of sample_generic_jet(200..1199, "edge_degenerate")
    # whose probes hit the 24,000-step cap: 2 of its 32 probe rows creep
    # along the weak manifold.  Without the capped-probe rule the count
    # reads ambiguous, exits_both 14.
    jet = sample_generic_jet(1076, "edge_degenerate")
    field = build_geometric_bde(jet, FoliationKind.CHARACTERISTIC)
    analysis = cubic_analysis(lift(field, CHART_Q))
    assert [round(r, 3) for r in analysis.roots] == [1655.316]
    assert [r.lifted_type for r in analysis.per_root] == ["saddle"]
    results = []

    def recording(*args, **kwargs):
        results.append(_integrate_batch(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tracer, "_integrate_batch", recording)
    assert local_sector_counts(field, analysis) \
        == [SectorCount("saddle", 0, 0, 16, 16)]
    assert int(np.sum(results[0].status == TERM_CAP)) == 2


def test_sector_counts_find_nodes():
    """Hunt a jet with a node among the sampled ones and check its fans."""
    found = False
    for seed in range(60):
        jet = sample_generic_jet(seed, "edge_degenerate")
        field = build_geometric_bde(jet, FoliationKind.CHARACTERISTIC)
        analysis = cubic_analysis(lift(field, CHART_Q))
        for i, data in enumerate(analysis.per_root):
            if data.lifted_type == "node":
                count = local_sector_count(field, analysis, i)
                assert count.pattern == "node"
                found = True
                break
        if found:
            break
    assert found


# --- projection ---

def test_projection_first_coordinate_is_u():
    portrait = trace_portrait(
        build_geometric_bde(THREE_SADDLES_JET, FoliationKind.ASYMPTOTIC),
        TraceConfig(max_steps=1500, seeds_per_side=6))
    curves3d = project_to_surface(THREE_SADDLES_JET, portrait)
    domains = [c.projected for c in portrait.curves] + portrait.discriminant_locus
    assert len(curves3d) == len(domains) + 1     # the edge curve comes last
    for domain, sc in zip(domains, curves3d):
        assert np.allclose(sc.points[:, 0], domain[:, 0], atol=1e-12)


def test_projection_edge_curve_of_minimal_jet_is_axis():
    jet = EdgeJet(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    portrait = trace_portrait(
        build_geometric_bde(jet, FoliationKind.LINES_OF_CURVATURE),
        TraceConfig(max_steps=600, seeds_per_side=4))
    curves3d = project_to_surface(jet, portrait)
    edge = [sc for sc in curves3d if sc.kind == "edge"]
    assert len(edge) == 1
    pts = edge[0].points
    assert np.allclose(pts[:, 1], 0.0) and np.allclose(pts[:, 2], 0.0)
    assert np.allclose(pts[:, 0], np.linspace(-portrait.box, portrait.box, 301))


# --- cusp detection ---

def _curve(fn, n=121, half=0.02):
    t = np.linspace(-half, half, n)
    return np.stack([np.asarray(c, dtype=float) for c in fn(t)], axis=1), t


def test_detect_cusp_34():
    pts, t = _curve(lambda t: (t**3, t**4, 0 * t))
    assert detect_cusp_order(pts, t, 0.0) is CuspClass.CUSP_34


def test_detect_cusp_23():
    pts, t = _curve(lambda t: (t**2, t**3))
    assert detect_cusp_order(pts, t, 0.0) is CuspClass.CUSP_23


def test_detect_cusp_345():
    pts, t = _curve(lambda t: (t**3, t**4, t**5), half=0.05)
    assert detect_cusp_order(pts, t, 0.0) is CuspClass.CUSP_345


def test_detect_regular_point():
    pts, t = _curve(lambda t: (t, 2 * t, 0 * t))
    assert detect_cusp_order(pts, t, 0.0) is CuspClass.NO_CUSP


def test_detect_window_too_small():
    pts, t = _curve(lambda t: (t**2, t**3), n=30)
    with pytest.raises(WindowTooSmall):
        detect_cusp_order(pts, t, 0.0)


def test_composition_through_null_cusp_is_34():
    """f composed with an ordinary cusp whose second derivative spans the
    null direction is a (3,4)-cusp on the image."""
    jet = EdgeJet(0.7, -0.4, 0.9, 1.2, 0.3, 1.4)
    t = np.linspace(-0.06, 0.06, 201)
    image = surface_image(jet, t**3, t**2)
    assert detect_cusp_order(image, t, 0.0) is CuspClass.CUSP_34


def test_lc_curves_cross_edge_as_23_cusps_on_image():
    jet = sample_generic_jet(4, "generic")
    curve = edge_crossing_curve(jet, FoliationKind.LINES_OF_CURVATURE, 3000)
    # the domain curve crosses v = 0 transversally
    assert curve.samples[:, 1].min() < 0 < curve.samples[:, 1].max()
    image = surface_image(jet, *curve.projected.T)
    got = detect_cusp_order(image, t0=float(curve.seed_sample), window=60)
    assert got is CuspClass.CUSP_23


def test_asymptotic_cusps_on_edge_are_34_on_image():
    jet = sample_generic_jet(4, "generic")     # b20 > 0.1 for this seed
    assert jet.b20 > 0.1
    for kind in (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC):
        curve = edge_crossing_curve(jet, kind, 3000)
        image = surface_image(jet, *curve.projected.T)
        got = detect_cusp_order(image, t0=float(curve.seed_sample), window=60)
        assert got is CuspClass.CUSP_34
        # while the domain projection shows the ordinary cusp of a fold
        domain = detect_cusp_order(curve.projected, t0=float(curve.seed_sample),
                                   window=60)
        assert domain is CuspClass.CUSP_23


def test_detect_cusp_ill_conditioned_window():
    # two clumps of duplicated parameters: enough samples each side but a
    # rank-deficient Vandermonde
    t = np.concatenate([np.full(30, -1e-6), np.full(30, 1e-6)])
    pts = np.zeros((60, 2))
    with pytest.raises(FitIllConditioned):
        detect_cusp_order(pts, t, 0.0)
