"""SVG rendering: well-formedness, counts, determinism, camera math."""

import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from edgefol import render
from edgefol.errors import EmptyPortrait
from edgefol.foliations import FoliationKind, build_geometric_bde
from edgefol.geometry import surface_polynomials
from edgefol.jets import EdgeJet, sample_generic_jet
from edgefol.poly import CompiledPolySet, Poly2
from edgefol.bde import (CHART_P, CHART_Q, BdeField, CubicAnalysis, RootData,
                         cubic_analysis, lift)
from edgefol.render import (
    RenderStyle,
    curves_to_csv,
    portrait_to_svg,
    surface_view_to_svg,
)
from edgefol.tracer import (
    Portrait,
    SurfaceCurve,
    TraceConfig,
    TracedCurve,
    project_to_surface,
    trace_portrait,
)

NS = "{http://www.w3.org/2000/svg}"
THREE_SADDLES_JET = EdgeJet(0.0, 0.0, 0.0, 0.1, -1.0, 1.0)
STYLE = RenderStyle()     # the default camera


@pytest.fixture(scope="module")
def three_saddles_portrait():
    return trace_portrait(
        build_geometric_bde(THREE_SADDLES_JET, FoliationKind.ASYMPTOTIC),
        TraceConfig(max_steps=2500))


@pytest.fixture(scope="module")
def regular_portrait():
    return trace_portrait(BdeField(Poly2.monomial(0, 0, 1.0), Poly2(),
                                   Poly2.monomial(0, 0, -1.0)),
                          TraceConfig(max_steps=1500, seeds_per_side=8))


def test_three_saddles_svg_counts(three_saddles_portrait):
    svg = portrait_to_svg(three_saddles_portrait, STYLE, top_class="ThreeSaddles")
    root = ET.fromstring(svg)          # well-formed XML
    polylines = root.findall(f"{NS}polyline")
    dashed = [p for p in polylines if p.get("stroke-dasharray")]
    markers = root.findall(f"{NS}circle")
    assert len(markers) == 3
    assert len(dashed) == 12
    n_curves = len(three_saddles_portrait.curves)
    n_locus = len(three_saddles_portrait.discriminant_locus)
    assert len(polylines) == n_curves + n_locus
    assert "ThreeSaddles" in svg


def test_regular_pair_svg_has_no_markers(regular_portrait):
    svg = portrait_to_svg(regular_portrait, STYLE, top_class="RegularPair")
    root = ET.fromstring(svg)
    assert root.findall(f"{NS}circle") == []
    assert [p for p in root.findall(f"{NS}polyline")
            if p.get("stroke-dasharray")] == []


def test_svg_rendering_deterministic(three_saddles_portrait):
    style = RenderStyle()
    a = portrait_to_svg(three_saddles_portrait, style, top_class="ThreeSaddles")
    b = portrait_to_svg(three_saddles_portrait, style, top_class="ThreeSaddles")
    assert a.encode() == b.encode()


def test_viewbox_spans_trace_box(three_saddles_portrait):
    svg = portrait_to_svg(three_saddles_portrait, STYLE, None)
    root = ET.fromstring(svg)
    box = three_saddles_portrait.box
    assert root.get("viewBox") == f"-{box:g} -{box:g} {2 * box:g} {2 * box:g}"


def test_empty_portrait_rejected():
    from edgefol.bde import Case
    empty = Portrait(curves=[], discriminant_locus=[], box=0.5,
                     case=Case.CASE1_REGULAR, analysis=None, warnings=0)
    with pytest.raises(EmptyPortrait):
        portrait_to_svg(empty, STYLE, None)


def test_camera_along_z_projects_to_xy():
    style = RenderStyle(camera_direction=(0.0, 0.0, 1.0),
                        camera_up=(0.0, 1.0, 0.0))
    right, up, forward = style.camera_frame()
    assert np.allclose(right, (1.0, 0.0, 0.0))
    assert np.allclose(up, (0.0, 1.0, 0.0))
    pts = np.array([[0.2, -0.3, 0.7], [1.0, 2.0, 3.0]])
    assert np.allclose(pts @ right, pts[:, 0])
    assert np.allclose(pts @ up, pts[:, 1])


def test_rotated_camera_is_exact_linear_map():
    d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    style = RenderStyle(camera_direction=tuple(d), camera_up=(0.0, 0.0, 1.0))
    right, up, forward = style.camera_frame()
    frame = np.stack([right, up, forward])
    assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3))
    proj = np.stack([pts @ right, pts @ up], axis=1)
    assert np.allclose(proj, pts @ frame[:2].T)


def test_degenerate_camera_rejected():
    style = RenderStyle(camera_direction=(0.0, 0.0, 1.0),
                        camera_up=(0.0, 0.0, -2.0))
    with pytest.raises(ValueError):
        style.camera_frame()


def test_style_sets_only_the_camera():
    style = RenderStyle(camera_direction=(1.0, 0.0, 0.0))
    assert style.camera_direction == (1.0, 0.0, 0.0)
    assert style.size_px == RenderStyle.size_px == 640
    with pytest.raises(TypeError):
        RenderStyle(curve_width=1.0)


def test_surface_view_renders_and_emphasizes_edge(three_saddles_portrait):
    curves3d = project_to_surface(THREE_SADDLES_JET, three_saddles_portrait)
    svg = surface_view_to_svg(curves3d, STYLE)
    root = ET.fromstring(svg)
    kinds = {p.get("class") for p in root.findall(f"{NS}polyline")}
    assert {"curve", "separatrix", "edge"} <= kinds
    assert svg == surface_view_to_svg(curves3d, STYLE)


def test_surface_view_depth_sorting():
    near = SurfaceCurve(points=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]),
                        kind="curve")
    far = SurfaceCurve(points=np.array([[0.0, 0.0, -1.0], [1.0, 0.0, -1.0]]),
                       kind="edge")
    style = RenderStyle(camera_direction=(0.0, 0.0, 1.0),
                        camera_up=(0.0, 1.0, 0.0))
    svg = surface_view_to_svg([near, far], style)
    # painter's order: smaller depth first, so the far curve is drawn first
    assert svg.index('class="edge"') < svg.index('class="curve"')


def test_curves_to_csv_layout(three_saddles_portrait):
    csv = curves_to_csv(three_saddles_portrait, THREE_SADDLES_JET)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,u,v,p,x,y,z,curve_id,separatrix"
    total = sum(len(c) for c in three_saddles_portrait.curves)
    assert len(lines) == total + 1
    first = lines[1].split(",")
    assert len(first) == 9
    # x column equals u column for the normal form
    assert abs(float(first[1]) - float(first[4])) < 1e-12
    assert {line.split(",")[-1] for line in lines[1:]} == {"0", "1"}


# --- array formatting against the per-value formatters it replaced ---

def _fmt_reference(x):
    return "0" if x == 0 else f"{x:.6g}"


def _polyline_reference(points_xy, *, cls, color, width):
    pts = " ".join(f"{_fmt_reference(x)},{_fmt_reference(-y)}"
                   for x, y in render._thin(np.asarray(points_xy)))
    dash = ' stroke-dasharray="6 4"' if cls == "separatrix" else ""
    return (f'<polyline class="{cls}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt_reference(width)}"{dash} points="{pts}" />')


def _csv_reference(portrait, jet=None):
    image = None
    if jet is not None:
        image = CompiledPolySet(list(surface_polynomials(jet)))
    lines = ["t,u,v,p,x,y,z,curve_id,separatrix"]
    for cid, curve in enumerate(portrait.curves):
        uvp = curve.samples
        if image is not None:
            xyz = np.stack(image.values(uvp[:, 0], uvp[:, 1]), axis=1)
        else:
            xyz = np.full((len(uvp), 3), np.nan)
        flag = 1 if curve.is_separatrix else 0
        for k in range(len(uvp)):
            lines.append(
                f"{curve.t[k]:.9g},{uvp[k, 0]:.9g},{uvp[k, 1]:.9g},"
                f"{uvp[k, 2]:.9g},{xyz[k, 0]:.9g},{xyz[k, 1]:.9g},"
                f"{xyz[k, 2]:.9g},{cid},{flag}"
            )
    return "\n".join(lines) + "\n"


def _edge_value_portrait():
    special = np.array([
        [0.0, -0.0, 1e-300],
        [-0.0, 0.0, -1e17],
        [1e-300, -1e-300, 0.0],
        [-1e17, 0.25, -0.0],
        [0.1234567891234, -2.5e-7, 3.0],
    ])
    rng = np.random.default_rng(3)
    long = rng.normal(scale=0.3, size=(1501, 3))
    long[::97] = 0.0
    long[1::89, 1] = -0.0
    curves = [
        TracedCurve(samples=special, t=np.array([0.0, -0.0, 1e-300, -1e17, 7.0]),
                    chart="p", termination="box_exit",
                    termination_backward="box_exit", is_separatrix=True,
                    max_residual=0.0, seed_index=0, seed_sample=0),
        TracedCurve(samples=long, t=np.cumsum(rng.random(len(long))) - 3.0,
                    chart="q", termination="step_cap",
                    termination_backward="box_exit", is_separatrix=False,
                    max_residual=0.0, seed_index=1, seed_sample=0),
    ]
    locus = [np.array([[-0.0, 0.0], [0.0, -0.0], [1e-300, -1e17]]), long[:800, :2]]
    saddle = RootData(root=0.5, alpha=1.0, minus_phi_prime=-1.0,
                      eigen_product=-1.0, lifted_type="saddle")
    analysis = CubicAnalysis(chart=CHART_Q, phi=(), alpha=(), D=0.0,
                             D_normalized=0.0, roots=(0.5,), per_root=(saddle,))
    return Portrait(curves=curves, discriminant_locus=locus, box=0.5,
                    case=None, analysis=analysis, warnings=0)


def test_array_formatting_matches_per_value_reference(monkeypatch):
    portrait = _edge_value_portrait()
    assert len(portrait.curves[1]) > render._MAX_POLYLINE_POINTS   # _thin runs
    for jet in (None, THREE_SADDLES_JET):          # jet=None writes nan xyz
        assert curves_to_csv(portrait, jet) == _csv_reference(portrait, jet)
    assert ",nan,nan,nan,0,1\n" in curves_to_csv(portrait, None)
    curves3d = [SurfaceCurve(points=c.samples, kind=kind)
                for c, kind in zip(portrait.curves, ("separatrix", "edge"))]
    curves3d.append(SurfaceCurve(points=np.array([[0.0, -0.0, 0.0],
                                                  [1e-300, 0.0, -0.0]]),
                                 kind="discriminant"))
    svg = portrait_to_svg(portrait, STYLE, top_class="Degenerate")
    surface = surface_view_to_svg(curves3d, STYLE)
    assert "case: unknown" in svg
    numbers = [n for p in ET.fromstring(svg).findall(f"{NS}polyline")
               for n in p.get("points").replace(",", " ").split()]
    assert "0" in numbers and "-0" not in numbers
    monkeypatch.setattr(render, "_polyline", _polyline_reference)
    assert svg == portrait_to_svg(portrait, STYLE, top_class="Degenerate")
    assert surface == surface_view_to_svg(curves3d, STYLE)


def test_three_saddles_output_bytes_pinned(three_saddles_portrait):
    # sha256 of the documents written by the per-value formatter; re-pinned
    # when the separatrix seeds moved to the exact eigenframe (fiber seeds
    # first: the same curves, bit for bit, in another order)
    svg = portrait_to_svg(three_saddles_portrait, STYLE, top_class="ThreeSaddles")
    csv = curves_to_csv(three_saddles_portrait, THREE_SADDLES_JET)
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "e693049f7606bdac73577b4aa8f52e6caa73cf97f1043d01c0aea5ed625f3ac9")
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "7b3ea0b5965ddc7db89b353175e0ff03b065ecdc1c9e504e79496ced1b308c60")


def test_continuation_and_chart_p_separatrix_csv_bytes_pinned():
    # two paths the three-saddles pin does not take: a chart-breakdown
    # continuation in the dual chart, and separatrix seeds in chart p (the
    # chart-q cubic of this Case-3 BDE has C_u = 0, so its leading
    # coefficient vanishes and the analysis falls back to chart p)
    config = TraceConfig(box=0.15, seeds_per_side=8, max_steps=120)
    jet = sample_generic_jet(4, "generic")
    portrait = trace_portrait(
        build_geometric_bde(jet, FoliationKind.CHARACTERISTIC), config)
    assert sum(c.seed_index == -1 for c in portrait.curves) == 1
    assert hashlib.sha256(curves_to_csv(portrait, jet).encode()).hexdigest() == (
        "bede67edde58160fe1989736f954f55721d86280dd2be34e67ca8daa3121516b")

    u, v = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    field = BdeField(-u - v + u * v, 2 * u - v, v + u * u)
    analysis = cubic_analysis(lift(field, CHART_Q))
    assert (analysis.chart, analysis.saddle_count()) == (CHART_P, 3)
    portrait = trace_portrait(field, TraceConfig(box=0.15, seeds_per_side=8,
                                                 max_steps=300))
    assert {c.chart for c in portrait.separatrices} == {CHART_P}
    # re-pinned with the exact eigenframe: separatrix samples moved by at
    # most 1.3e-13, every length and termination kept
    assert hashlib.sha256(curves_to_csv(portrait, None).encode()).hexdigest() == (
        "1ae11d820af8be8b4dbecd2e6462f2c763ea4587e90a3a26b9318143ac82567a")


def test_singular_ticks_point_along_their_chart_direction():
    """A lifted zero's direction du:dv is (q, 1) in chart q and (1, p) in
    chart p; the tick is read in the chart of the portrait's analysis."""
    u, v = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    config = TraceConfig(box=0.15, seeds_per_side=8, max_steps=120)
    portrait = trace_portrait(BdeField(v, u, 2 * v), config)
    assert portrait.analysis.chart == CHART_P
    assert portrait.singular_points == ((0.0, "saddle"),)
    assert ('<line class="singular-tick" x1="-0.00703125" y1="0" '
            'x2="0.00703125" y2="0" ') in portrait_to_svg(portrait, STYLE, None)

    # the three chart-p saddles of the continuation pin's field
    portrait = trace_portrait(BdeField(-u - v + u * v, 2 * u - v, v + u * u),
                              config)
    assert portrait.analysis.chart == CHART_P
    ticks = ET.fromstring(portrait_to_svg(portrait, STYLE, None)).findall(f"{NS}line")
    assert len(ticks) == len(portrait.singular_points) == 3
    for (p, _), tick in zip(portrait.singular_points, ticks):
        x1, y1, x2, y2 = (float(tick.get(k)) for k in ("x1", "y1", "x2", "y2"))
        du, dv = x2 - x1, y1 - y2          # the SVG's y axis points down
        assert du > 0.0
        assert abs(dv - p * du) <= 1e-5 * (1.0 + abs(p)) * math.hypot(du, dv)
