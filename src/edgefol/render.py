"""SVG phase portraits (domain and surface view) and CSV export.

Rendering is a pure function of its inputs: floats are formatted with a
fixed precision and elements are emitted in deterministic order, so a given
portrait and style always produce byte-identical documents.  Arrays are
formatted one curve at a time: a CSV curve is one `%.9g` format call over
its rows and a polyline one `%.6g,%.6g` call over its points, where `-0.0`
prints as `0` (as every other SVG number does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bde import CHART_Q
from .errors import EmptyPortrait
from .geometry import surface_map
from .jets import EdgeJet
from .tracer import Portrait

SVG_NS = "http://www.w3.org/2000/svg"


@dataclass(frozen=True)
class RenderStyle:
    """Camera settings; the stroke, colour and size attributes are fixed."""

    curve_width = 0.8
    separatrix_width = 1.1
    discriminant_width = 1.0
    edge_width = 1.6
    curve_color = "#2b6cb0"
    separatrix_color = "#c53030"
    discriminant_color = "#718096"
    edge_color = "#1a202c"
    marker_color = "#c53030"
    marker_radius = 2.5
    size_px = 640
    camera_direction: tuple = (0.35, -0.55, 0.76)
    camera_up: tuple = (0.0, 0.0, 1.0)

    def camera_frame(self):
        """Orthonormal (right, up, forward) triple; raises on a degenerate
        camera (direction parallel to the up hint)."""
        d = np.asarray(self.camera_direction, dtype=float)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            raise ValueError("camera direction must be nonzero")
        d = d / nd
        up_hint = np.asarray(self.camera_up, dtype=float)
        nu = np.linalg.norm(up_hint)
        if nu == 0.0:
            raise ValueError("camera up-vector must be nonzero")
        up_hint = up_hint / nu
        right = np.cross(up_hint, d)
        nr = np.linalg.norm(right)
        if nr < 1e-12:
            raise ValueError("camera direction and up-vector are parallel")
        right = right / nr
        up = np.cross(d, right)
        return right, up, d


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    return f"{x:.6g}"


_MAX_POLYLINE_POINTS = 700


def _thin(points_xy):
    """Uniform-stride decimation for display; keeps both endpoints."""
    n = len(points_xy)
    if n <= _MAX_POLYLINE_POINTS:
        return points_xy
    idx = np.linspace(0, n - 1, _MAX_POLYLINE_POINTS).round().astype(int)
    return points_xy[idx]


def _polyline(points_xy, *, cls, color, width) -> str:
    """One polyline element; separatrices are dashed."""
    xy = _thin(np.asarray(points_xy)) * (1.0, -1.0) + 0.0   # -0.0 -> 0.0
    pts = " ".join(["%.6g,%.6g"] * len(xy)) % tuple(xy.ravel().tolist())
    dash = ' stroke-dasharray="6 4"' if cls == "separatrix" else ""
    return (f'<polyline class="{cls}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"{dash} points="{pts}" />')


def _kinds(style: RenderStyle, scale: float) -> dict:
    """`_polyline` arguments per curve kind; `scale` is units per pixel."""
    return {
        "curve": dict(color=style.curve_color, width=style.curve_width * scale),
        "separatrix": dict(color=style.separatrix_color,
                           width=style.separatrix_width * scale),
        "discriminant": dict(color=style.discriminant_color,
                             width=style.discriminant_width * scale),
        "edge": dict(color=style.edge_color, width=style.edge_width * scale),
    }


def _document(style: RenderStyle, viewbox, comment: str, body) -> str:
    """An SVG 1.1 document: header, comment, body elements and footer."""
    header = (
        f'<svg xmlns="{SVG_NS}" version="1.1" '
        f'width="{style.size_px}" height="{style.size_px}" '
        f'viewBox="{" ".join(_fmt(x) for x in viewbox)}">'
    )
    return "\n".join([header, f"<!-- {comment} -->", *body, "</svg>"]) + "\n"


def portrait_to_svg(portrait: Portrait, style: RenderStyle,
                    top_class: str | None) -> str:
    """Render the domain phase portrait to an SVG 1.1 document.

    Integral curves are solid polylines, separatrices dashed, the
    discriminant locus gets its own color, and each lifted singular point is
    marked at the origin with a tick along its direction du:dv, read in the
    chart of the portrait's analysis.  The configuration tag is embedded as
    an XML comment so golden-file tests can assert on it; a `top_class`
    of None tags the document "unclassified".
    """
    if not portrait.curves:
        raise EmptyPortrait("portrait contains no curves")
    b = portrait.box
    scale = 2.0 * b / style.size_px   # stroke widths given in pixels
    kinds = _kinds(style, scale)
    parts = [_polyline(line, cls="discriminant", **kinds["discriminant"])
             for line in portrait.discriminant_locus]
    for curve in portrait.curves:
        kind = "separatrix" if curve.is_separatrix else "curve"
        parts.append(_polyline(curve.projected, cls=kind, **kinds[kind]))

    tick = 6.0 * style.marker_radius * scale
    for value, lifted_type in portrait.singular_points:
        # all Type-2 singular points sit over the origin; the tick shows the
        # root's direction du:dv, (q, 1) in chart q and (1, p) in chart p
        du, dv = (value, 1.0) if portrait.analysis.chart == CHART_Q else (1.0, value)
        norm = math.hypot(du, dv)
        dx, dy = du / norm, dv / norm
        parts.append(
            f'<line class="singular-tick" x1="{_fmt(-tick * dx)}" '
            f'y1="{_fmt(tick * dy)}" x2="{_fmt(tick * dx)}" '
            f'y2="{_fmt(-tick * dy)}" stroke="{style.marker_color}" '
            f'stroke-width="{_fmt(0.6 * scale)}" />'
        )
        parts.append(
            f'<circle class="singular-marker" cx="0" cy="0" '
            f'r="{_fmt(style.marker_radius * scale)}" '
            f'fill="{style.marker_color}"><title>{lifted_type}</title></circle>'
        )
    tag = top_class if top_class is not None else "unclassified"
    case = portrait.case.value if portrait.case is not None else "unknown"
    return _document(style, (-b, -b, 2 * b, 2 * b),
                     f"top_class: {tag} | case: {case}", parts)


def surface_view_to_svg(curves3d: list, style: RenderStyle) -> str:
    """Orthographic projection of 3-space polylines to an SVG document.

    Polylines are depth-sorted painter's style by mean depth along the
    camera direction; the singular edge curve is drawn emphasized.
    """
    right, up, forward = style.camera_frame()
    projected = []
    for sc in curves3d:
        pts = np.asarray(sc.points, dtype=float)
        if len(pts) == 0:
            continue
        xy = np.stack([pts @ right, pts @ up], axis=1)
        depth = float(np.mean(pts @ forward))
        projected.append((depth, xy, sc.kind))
    if not projected:
        raise EmptyPortrait("no curves to render")
    projected.sort(key=lambda item: (item[0], item[2]))

    allpts = np.vstack([xy for _, xy, _ in projected])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.05 * span
    x0, y0 = lo[0] - pad, -(hi[1] + pad)
    side = span + 2 * pad
    kinds = _kinds(style, side / style.size_px)
    body = [_polyline(xy, cls=kind, **kinds.get(kind, kinds["curve"]))
            for _, xy, kind in projected]
    return _document(style, (x0, y0, side, side), "surface view", body)


def curves_to_csv(portrait: Portrait, jet: EdgeJet | None) -> str:
    """Flat CSV of every traced curve: t, u, v, p, x, y, z, curve_id,
    separatrix; x, y, z map (u, v) through `jet`'s surface (NaN if None)."""
    image = None if jet is None else surface_map(jet)
    parts = ["t,u,v,p,x,y,z,curve_id,separatrix\n"]
    for cid, curve in enumerate(portrait.curves):
        uvp = curve.samples
        xyz = (np.full((len(uvp), 3), np.nan) if image is None
               else image(uvp[:, 0], uvp[:, 1]))
        flag = 1 if curve.is_separatrix else 0
        row = "%.9g," * 7 + f"{cid},{flag}\n"
        rows = np.column_stack([curve.t, uvp, xyz]).ravel().tolist()
        parts.append((row * len(uvp)) % tuple(rows))
    return "".join(parts)
