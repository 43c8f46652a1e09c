"""Test-side oracles for the image cusps of curves through the edge.

The paper's claim: an integral curve that crosses the cuspidal edge maps
under f to a (2,3)-cusp for lines of curvature and to a (3,4)-cusp on the
fold branch of the asymptotic and characteristic foliations.
`detect_cusp_order` classifies a sampled curve by a local polynomial fit,
independently of the tracer; `surface_image` and `edge_crossing_curve` build
the curves the tests feed it.  Not collected by pytest (no `test_` prefix).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from edgefol.bde import CHART_Q
from edgefol.errors import EdgefolError
from edgefol.foliations import build_geometric_bde
from edgefol.geometry import surface_map
from edgefol.tracer import TraceConfig, _trace_worklist


class WindowTooSmall(EdgefolError):
    """Not enough samples on each side of the requested parameter."""


class FitIllConditioned(EdgefolError):
    """Local polynomial fit is numerically unreliable."""


def surface_image(jet, u, v):
    """The (n, 3) image under f of the domain points (u, v)."""
    return surface_map(jet)(u, v)


def edge_crossing_curve(jet, kind, max_steps):
    """The one curve of the chart-q seed at (u, v) = (0.12, 0) with q = 0
    (internal row (0, 0.12, 0)), which crosses the edge there, traced both
    ways in the box [-0.5, 0.5]^2 at step 2e-4 with no chart continuation."""
    (curve,), _ = _trace_worklist(
        build_geometric_bde(jet, kind), [(CHART_Q, (0.0, 0.12, 0.0), False)],
        TraceConfig(box=0.5, step=2e-4, max_steps=max_steps), {CHART_Q: ()})
    return curve


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
