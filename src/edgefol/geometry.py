"""Surface evaluation and fundamental forms for a cuspidal-edge jet.

The parametrization and every derived tensor live as exact polynomials in
(u, v).  On the singular set v = 0 the metric degenerates; the scaled normal
nu2 = f_u x (f_v / v) stays polynomial because f_v is divided by v exactly
(`Poly2.divide_v`), and the second-form numerators L2, M2, N2 are taken
against it.  The BDE assembly divides its products by v the same way, so no
quotient is ever a float limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import HigherTermsPresent
from .jets import EdgeJet
from .poly import CompiledPolySet, Poly2

# Entries kept by each memo keyed by a jet: `form_polynomials` and
# `foliations.build_geometric_bde`.  Reuse happens inside one request, with no
# other jet in between: the three foliations of a jet share its form
# polynomials (classification reads them and builds no full BDE).  One entry
# keeps every such hit.  The only reuse it gives up is across requests:
# `verify.documented_discrepancies` rebuilds the forms of its two constant
# jets on every run, 0.48 ms against 0.23 ms, of a 55-75 ms one-trial
# `run_verify`.  An entry held longer only adds exact polynomials for the
# collector to promote and walk: over 36,000 classify requests (2-core Xeon,
# Python 3.11.7) 8 entries took 23 generation-2 collections of 10-13 ms, one
# entry 5.
REQUEST_JETS = 1


def surface_polynomials(jet: EdgeJet) -> tuple[Poly2, Poly2, Poly2]:
    """The three coordinate polynomials of the normal-form parametrization,
    in the jet's coefficient type.  Not memoized: a portrait request's three
    calls (forms, CSV, surface view) take 0.13 ms (2-core Xeon) of its 50."""
    h = jet.higher
    f1 = Poly2.monomial(1, 0)
    f2 = (
        Poly2.monomial(2, 0, jet.a20 / 2)
        + Poly2.monomial(3, 0, jet.a30 / 6)
        + Poly2.monomial(0, 2, _half(jet))
        + Poly2.monomial(4, 0) * Poly2.from_univariate(h.h1)
    )
    f3 = (
        Poly2.monomial(2, 0, jet.b20 / 2)
        + Poly2.monomial(3, 0, jet.b30 / 6)
        + Poly2.monomial(1, 2, jet.b12 / 2)
        + Poly2.monomial(0, 3, jet.b03 / 6)
        + Poly2.monomial(4, 0) * Poly2.from_univariate(h.h2)
        + Poly2.monomial(2, 2) * Poly2.from_univariate(h.h3)
        + Poly2.monomial(1, 3) * Poly2.from_univariate(h.h4)
        + Poly2.monomial(0, 4) * Poly2({(i, j): c for i, j, c in h.h5})
    )
    return f1, f2, f3


def surface_map(jet: EdgeJet):
    """f compiled once (`surface_polynomials`): the map from point arrays
    (u, v) to their (n, 3) images."""
    cset = CompiledPolySet(surface_polynomials(jet))
    return lambda u, v: np.stack(cset.values(u, v), axis=1)


def _half(jet):
    # v^2/2 written in the jet's own coefficient type (Fraction-safe)
    one = jet.b03 / jet.b03
    return one / 2


class FormPolynomials(NamedTuple):
    """Fundamental-form coefficient polynomials against the scaled normal."""

    E: Poly2
    F: Poly2
    G: Poly2
    L2: Poly2
    M2: Poly2
    N2: Poly2
    nu2: tuple  # scaled normal f_u x (f_v / v), three Poly2


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


@lru_cache(maxsize=REQUEST_JETS)
def form_polynomials(jet: EdgeJet) -> FormPolynomials:
    """E, F, G, L2, M2, N2 and nu2 of the jet, exact in its coefficient type;
    memoized for the last jet (REQUEST_JETS), keyed by value and type."""
    f = surface_polynomials(jet)
    fu = tuple(p.diff("u") for p in f)
    fv = tuple(p.diff("v") for p in f)
    fuu = tuple(p.diff("u") for p in fu)
    fuv = tuple(p.diff("v") for p in fu)
    fvv = tuple(p.diff("v") for p in fv)

    E = _dot(fu, fu)
    F = _dot(fu, fv)
    G = _dot(fv, fv)

    fv_over_v = tuple(p.divide_v() for p in fv)
    nu2 = _cross(fu, fv_over_v)

    L2 = _dot(fuu, nu2)
    M2 = _dot(fuv, nu2)
    N2 = _dot(fvv, nu2)

    return FormPolynomials(E=E, F=F, G=G, L2=L2, M2=M2, N2=N2, nu2=nu2)


# --- cross-check report against the reference Taylor expansions ---

@dataclass(frozen=True)
class ReportRow:
    quantity: str
    monomial: str
    reference: float
    computed: float
    agree: bool


def _reference_rows(jet: EdgeJet):
    a20, a30, b20, b30 = jet.a20, jet.a30, jet.b20, jet.b30
    b12, b03 = jet.b12, jet.b03
    return [
        ("E", (0, 0), 1.0),
        ("E", (2, 0), a20**2 + b20**2),
        ("E", (3, 0), a20 * a30 + b20 * b30),
        ("E", (1, 2), b12 * b20),
        ("E", (4, 0), (a30**2 + b30**2) / 4),
        ("E", (2, 2), b12 * b30 / 2),
        ("E", (1, 3), 0.0),
        ("E", (0, 4), b12**2 / 4),
        ("F", (1, 1), a20),
        ("F", (2, 1), a30 / 2 + b12 * b20),
        ("F", (1, 2), b03 * b20 / 2),
        ("F", (0, 4), b03 * b12 / 4),
        ("F", (1, 3), b12**2 / 2),
        ("F", (2, 2), b03 * b30 / 4),
        ("F", (3, 1), b12 * b30 / 2),
        ("G", (0, 2), 1.0),
        ("G", (0, 4), b03**2 / 4),
        ("G", (1, 3), b03 * b12),
        ("G", (2, 2), b12**2),
        ("L2", (0, 0), b20),
        ("L2", (1, 0), b30 - a20 * b12),
        ("L2", (0, 1), -a20 * b03 / 2),
        ("L2", (2, 0), -a30 * b12),
        # Reference prints -(a30*b03); direct differentiation gives half that.
        ("L2", (1, 1), -a30 * b03),
        ("L2", (0, 2), 0.0),
        ("M2", (0, 1), b12),
        ("M2", (1, 1), 0.0),
        ("M2", (0, 2), 0.0),
        ("N2", (0, 1), b03 / 2),
        ("N2", (1, 1), 0.0),
        ("N2", (0, 2), 0.0),
    ]


def series_expansion_report(jet: EdgeJet) -> list[ReportRow]:
    """Compare computed Taylor coefficients of E, F, G, L2, M2, N2 against the
    reference expansions (valid for h == 0 only).

    Never raises on disagreement: each row carries an agree flag (error at
    most 1e-9 of max(|reference|, |computed|, 1)).  Raises
    HigherTermsPresent when the jet has a nonzero remainder.
    """
    if not jet.higher.is_zero():
        raise HigherTermsPresent("series report requires h == 0")
    fp = form_polynomials(jet)
    polys = {"E": fp.E, "F": fp.F, "G": fp.G, "L2": fp.L2, "M2": fp.M2, "N2": fp.N2}
    rows = []
    for name, (i, j), ref in _reference_rows(jet):
        comp = float(polys[name].coeff(i, j))
        scale = max(abs(ref), abs(comp), 1.0)
        rows.append(ReportRow(
            quantity=name,
            monomial=f"u^{i} v^{j}",
            reference=float(ref),
            computed=comp,
            agree=abs(comp - ref) <= 1e-9 * scale,
        ))
    return rows
