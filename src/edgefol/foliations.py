"""The three geometric BDEs of a cuspidal edge and their classification.

All three tensors are assembled from the exact form polynomials with the
scaled normal nu2, cleared of positive functional factors (powers of |nu2|)
and of the structural factor v where one exists:

  lines of curvature:  A = (F*N2 - G*M2)/v,  2B = (E*N2 - G*L2)/v,
                       C = (E*M2 - F*L2)/v
  asymptotic:          (A, B, C) = (N2, M2, L2)
  characteristic:      the harmonic-mean-curvature tensor, quadratic in the
                       second-form data, divided by its overall factor v.

Each kind's formula is written once (`_geometric_bde`): at degree 6 it
builds the BDE that tracing integrates, at degree 2 the values that a
classification document reads (`_two_jet`).

The origin case of every jet is exact on these formulas.  Lines of
curvature have delta(0, 0) = b03^2/16 > 0: Case 1, a regular pair.  For
the asymptotic and characteristic equations the limiting normal curvature
b20 decides it: b20 != 0 gives a fold point (Case 2, transverse) whose
solutions are a family of cusps, b20 = 0 gives an all-coefficients-vanish
point (Case 3) governed by a cubic with closed-form coefficients in the jet.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache

from . import invariants
from .bde import (
    BdeField,
    CHART_Q,
    Case,
    CubicAnalysis,
    SIGN_CONVENTION_NOTE,
    TopClass,
    analyse_cubic,
    classify_type2,
    discriminant_poly,
    hessian_det_origin,
)
from .errors import (
    CommonRoot,
    DiscriminantNearZero,
    EdgefolError,
    PropositionHypothesisViolated,
)
from .geometry import REQUEST_JETS, _half, form_polynomials
from .jets import EdgeJet

DEGREE_CAP = 6               # total degree kept in the BDE coefficients
HYPOTHESIS_TOL = 1e-9


class FoliationKind(str, Enum):
    LINES_OF_CURVATURE = "lc"
    ASYMPTOTIC = "asymptotic"
    CHARACTERISTIC = "characteristic"


def parse_kind(name: str) -> FoliationKind:
    aliases = {
        "lc": FoliationKind.LINES_OF_CURVATURE,
        "lines_of_curvature": FoliationKind.LINES_OF_CURVATURE,
        "curvature": FoliationKind.LINES_OF_CURVATURE,
        "asymptotic": FoliationKind.ASYMPTOTIC,
        "as": FoliationKind.ASYMPTOTIC,
        "characteristic": FoliationKind.CHARACTERISTIC,
        "ch": FoliationKind.CHARACTERISTIC,
    }
    try:
        return aliases[name.lower()]
    except KeyError:
        raise ValueError(f"unknown foliation kind {name!r}") from None


@lru_cache(maxsize=REQUEST_JETS)
def build_geometric_bde(jet: EdgeJet, kind: FoliationKind) -> BdeField:
    """Assemble the v-factored BDE of the requested foliation.

    Coefficients are exact polynomials through total degree DEGREE_CAP
    (`_geometric_bde`).  Memoized for the last jet and kind (REQUEST_JETS),
    keyed by the jet's values and coefficient types.  Classification
    builds no full BDE: it reads the 2-jet, where at all (`_two_jet`).
    """
    kind = FoliationKind(kind)
    return _geometric_bde(jet, form_polynomials(jet), kind, DEGREE_CAP)


def _geometric_bde(jet: EdgeJet, fp, kind: FoliationKind, cap: int) -> BdeField:
    """The kind's BDE from the jet's forms `fp`, exact through total degree
    `cap`.  Every product drops its terms above cap + 1 as it multiplies
    (`Poly2.product`), and the division by v leaves degree cap; the kept
    coefficients and their key order are those of the uncapped products
    truncated, so a term's bits do not depend on the cap.
    """
    if kind is FoliationKind.ASYMPTOTIC:
        return BdeField(*(f.truncated(cap) for f in (fp.N2, fp.M2, fp.L2)))
    pre = cap + 1
    E, F, G, L2, M2, N2 = (f.truncated(pre) for f in fp[:6])

    def mul(f, *factors):
        for g in factors:
            f = f.product(g, pre)
        return f

    if kind is FoliationKind.LINES_OF_CURVATURE:
        return BdeField((mul(F, N2) - mul(G, M2)).divide_v(),
                        (mul(E, N2) - mul(G, L2)).divide_v() * _half(jet),
                        (mul(E, M2) - mul(F, L2)).divide_v())
    return BdeField(
        (mul(2 * M2, mul(G, M2) - mul(F, N2))
         - mul(N2, mul(G, L2) - mul(E, N2))).divide_v(),
        (mul(M2, mul(G, L2) + mul(E, N2)) - mul(2 * F, L2, N2)).divide_v(),
        (mul(L2, mul(G, L2) - mul(E, N2))
         - mul(2 * M2, mul(F, L2) - mul(E, M2))).divide_v())


def _two_jet(jet: EdgeJet, kind: FoliationKind):
    """(BDE 2-jet, delta 2-jet) of the kind, the full BDE's item for item;
    OverflowError where the 2-jet's coefficients leave the float range."""
    bde = _geometric_bde(jet, form_polynomials(jet), kind, 2)
    if not math.isfinite(bde.coefficient_scale()):
        raise OverflowError("BDE coefficients overflow the float range")
    return bde, discriminant_poly(bde, 2)


# --- closed-form analysis ---

# kind -> closed forms (cubic, discriminant) of invariants
_CLOSED_FORMS = {
    FoliationKind.ASYMPTOTIC: (invariants.asymptotic_cubic,
                               invariants.asymptotic_discriminant),
    FoliationKind.CHARACTERISTIC: (invariants.characteristic_cubic,
                                   invariants.characteristic_discriminant),
}


def closed_forms(jet: EdgeJet, kind: FoliationKind):
    """(cubic, eigenvalue quadratic, discriminant) of the kind's Type-2
    closed forms, in the jet's coefficient type.  The quadratic is the class
    rule alpha = phi' - c3 p^2 of the cubic (Bruce & Tari 1995); the
    characteristic alpha printed with its cubic is twice it, and disagrees
    with its own expanded product.  Float overflow raises OverflowError
    whenever one of the three would alone: the discriminant's powers cover
    those of the other two."""
    forms = _CLOSED_FORMS.get(FoliationKind(kind))
    if forms is None:
        raise ValueError("lines of curvature have no Type-2 cubic")
    args = (jet.a20, jet.b30, jet.b12, jet.b03)
    c3, c2, c1, _ = cubic = forms[0](*args)
    return cubic, (2 * c3, 2 * c2, c1), forms[1](*args)


def hypothesis_failures(jet: EdgeJet, kind: FoliationKind) -> list[str]:
    """Which of the Type-2 classification hypotheses fail for this jet.

    b20 = 0 is tested exactly, as `classify_edge_foliation` splits the
    origin; the derived quantities against HYPOTHESIS_TOL (it lines up with
    the sampler's rejection margins, and the normalized discriminant is
    re-tested inside the cubic analysis itself).
    """
    failed = []
    if jet.b20 != 0:
        failed.append("b20 = 0")
    deriv = invariants.normal_curvature_derivative(jet.a20, jet.b30, jet.b12)
    if abs(deriv) <= HYPOTHESIS_TOL:
        failed.append("b30 - a20*b12 != 0")
    if abs(closed_forms(jet, kind)[2]) <= HYPOTHESIS_TOL:
        failed.append("D != 0")
    guard = invariants.common_root_guard(jet.b30, jet.b12, jet.b03)
    if abs(guard) <= HYPOTHESIS_TOL:
        failed.append("4*b12^3 + b03^2*b30 != 0")
    return failed


def closed_form_analysis(jet: EdgeJet, kind: FoliationKind) -> CubicAnalysis:
    """CubicAnalysis from the closed-form cubic/eigenvalue coefficients.

    Requires b20 = 0 exactly and the remaining genericity hypotheses;
    otherwise raises PropositionHypothesisViolated listing the offenders.
    Root and eigen data come from the same `analyse_cubic` as the
    derivative-based path, but starting from the closed forms.
    """
    failed = hypothesis_failures(jet, kind)
    if failed:
        raise PropositionHypothesisViolated(failed)
    cubic, quadratic, _ = closed_forms(jet, kind)
    phi = tuple(float(c) for c in cubic)
    alpha = tuple(float(c) for c in quadratic)
    try:
        return analyse_cubic(phi, alpha, CHART_Q)
    except DiscriminantNearZero:
        raise PropositionHypothesisViolated(["D != 0"]) from None
    except CommonRoot:
        raise PropositionHypothesisViolated(["4*b12^3 + b03^2*b30 != 0"]) from None


# --- classification ---

@dataclass(frozen=True)
class EdgeClassification:
    kind: FoliationKind
    top_class: TopClass
    case: Case | None
    invariants: dict
    degenerate_reason: str | None = None
    analysis: CubicAnalysis | None = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind.value,
            "top_class": self.top_class.value,
            "case": self.case.value if self.case else None,
            "invariants": self.invariants,
            "convention_note": SIGN_CONVENTION_NOTE,
        }
        if self.degenerate_reason is not None:
            out["degenerate_reason"] = self.degenerate_reason
        if self.analysis is not None:
            out["roots"] = list(self.analysis.roots)
            out["per_root"] = [asdict(r) for r in self.analysis.per_root]
        return out

    def to_json(self) -> str:
        # exact (Fraction) invariants are written as JSON numbers
        return json.dumps(self.to_dict(), indent=2, default=float)


def classify_edge_foliation(jet: EdgeJet, kind: FoliationKind) -> EdgeClassification:
    """Topological class of one geometric foliation of the edge.

    Lines of curvature always form a transverse regular pair.  Asymptotic and
    characteristic equations give a cusp family when b20 != 0 and one of the
    five Type-2 portraits when b20 = 0 under the genericity hypotheses;
    hypothesis failures, and jets whose float arithmetic overflows, are
    reported as Degenerate, never raised.  An overflow leaves out the
    invariants it stopped and the case.  The case is the exact rule of the
    module docstring, with no tolerance; the BDE 2-jet is built only for
    the invariants that read it (`_two_jet`).
    """
    kind = FoliationKind(kind)
    inv = {}
    try:
        return _classify(jet, kind, inv)
    except OverflowError as exc:
        return EdgeClassification(kind, TopClass.DEGENERATE, None, inv,
                                  degenerate_reason=f"{type(exc).__name__}: {exc}")


def _classify(jet: EdgeJet, kind: FoliationKind, inv: dict) -> EdgeClassification:
    inv["b20"] = jet.b20   # filled in turn: an overflow keeps earlier entries
    inv["b30_minus_a20_b12"] = float(
        invariants.normal_curvature_derivative(jet.a20, jet.b30, jet.b12))
    inv["common_root_guard"] = float(
        invariants.common_root_guard(jet.b30, jet.b12, jet.b03))
    if kind is FoliationKind.LINES_OF_CURVATURE:
        bde, delta = _two_jet(jet, kind)
        inv["b_origin"] = float(bde.B.coeff(0, 0))
        inv["delta_origin"] = float(delta.coeff(0, 0))
        return EdgeClassification(kind, TopClass.REGULAR_PAIR, Case.CASE1_REGULAR, inv)
    if jet.b20 != 0:
        return EdgeClassification(kind, TopClass.CUSP_FAMILY, Case.CASE2_TRANSVERSE, inv)

    delta = _two_jet(jet, kind)[1]
    try:
        analysis = closed_form_analysis(jet, kind)
        inv["D"] = analysis.D
        inv["phi"] = list(analysis.phi)
        inv["alpha"] = list(analysis.alpha)
        inv["alpha_at_roots"] = [r.alpha for r in analysis.per_root]
        hess = hessian_det_origin(delta)
        inv["hessian_det"] = hess
        top = classify_type2(analysis, hess)
    except EdgefolError as exc:
        inv.setdefault("D", float(closed_forms(jet, kind)[2]))
        return EdgeClassification(kind, TopClass.DEGENERATE, Case.CASE3, inv,
                                  degenerate_reason=f"{type(exc).__name__}: {exc}")
    return EdgeClassification(kind, top, Case.CASE3, inv, analysis=analysis)
