"""Geometric BDEs of the edge: construction, closed forms, classification."""

import dataclasses
import gc
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from edgefol import foliations
from edgefol.bde import (
    CHART_Q,
    SIGN_CONVENTION_NOTE,
    Case,
    TopClass,
    classify_type2,
    cubic_analysis,
    delta_and_case,
    discriminant_poly,
    hessian_det_origin,
    lift,
    unique_direction_at_origin,
)
from edgefol.errors import (
    DegenerateDiscriminant,
    EdgefolError,
    PropositionHypothesisViolated,
)
from edgefol.foliations import (
    EdgeClassification,
    FoliationKind,
    build_geometric_bde,
    classify_edge_foliation,
    closed_form_analysis,
    closed_forms,
    hypothesis_failures,
    parse_kind,
)
from edgefol.geometry import REQUEST_JETS, form_polynomials, surface_polynomials
from edgefol.invariants import (
    common_root_guard,
    cubic_discriminant,
    normal_curvature_derivative,
)
from edgefol.jets import EdgeJet, sample_generic_jet, validate_jet
from edgefol.render import curves_to_csv
from edgefol.tracer import (
    TraceConfig,
    local_sector_counts,
    project_to_surface,
    trace_portrait,
)

KINDS = (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC)


def test_parse_kind_aliases():
    assert parse_kind("lc") is FoliationKind.LINES_OF_CURVATURE
    assert parse_kind("ASYMPTOTIC") is FoliationKind.ASYMPTOTIC
    assert parse_kind("ch") is FoliationKind.CHARACTERISTIC
    with pytest.raises(ValueError):
        parse_kind("bogus")


def test_asymptotic_origin_values():
    jet = EdgeJet(0.4, -0.3, 0.9, 1.0, 0.2, 1.5)
    field = build_geometric_bde(jet, FoliationKind.ASYMPTOTIC)
    assert field.origin_values() == (0.0, 0.0, jet.b20)


def test_characteristic_origin_values():
    jet = EdgeJet(0.4, -0.3, 0.9, 1.0, 0.2, 1.5)
    field = build_geometric_bde(jet, FoliationKind.CHARACTERISTIC)
    a0, b0, c0 = field.origin_values()
    assert a0 == 0.0 and b0 == 0.0
    assert math.isclose(c0, -jet.b20 * jet.b03 / 2, rel_tol=1e-12)
    assert math.isclose(field.A.coeff(0, 1), jet.b03**2 / 4, rel_tol=1e-12)


def test_lc_origin_values():
    jet = EdgeJet(0.4, -0.3, 0.9, 1.0, 0.2, 1.5)
    field = build_geometric_bde(jet, FoliationKind.LINES_OF_CURVATURE)
    assert float(field.A.coeff(0, 0)) == 0.0
    assert math.isclose(field.B.coeff(0, 0), jet.b03 / 4, rel_tol=1e-12)
    assert math.isclose(field.C.coeff(0, 0), jet.b12, rel_tol=1e-12)


def test_two_jet_origin_values_on_symbols():
    """The values the classifier's case rule rests on, from the shipped
    `form_polynomials` and `_geometric_bde(..., cap=2)` run on symbols:
    lines of curvature have delta(0, 0) = b03^2/16 > 0 (Case 1, as b03 != 0);
    the asymptotic and characteristic BDEs vanish at the origin but for C,
    a multiple of b20, and grad delta(0, 0) lies along v, a nonzero multiple
    of b20, so b20 != 0 is Case 2 transverse and b20 = 0 Case 3."""
    a20, a30, b20, b30, b12, b03 = sp.symbols("a20 a30 b20 b30 b12 b03")
    jet = EdgeJet(a20, a30, b20, b30, b12, b03)
    fp = form_polynomials(jet)

    def origin(kind):
        bde = foliations._geometric_bde(jet, fp, kind, 2)
        delta = discriminant_poly(bde, 2)
        values = [f.coeff(0, 0) for f in (bde.A, bde.B, bde.C)]
        values += [delta.coeff(0, 0), delta.coeff(1, 0), delta.coeff(0, 1)]
        return [sp.expand(v) for v in values]

    _, B, _, delta, _, _ = origin(FoliationKind.LINES_OF_CURVATURE)
    assert (B, delta) == (b03 / 4, b03**2 / 16)
    assert origin(FoliationKind.ASYMPTOTIC) == [0, 0, b20, 0, 0, -b03 * b20 / 2]
    _, _, C, _, d_u, d_v = origin(FoliationKind.CHARACTERISTIC)
    assert (C, d_u, d_v) == (-b03 * b20 / 2, 0, b03**3 * b20 / 8)


def test_closed_forms_match_derivative_extraction():
    for seed in range(150):
        jet = sample_generic_jet(seed, "edge_degenerate")
        for kind in KINDS:
            eq = lift(build_geometric_bde(jet, kind), CHART_Q)
            for got, want in zip(eq.phi_coefficients(),
                                 closed_forms(jet, kind)[0]):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))
            for got, want in zip(eq.alpha_coefficients(),
                                 closed_forms(jet, kind)[1]):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))


def test_closed_forms_hold_with_higher_terms():
    """The singularity data depends only on the 3-jet: remainders h do not
    move the extracted cubic."""
    from edgefol.jets import HigherTerms
    base = sample_generic_jet(3, "edge_degenerate")
    bumped = EdgeJet(base.a20, base.a30, base.b20, base.b30, base.b12, base.b03,
                     HigherTerms(h1=(0.8, -0.4), h2=(0.5,), h3=(0.3, 0.2),
                                 h4=(0.9,), h5=((0, 0, 0.6), (2, 1, -0.7))))
    for kind in KINDS:
        eq = lift(build_geometric_bde(bumped, kind), CHART_Q)
        for got, want in zip(eq.phi_coefficients(), closed_forms(base, kind)[0]):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))
        for got, want in zip(eq.alpha_coefficients(), closed_forms(base, kind)[1]):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))


def test_discriminant_identity_random():
    for seed in range(150):
        jet = sample_generic_jet(seed, "edge_degenerate")
        for kind in KINDS:
            cubic, _, closed = closed_forms(jet, kind)
            closed, generic = float(closed), float(cubic_discriminant(*cubic))
            assert abs(closed - generic) <= 1e-12 * max(1.0, abs(closed),
                                                        abs(generic))


def test_discriminant_worked_rational_pair():
    jet = EdgeJet(Fraction(4), Fraction(0), Fraction(0), Fraction(1),
                  Fraction(0), Fraction(1))
    d_as = closed_forms(jet, FoliationKind.ASYMPTOTIC)[2]
    d_ch = closed_forms(jet, FoliationKind.CHARACTERISTIC)[2]
    assert d_as == Fraction(37, 4)
    assert d_ch == Fraction(-91, 64)
    assert cubic_discriminant(*closed_forms(jet, FoliationKind.ASYMPTOTIC)[0]) \
        == Fraction(37, 4)
    assert cubic_discriminant(
        *closed_forms(jet, FoliationKind.CHARACTERISTIC)[0]) == Fraction(-91, 64)


def test_equal_discriminant_remark_fails_at_b12_zero():
    """Reproduce the counterexample: with b12 = 0 the two discriminants are
    not equal; here they even have opposite signs."""
    jet = EdgeJet(Fraction(4), Fraction(0), Fraction(0), Fraction(1),
                  Fraction(0), Fraction(1))
    d_as = closed_forms(jet, FoliationKind.ASYMPTOTIC)[2]
    d_ch = closed_forms(jet, FoliationKind.CHARACTERISTIC)[2]
    assert jet.b12 == 0
    assert d_as != d_ch
    assert (d_as > 0) and (d_ch < 0)


def _sylvester_resultant_cubic_quadratic(cubic, quad):
    c3, c2, c1, c0 = cubic
    a2, a1, a0 = quad
    m = np.array([
        [c3, c2, c1, c0, 0],
        [0, c3, c2, c1, c0],
        [a2, a1, a0, 0, 0],
        [0, a2, a1, a0, 0],
        [0, 0, a2, a1, a0],
    ], dtype=float)
    return float(np.linalg.det(m))


def test_common_root_identity_and_resultant():
    """p*alpha(p) - 2*phi(p) = -(b03 + 2*b12*p) exactly, so a common root of
    the cubic and the quadratic occurs iff 4*b12^3 + b03^2*b30 = 0."""
    rng = np.random.default_rng(9)
    for seed in range(60):
        jet = sample_generic_jet(seed, "edge_degenerate")
        (c3, c2, c1, c0), (a2, a1, a0), _ = closed_forms(
            jet, FoliationKind.ASYMPTOTIC)
        # p*alpha - 2*phi coefficientwise: cubic term a2-2c3, etc.
        assert math.isclose(a2 - 2 * c3, 0.0, abs_tol=1e-12)
        assert math.isclose(a1 - 2 * c2, 0.0, abs_tol=1e-12)
        assert math.isclose(a0 - 2 * c1, -2 * jet.b12, abs_tol=1e-12)
        assert math.isclose(-2 * c0, -jet.b03, abs_tol=1e-12)
        res = _sylvester_resultant_cubic_quadratic((c3, c2, c1, c0),
                                                   (a2, a1, a0))
        guard = 4 * jet.b12**3 + jet.b03**2 * jet.b30
        assert abs(guard) > 1e-4
        assert abs(res) > 1e-9

    # on the common-root hypersurface the resultant vanishes
    for _ in range(20):
        b12 = float(rng.uniform(0.3, 1.5)) * float(rng.choice([-1, 1]))
        b03 = float(rng.uniform(0.5, 2.0))
        a20 = float(rng.uniform(-1, 1))
        b30 = -4 * b12**3 / b03**2
        jet = EdgeJet(a20, 0.0, 0.0, b30, b12, b03)
        if abs(jet.b30 - jet.a20 * jet.b12) < 1e-3:
            continue
        cubic, quad, _ = closed_forms(jet, FoliationKind.ASYMPTOTIC)
        res = _sylvester_resultant_cubic_quadratic(cubic, quad)
        scale = max(abs(x) for x in cubic + quad) ** 5
        assert abs(res) <= 1e-9 * max(1.0, scale)


def test_fold_case_for_nonzero_limiting_normal_curvature():
    for seed in range(60):
        base = sample_generic_jet(seed, "generic")
        if base.b20 < 0.1:
            continue
        for kind in KINDS:
            field = build_geometric_bde(base, kind)
            delta, case = delta_and_case(field)
            assert case is Case.CASE2_TRANSVERSE
            direction = unique_direction_at_origin(field)
            assert abs(direction[0]) <= 1e-12 * abs(direction[1])


def test_asymptotic_hessian_negative_when_morse():
    for seed in range(60):
        jet = sample_generic_jet(seed, "edge_degenerate")
        delta = discriminant_poly(build_geometric_bde(jet, FoliationKind.ASYMPTOTIC),
                                  math.inf)
        assert hessian_det_origin(delta) < 0


def test_classify_lc_always_regular_pair():
    for seed in range(60):
        jet = sample_generic_jet(seed, "generic")
        cls = classify_edge_foliation(jet, FoliationKind.LINES_OF_CURVATURE)
        assert cls.top_class is TopClass.REGULAR_PAIR
        assert cls.invariants["b_origin"] != 0.0
        assert cls.invariants["delta_origin"] > 0.0


def test_classify_cusp_family_example():
    jet = EdgeJet(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    cls = classify_edge_foliation(jet, FoliationKind.ASYMPTOTIC)
    assert cls.top_class is TopClass.CUSP_FAMILY
    assert cls.case is Case.CASE2_TRANSVERSE


def test_classify_worked_three_saddles():
    jet = EdgeJet(0.0, 0.0, 0.0, 0.1, -1.0, 1.0)
    cls = classify_edge_foliation(jet, FoliationKind.ASYMPTOTIC)
    assert cls.top_class is TopClass.THREE_SADDLES
    assert cls.analysis is not None and len(cls.analysis.roots) == 3


def test_classify_worked_one_saddle():
    jet = EdgeJet(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    for kind in KINDS:
        cls = classify_edge_foliation(jet, kind)
        assert cls.top_class is TopClass.ONE_SADDLE


# exact jets whose closed-form cubic has three real roots, the middle one a
# saddle and the outer ones nodes: (kind, jet, roots)
ONE_SADDLE_TWO_NODES_JETS = [
    (FoliationKind.ASYMPTOTIC,
     EdgeJet(Fraction(-3, 2), Fraction(0), Fraction(0), Fraction(-31, 8),
             Fraction(13, 4), Fraction(-6)),
     (Fraction(1), Fraction(3, 2), Fraction(2))),
    (FoliationKind.CHARACTERISTIC,
     EdgeJet(Fraction(-10981, 54450), Fraction(0), Fraction(0),
             Fraction(-2858761, 17968500), Fraction(181, 330), Fraction(2)),
     (Fraction(-3), Fraction(-11, 4), Fraction(-5, 2))),
]


@pytest.mark.parametrize("kind, jet, roots", ONE_SADDLE_TWO_NODES_JETS,
                         ids=[kind.value for kind, _, _ in ONE_SADDLE_TWO_NODES_JETS])
def test_one_saddle_two_nodes_on_real_jets(kind, jet, roots):
    c3, c2, c1, c0 = closed_forms(jet, kind)[0]
    assert [c3 * r**3 + c2 * r**2 + c1 * r + c0 for r in roots] == [0, 0, 0]
    assert classify_edge_foliation(jet, kind).top_class \
        is TopClass.ONE_SADDLE_TWO_NODES
    field = build_geometric_bde(jet, kind)
    derived = cubic_analysis(lift(field, CHART_Q))
    closed = closed_form_analysis(jet, kind)
    for analysis in (derived, closed):
        assert np.allclose(analysis.roots, [float(r) for r in roots],
                           rtol=0, atol=1e-9)
        assert [r.lifted_type for r in analysis.per_root] \
            == ["node", "saddle", "node"]
    assert [(c.pattern, c.probes, max(c.landings_forward, c.landings_backward,
                                      c.exits_both))
            for c in local_sector_counts(field, derived)] \
        == [("node", 16, 16), ("saddle", 16, 16), ("node", 16, 16)]
    portrait = trace_portrait(
        field, TraceConfig(box=0.15, seeds_per_side=8, max_steps=120))
    assert portrait.curves and len(portrait.separatrices) == 4


def _jet_from_cubic(kind, c3, c2, c1, c0):
    """The exact edge-degenerate jet (a30 = b20 = 0) whose closed-form cubic
    of `kind` is (c3, c2, c1, c0), by inverting the closed forms.  The
    characteristic cubic has c0 = b03^2 / 4: c0 must be a rational square."""
    c3, c2, c1, c0 = map(Fraction, (c3, c2, c1, c0))
    if kind is FoliationKind.ASYMPTOTIC:
        b03, b12 = 2 * c0, c1 / 2
        a20 = -2 * c2 / b03
        b30 = c3 + a20 * b12
    else:
        half = Fraction(math.isqrt(c0.numerator), math.isqrt(c0.denominator))
        assert half * half == c0, "c0 is not a rational square"
        b03 = 2 * half
        b12 = c1 / b03
        a20 = (4 * c2 - 8 * b12**2) / b03**2
        b30 = a20 * b12 - 2 * c3 / b03
    return EdgeJet(a20, Fraction(0), Fraction(0), b30, b12, b03)


def _cubic_of(kind, *factors):
    """The cubic c3 * psi of `kind`, (c3, c2, c1, c0), where the monic psi is
    the product of `factors` (lower coefficients: (r,) is p + r and (s, t)
    is p^2 + s p + t).  c3 = 1, or in the characteristic foliation the
    c3 that makes c0 = 1 (so b03 = 2); the class depends on psi alone."""
    psi = [Fraction(1)]
    for factor in factors:
        factor = (1, *factor)
        psi = [sum(psi[i] * factor[k - i] for i in range(len(psi))
                   if 0 <= k - i < len(factor))
               for k in range(len(psi) + len(factor) - 1)]
    c3 = 1 if kind is FoliationKind.ASYMPTOTIC else 1 / psi[-1]
    return tuple(c3 * c for c in psi)


# psi of each Type-2 class (see the README rule): a middle root is always a
# saddle, an outer or single root r is one iff psi'(r) > r^2
TYPE2_PSI = {
    TopClass.THREE_SADDLES: ((4,), (Fraction(-1, 4),), (-4,)),     # -4, 1/4, 4
    TopClass.TWO_SADDLES_ONE_NODE: ((-1,), (-2,), (-4,)),           # 1, 2, 4
    TopClass.ONE_SADDLE_TWO_NODES: ((-1,), (Fraction(-3, 2),), (-2,)),  # 1, 3/2, 2
    TopClass.ONE_SADDLE: ((-1,), (0, 1)),                           # 1, +-i
    TopClass.ONE_NODE: ((-2,), (-2, 2)),                            # 2, 1 +- i
}
TYPE2_CASES = [(kind, top) for kind in KINDS for top in TYPE2_PSI]


def test_jet_from_cubic_inverts_the_closed_forms():
    for kind, jet, roots in ONE_SADDLE_TWO_NODES_JETS:
        cubic = closed_forms(jet, kind)[0]
        assert _jet_from_cubic(kind, *cubic) == jet
        assert _cubic_of(FoliationKind.ASYMPTOTIC, *((-r,) for r in roots)) \
            == tuple(c / cubic[0] for c in cubic)


@pytest.mark.parametrize("kind, top", TYPE2_CASES,
                         ids=[f"{kind.value}-{top.value}" for kind, top in TYPE2_CASES])
def test_every_type2_class_on_a_real_jet(kind, top):
    """One exact jet per (kind, class): its class, the closed-form and the
    derivative-based analyses agreeing, every root's sector count, and a
    portrait at the benchmark's size with four separatrices per saddle (the
    OneNode portraits hold only the 8 curves of their side seeds)."""
    cubic = _cubic_of(kind, *TYPE2_PSI[top])
    jet = _jet_from_cubic(kind, *cubic)
    assert closed_forms(jet, kind)[0] == cubic
    assert classify_edge_foliation(jet, kind).top_class is top
    field = build_geometric_bde(jet, kind)
    derived = cubic_analysis(lift(field, CHART_Q))
    closed = closed_form_analysis(jet, kind)
    assert np.allclose(derived.roots, closed.roots, rtol=0, atol=1e-9)
    types = [r.lifted_type for r in derived.per_root]
    assert types == [r.lifted_type for r in closed.per_root]
    assert [c.pattern for c in local_sector_counts(field, derived)] == types
    portrait = trace_portrait(
        field, TraceConfig(box=0.15, seeds_per_side=8, max_steps=120))
    assert portrait.curves
    assert len(portrait.separatrices) == 4 * types.count("saddle")


# the eigenvalue quadratics printed alongside the two closed-form cubics,
# written out: asymptotic alpha, and twice the characteristic alpha
_PRINTED_ALPHA = {
    FoliationKind.ASYMPTOTIC: lambda a20, b30, b12, b03:
        (2 * (b30 - a20 * b12), -a20 * b03, 2 * b12),
    FoliationKind.CHARACTERISTIC: lambda a20, b30, b12, b03:
        (2 * b03 * (a20 * b12 - b30), a20 * b03**2 + 8 * b12**2, 2 * b12 * b03),
}


@pytest.mark.parametrize("kind", KINDS, ids=["asymptotic", "characteristic"])
def test_alpha_is_phi_prime_minus_c3_p_squared(kind):
    """alpha(p) = phi'(p) - c3*p^2 for both closed forms, so the eigen
    product -phi'(r)*alpha(r) at a root r decides its type (see README);
    the quadratic is the printed asymptotic alpha and half the printed
    characteristic one."""
    a20, b30, b12, b03, p = sp.symbols("a20 b30 b12 b03 p")
    jet = EdgeJet(a20, 0, 0, b30, b12, b03)
    (c3, c2, c1, c0), quadratic, _ = closed_forms(jet, kind)
    alpha = sum(a * p**k for k, a in zip((2, 1, 0), quadratic))
    phi = c3 * p**3 + c2 * p**2 + c1 * p + c0
    assert sp.expand(alpha - (sp.diff(phi, p) - c3 * p**2)) == 0
    printed = _PRINTED_ALPHA[kind](a20, b30, b12, b03)
    factor = 1 if kind is FoliationKind.ASYMPTOTIC else sp.Rational(1, 2)
    for got, want in zip(quadratic, printed):
        assert sp.expand(got - factor * want) == 0


# the CI's flat.json: a generic jet whose small b20 puts the characteristic
# delta and its differential under CASE_TOL at the origin
FLAT_JET = EdgeJet(
    a20=1.8326254198917673, a30=-1.1288815147959674, b20=0.00016399349644413697,
    b30=0.8770688933117707, b12=-1.9014670044780781, b03=0.14352657812054792)


def test_classify_output_bytes_pinned():
    # sha256 of the classification JSON of the worked three-saddles and
    # one-saddle jets and twenty sampled Type-2 jets, both Type-2 kinds: the
    # per-root alpha and -phi' values are pinned to their last bit
    jets = [EdgeJet(0.0, 0.0, 0.0, 0.1, -1.0, 1.0),
            EdgeJet(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)]
    jets += [sample_generic_jet(seed, "edge_degenerate") for seed in range(20)]
    digest = hashlib.sha256()
    for jet in jets:
        for kind in KINDS:
            digest.update(classify_edge_foliation(jet, kind).to_json().encode())
    assert digest.hexdigest() == (
        "25f2e7495678a7bff5090e482fbda10ca1ffea7892351676f480365144f65355")


def test_classify_degenerate_on_stratum_never_raises():
    stratum_jets = [
        EdgeJet(0.0, 0.0, 0.0, 0.0, 1.0, 1.0),    # b30 - a20*b12 = 0
        EdgeJet(0.0, 0.0, 0.0, -4.0, 1.0, 1.0),   # 4*b12^3 + b03^2*b30 = 0
    ]
    for jet in stratum_jets:
        for kind in KINDS:
            cls = classify_edge_foliation(jet, kind)
            assert cls.top_class is TopClass.DEGENERATE
            assert cls.degenerate_reason


def test_classify_small_b20_is_a_cusp_family(full_builds):
    """A generic jet with a small b20: its characteristic delta and the
    differential of delta are under CASE_TOL at the origin, so `origin_case`
    reads DegenerateDiscriminant, but b20 != 0 is Case 2 transverse exactly,
    read without building the BDE."""
    cls = classify_edge_foliation(FLAT_JET, FoliationKind.CHARACTERISTIC)
    assert (cls.top_class, cls.case) == (TopClass.CUSP_FAMILY, Case.CASE2_TRANSVERSE)
    assert cls.degenerate_reason is None
    assert full_builds == []


def test_closed_form_analysis_error_lists_failures():
    with pytest.raises(PropositionHypothesisViolated) as info:
        closed_form_analysis(EdgeJet(0.0, 0.0, 1.0, 0.5, 0.0, 1.0),
                             FoliationKind.ASYMPTOTIC)
    assert "b20 = 0" in info.value.failed

    # b20 = 1e-12 is not b20 = 0: classify answers CuspFamily, and the
    # closed forms refuse the jet rather than analyse it as Type 2
    with pytest.raises(PropositionHypothesisViolated) as info:
        closed_form_analysis(EdgeJet(0.0, 0.0, 1e-12, 0.1, -1.0, 1.0),
                             FoliationKind.ASYMPTOTIC)
    assert info.value.failed == ["b20 = 0"]

    with pytest.raises(PropositionHypothesisViolated) as info:
        closed_form_analysis(EdgeJet(0.0, 0.0, 0.0, 0.0, 1.0, 1.0),
                             FoliationKind.ASYMPTOTIC)
    assert "b30 - a20*b12 != 0" in info.value.failed


# one case per form closed_forms returns: (cubic, alpha, discriminant)
@pytest.mark.parametrize("part", [0, 1, 2], ids=[
    "closed_form_cubic", "closed_form_alpha", "closed_form_discriminant"])
def test_closed_forms_refuse_lines_of_curvature(part):
    jet = EdgeJet(0.0, 0.0, 0.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="no Type-2 cubic"):
        closed_forms(jet, FoliationKind.LINES_OF_CURVATURE)[part]


def test_classify_and_build_share_one_cache_entry():
    # classification and tracing of one jet assemble its BDE once: the
    # trace's build, since classification builds no full BDE
    jet = sample_generic_jet(9, "edge_degenerate")
    build_geometric_bde.cache_clear()
    for kind in FoliationKind:
        classify_edge_foliation(jet, kind)
    build_geometric_bde(jet, FoliationKind.ASYMPTOTIC)
    info = build_geometric_bde.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)


def _items(poly):
    return [(key, type(c), c) for key, c in poly.terms.items()]


def test_two_jet_bde_is_the_full_bde_truncated():
    """The assembly at cap 2, which classification reads, is the full BDE's
    2-jet item for item (values, types and key order), and so is its delta
    2-jet."""
    jets = [sample_generic_jet(seed, scenario) for seed in range(200)
            for scenario in ("generic", "edge_degenerate")]
    jets += [EdgeJet(*(Fraction(x) for x in ("0", "0", "0", "1/10", "-1", "1"))),
             EdgeJet(Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4),
                     Fraction(1, 7), Fraction(-1), Fraction(3, 2))]
    for jet in jets:
        fp = form_polynomials(jet)
        for kind in FoliationKind:
            full = build_geometric_bde(jet, kind)
            jet2 = foliations._geometric_bde(jet, fp, kind, 2)
            for part, whole in zip((jet2.A, jet2.B, jet2.C),
                                   (full.A, full.B, full.C)):
                assert _items(part) == _items(whole.truncated(2)), (jet, kind)
            assert _items(discriminant_poly(jet2, 2)) \
                == _items(discriminant_poly(full, math.inf).truncated(2))


@pytest.fixture
def full_builds(monkeypatch):
    """The kinds whose full BDE classification builds, in call order."""
    calls = []

    def recording_build(jet, kind):
        calls.append(kind)
        return build_geometric_bde(jet, kind)

    monkeypatch.setattr(foliations, "build_geometric_bde", recording_build)
    return calls


def _full_bde_classification(jet, kind):
    """The classifier before the exact case rule, kept as a reference: the
    full BDE's case from `delta_and_case`, then its branch order."""
    inv = {}

    def degenerate(case, reason):
        return EdgeClassification(kind, TopClass.DEGENERATE, case, inv,
                                  degenerate_reason=reason)

    try:
        inv["b20"] = jet.b20
        inv["b30_minus_a20_b12"] = float(
            normal_curvature_derivative(jet.a20, jet.b30, jet.b12))
        inv["common_root_guard"] = float(
            common_root_guard(jet.b30, jet.b12, jet.b03))
        bde = build_geometric_bde(jet, kind)
        try:
            delta, case = delta_and_case(bde)
        except DegenerateDiscriminant as exc:
            return degenerate(None, f"{type(exc).__name__}: {exc}")
        if kind is FoliationKind.LINES_OF_CURVATURE:
            inv["b_origin"] = float(bde.B.coeff(0, 0))
            inv["delta_origin"] = float(delta.coeff(0, 0))
            if case is not Case.CASE1_REGULAR:
                return degenerate(case, f"unexpected case {case.value}")
            return EdgeClassification(kind, TopClass.REGULAR_PAIR, case, inv)
        if case is Case.CASE2_TANGENT:
            return degenerate(case, "unique direction tangent to the discriminant")
        if case is Case.CASE2_TRANSVERSE:
            return EdgeClassification(kind, TopClass.CUSP_FAMILY, case, inv)
        if case is not Case.CASE3:
            return degenerate(case, f"unexpected case {case.value}")
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
            return degenerate(case, f"{type(exc).__name__}: {exc}")
        return EdgeClassification(kind, top, case, inv, analysis=analysis)
    except OverflowError as exc:
        return degenerate(None, f"{type(exc).__name__}: {exc}")


def test_overflowing_jets_keep_their_bytes(full_builds):
    """a20 = 1e200 overflows the lines-of-curvature 2-jet, whose overflow is
    the reason; with b20 = 0 the other two kinds reach the closed forms,
    whose `**` overflow is theirs.  b12 = 1e150 overflows an invariant
    before any BDE is built.  The documents are the full-BDE classifier's,
    byte for byte, but for the characteristic a20 = 1e200 reason: its full
    BDE overflows before the closed forms, its 2-jet does not."""
    for record in OVERFLOW_JETS:
        jet = validate_jet(record)
        for kind in FoliationKind:
            got = classify_edge_foliation(jet, kind)
            want = _full_bde_classification(jet, kind)
            if record["a20"] == 1e200 and kind is FoliationKind.CHARACTERISTIC:
                assert want.degenerate_reason == (
                    "OverflowError: BDE coefficients overflow the float range")
                assert got.degenerate_reason.startswith("OverflowError: ")
                got = dataclasses.replace(got, degenerate_reason=want.degenerate_reason)
            assert got.to_json() == want.to_json(), (record, kind)
    assert full_builds == []


def test_two_jet_documents_equal_full_bde_documents(full_builds):
    """The exact case rule writes the documents that the full-BDE
    classifier (`_full_bde_classification`) gives every kind, byte for
    byte, on 2000 sampled jets, and builds no full BDE for them."""
    jets = [sample_generic_jet(seed, scenario) for seed in range(1000)
            for scenario in ("generic", "edge_degenerate")]
    for jet in jets:
        for kind in FoliationKind:
            assert classify_edge_foliation(jet, kind).to_json() \
                == _full_bde_classification(jet, kind).to_json(), (jet, kind)
    assert full_builds == []


MEMOS = (build_geometric_bde, form_polynomials)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _memo_polys(name, jet):
    if name == "surface_polynomials":
        return surface_polynomials(jet)
    if name == "form_polynomials":
        fp = form_polynomials(jet)
        return (*fp[:6], *fp.nu2)
    bdes = [build_geometric_bde(jet, kind) for kind in FoliationKind]
    return [f for bde in bdes for f in (bde.A, bde.B, bde.C)]


@pytest.mark.parametrize("name", [memo.__name__ for memo in MEMOS]
                         + ["surface_polynomials"])
@pytest.mark.parametrize("exact_first", [True, False],
                         ids=["exact-first", "float-first"])
def test_memos_keep_each_jet_in_its_coefficient_type(name, exact_first):
    """A Fraction jet gets Fraction polynomials and an equal float jet float
    ones, whichever of the two was memoized (or, for the unmemoized surface
    map, built) first (the structural coefficients, such as f1 = u, are ints
    in both)."""
    exact = EdgeJet(Fraction(0), Fraction(0), Fraction(0), Fraction(1, 8),
                    Fraction(-1), Fraction(1))
    floats = EdgeJet(0.0, 0.0, 0.0, 0.125, -1.0, 1.0)
    _clear_memos()
    order = (exact, floats) if exact_first else (floats, exact)
    types = {jet: {type(c) for poly in _memo_polys(name, jet)
                   for c in poly.terms.values()} for jet in order}
    assert Fraction in types[exact] and types[exact] <= {Fraction, int}
    assert float in types[floats] and types[floats] <= {float, int}


def test_memos_are_sized_to_one_request():
    """Classifying 300 fresh jets leaves at most REQUEST_JETS entries in each
    memo, and the tracked heap stops growing: over the second 150 jets it
    grows by less than 500 objects.  With 512-entry memos it grew by 3160
    (a bound about 6x below that, and well above the 0 measured at 8)."""
    assert {memo.cache_info().maxsize for memo in MEMOS} == {REQUEST_JETS}
    counts = []
    for seed in range(300):
        jet = sample_generic_jet(seed, ("generic", "edge_degenerate")[seed % 2])
        for kind in FoliationKind:
            classify_edge_foliation(jet, kind)
        if seed in (149, 299):
            gc.collect()
            counts.append(len(gc.get_objects()))
    assert all(memo.cache_info().currsize <= REQUEST_JETS for memo in MEMOS)
    assert counts[1] - counts[0] < 500


def test_memo_reuse_inside_one_request():
    # one classify request: the three foliations share one jet's forms
    jet = sample_generic_jet(11, "edge_degenerate")
    _clear_memos()
    for kind in FoliationKind:
        classify_edge_foliation(jet, kind)
    info = form_polynomials.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # one portrait request: build, classify, trace, CSV and surface view
    jet, kind = EdgeJet(0.0, 0.0, 0.0, 0.1, -1.0, 1.0), FoliationKind.ASYMPTOTIC
    _clear_memos()
    bde = build_geometric_bde(jet, kind)
    classify_edge_foliation(jet, kind)
    portrait = trace_portrait(bde, TraceConfig(box=0.15, seeds_per_side=8,
                                               max_steps=120))
    curves_to_csv(portrait, jet)
    project_to_surface(jet, portrait)
    builds = build_geometric_bde.cache_info()
    assert (builds.misses, builds.hits) == (1, 0)


def test_hypothesis_guard_example():
    jet = EdgeJet(0.0, 0.0, 0.0, -1.0, 1.0, 1.0)
    assert 4 * jet.b12**3 + jet.b03**2 * jet.b30 == 3.0
    assert hypothesis_failures(jet, FoliationKind.ASYMPTOTIC) == []


def _reflections(jet):
    """Jets of the reflected normal forms: the same surface germ, so the
    same topological class."""
    a20, a30, b20, b30, b12, b03 = (jet.a20, jet.a30, jet.b20, jet.b30,
                                    jet.b12, jet.b03)
    yield "u -> -u", EdgeJet(a20, -a30, b20, -b30, -b12, b03)
    yield "v -> -v", EdgeJet(a20, a30, b20, b30, b12, -b03)
    if b20 == 0:
        yield "x3 -> -x3, v -> -v", EdgeJet(a20, a30, b20, -b30, -b12, b03)


def test_top_class_invariant_under_normal_form_reflections():
    for scenario in ("generic", "edge_degenerate"):
        for seed in range(400):
            jet = sample_generic_jet(seed, scenario)
            for kind in FoliationKind:
                want = classify_edge_foliation(jet, kind).top_class
                for name, image in _reflections(jet):
                    got = classify_edge_foliation(image, kind).top_class
                    assert got is want, (scenario, seed, kind, name)


# the jets the CI step classifies: the flat jet and three whose float
# arithmetic overflows or nearly
MIRROR_CI_JETS = (
    FLAT_JET,
    EdgeJet(0.0, 0.0, 0.0, 0.1, 1e150, 1.0),
    EdgeJet(0.0, 0.0, 0.0, 0.1, 1e20, 1.0),
    EdgeJet(1e200, 0.0, 0.0, 0.1, -1.0, 1.0),
)


def test_mirrored_jet_classifies_as_the_mirror_image():
    """The jet reflected by u -> -u has the mirrored foliations, p -> -p and
    q -> -q: the same class, case and reason, and the negated roots with
    the same lifted types."""
    jets = [sample_generic_jet(seed, scenario) for seed in range(200)
            for scenario in ("generic", "edge_degenerate")]
    for jet in jets + list(MIRROR_CI_JETS):
        mirror = next(_reflections(jet))[1]
        for kind in FoliationKind:
            want, got = (classify_edge_foliation(j, kind) for j in (jet, mirror))
            assert (got.top_class, got.case, got.degenerate_reason) == (
                want.top_class, want.case, want.degenerate_reason), (jet, kind)
            assert (got.analysis is None) == (want.analysis is None)
            if want.analysis is None:
                continue
            assert got.analysis.chart == want.analysis.chart
            negated = sorted((-r.root, r.lifted_type) for r in want.analysis.per_root)
            assert [t for _, t in negated] == [
                r.lifted_type for r in got.analysis.per_root]
            for (root, _), r in zip(negated, got.analysis.per_root):
                assert abs(r.root - root) <= 1e-12 * max(1.0, abs(root))


def test_lines_of_curvature_at_a_huge_scale_are_a_regular_pair():
    """b12 = 1e20 makes the coefficient scale so large that B(0, 0) = 0.25
    falls under CASE_TOL, but delta(0, 0) = b03^2/16 > 0 is Case 1 for every
    jet: lines of curvature are a regular pair at any scale."""
    jet = validate_jet({"a20": 0, "a30": 0, "b20": 0, "b30": 0.1, "b12": 1e20,
                        "b03": 1})
    document = {
        "kind": "lc",
        "top_class": "RegularPair",
        "case": "Case1Regular",
        "invariants": {"b20": 0.0, "b30_minus_a20_b12": 0.1,
                       "common_root_guard": 4e60, "b_origin": 0.25,
                       "delta_origin": 0.0625},
        "convention_note": SIGN_CONVENTION_NOTE,
    }
    cls = classify_edge_foliation(jet, FoliationKind.LINES_OF_CURVATURE)
    assert cls.to_json() == json.dumps(document, indent=2)


def test_classification_serializes():
    jet = EdgeJet(0.0, 0.0, 0.0, 0.1, -1.0, 1.0)
    cls = classify_edge_foliation(jet, FoliationKind.ASYMPTOTIC)
    data = json.loads(cls.to_json())
    assert data["top_class"] == "ThreeSaddles"
    assert data["kind"] == "asymptotic"
    assert "convention_note" in data
    assert set(data["invariants"]) >= {"D", "phi", "alpha", "b20",
                                       "b30_minus_a20_b12", "common_root_guard"}


def test_fraction_classification_serializes_exact_values_as_numbers():
    jet = EdgeJet(*(Fraction(x) for x in ("0", "0", "0", "1/10", "-1", "1")))
    for kind in FoliationKind:
        cls = classify_edge_foliation(jet, kind)
        assert isinstance(cls.invariants["b20"], Fraction)
        data = json.loads(cls.to_json())
        assert data["invariants"]["b20"] == 0.0
        assert data["top_class"] == cls.top_class.value


OVERFLOW_JETS = (
    {"a20": 1e200, "a30": 0, "b20": 0, "b30": 0.1, "b12": -1, "b03": 1},
    {"a20": 0, "a30": 0, "b20": 0, "b30": 0.1, "b12": 1e150, "b03": 1},
)


@pytest.mark.parametrize("record", OVERFLOW_JETS)
@pytest.mark.parametrize("kind", tuple(FoliationKind))
def test_overflowing_jet_is_degenerate_not_raised(record, kind):
    cls = classify_edge_foliation(validate_jet(record), kind)
    assert cls.top_class is TopClass.DEGENERATE
    assert cls.degenerate_reason.startswith("OverflowError")
    data = json.loads(cls.to_json())
    assert data["top_class"] == "Degenerate"
    # an invariant the overflow stopped is left out, never written as inf
    assert all(math.isfinite(value) for value in data["invariants"].values())
    assert ("common_root_guard" in data["invariants"]) == (record["b12"] == -1)


def test_classifier_agrees_between_closed_form_and_derivative_routes():
    """classify via closed forms equals classify_type2 on the derivative-based
    cubic analysis of the constructed BDE."""
    for seed in range(80):
        jet = sample_generic_jet(seed, "edge_degenerate")
        for kind in KINDS:
            field = build_geometric_bde(jet, kind)
            delta, _ = delta_and_case(field)
            derivative_top = classify_type2(
                cubic_analysis(lift(field, CHART_Q)),
                hessian_det_origin(delta))
            closed_top = classify_edge_foliation(jet, kind).top_class
            assert derivative_top is closed_top
