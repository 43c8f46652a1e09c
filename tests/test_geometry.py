"""Surface geometry: exact evaluation, fundamental forms, series report.

The independent oracle here is sympy: the parametrization is rebuilt
symbolically and differentiated by a completely separate code path.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from edgefol.errors import HigherTermsPresent
from edgefol.geometry import (
    form_polynomials,
    series_expansion_report,
    surface_polynomials,
)
from edgefol.jets import EdgeJet, HigherTerms, sample_generic_jet
from edgefol.poly import Poly2

WORKED = EdgeJet(1.0, 0.5, 0.25, -1.0, 0.75, 1.5)
WITH_HIGHER = EdgeJet(
    0.5, -0.25, 0.8, 1.0, -0.6, 1.2,
    HigherTerms(h1=(0.3, -0.2), h2=(0.1,), h3=(0.4, 0.05), h4=(-0.7,),
                h5=((0, 0, 0.2), (1, 1, -0.3))),
)


def _sympy_surface(jet):
    u, v = sp.symbols("u v")
    h = jet.higher

    def upoly(coeffs):
        return sum(c * u**k for k, c in enumerate(coeffs))

    f = sp.Matrix([
        u,
        jet.a20 * u**2 / 2 + jet.a30 * u**3 / 6 + v**2 / 2
        + u**4 * upoly(h.h1),
        jet.b20 * u**2 / 2 + jet.b30 * u**3 / 6 + jet.b12 * u * v**2 / 2
        + jet.b03 * v**3 / 6 + u**4 * upoly(h.h2)
        + u**2 * v**2 * upoly(h.h3) + u * v**3 * upoly(h.h4)
        + v**4 * sum(c * u**i * v**j for i, j, c in h.h5),
    ])
    return f, u, v


def _sympy_forms(jet):
    f, u, v = _sympy_surface(jet)
    fu, fv = f.diff(u), f.diff(v)
    nu2 = fu.cross(sp.expand(fv / v))
    forms = {
        "E": fu.dot(fu),
        "F": fu.dot(fv),
        "G": fv.dot(fv),
        "L2": f.diff(u, 2).dot(nu2),
        "M2": sp.expand(f.diff(u).diff(v).dot(nu2)),
        "N2": f.diff(v, 2).dot(nu2),
    }
    return {k: sp.expand(e) for k, e in forms.items()}, u, v


@pytest.mark.parametrize("jet", [WORKED, WITH_HIGHER, sample_generic_jet(5, "generic")])
def test_forms_match_sympy_oracle(jet):
    oracle, u, v = _sympy_forms(jet)
    rng = np.random.default_rng(2)
    fp = form_polynomials(jet)
    for _ in range(6):
        uu, vv = rng.uniform(-0.4, 0.4, size=2)
        for name in ("E", "F", "G", "L2", "M2", "N2"):
            want = float(oracle[name].subs({u: uu, v: vv}))
            got = float(getattr(fp, name)(uu, vv))
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12), name


def _partial(jet, u, v, i, j):
    """d^(i+j) f / du^i dv^j at (u, v), by exact differentiation."""
    polys = surface_polynomials(jet)
    for var, times in (("u", i), ("v", j)):
        for _ in range(times):
            polys = [p.diff(var) for p in polys]
    return tuple(p(u, v) for p in polys)


def test_eval_surface_origin_values():
    assert np.allclose(_partial(WORKED, 0.0, 0.0, 0, 0), (0.0, 0.0, 0.0))
    assert np.allclose(_partial(WORKED, 0.0, 0.0, 1, 0), (1.0, 0.0, 0.0))
    assert np.allclose(_partial(WORKED, 0.0, 0.0, 0, 1), (0.0, 0.0, 0.0))


def test_eval_surface_third_coordinate_polynomial():
    jet = EdgeJet(0.3, -0.9, 0.7, 1.1, -0.4, 2.0)
    u, v = 0.21, -0.34
    expect = (jet.b20 * u**2 / 2 + jet.b30 * u**3 / 6
              + jet.b12 * u * v**2 / 2 + jet.b03 * v**3 / 6)
    assert math.isclose(_partial(jet, u, v, 0, 0)[2], expect, rel_tol=1e-14)


def test_eval_surface_vvv_partial_is_cuspidal_curvature():
    assert np.allclose(_partial(WORKED, 0.0, 0.0, 0, 3), (0.0, 0.0, WORKED.b03))


def test_eval_surface_first_coordinate_is_u():
    f1, _, _ = surface_polynomials(WITH_HIGHER)
    assert f1.terms == {(1, 0): 1}


def test_edge_is_singular_set():
    # f_v(u, 0) = 0 identically
    fp = surface_polynomials(WITH_HIGHER)
    for poly in fp:
        dv = poly.diff("v")
        on_edge = {(i, j): c for (i, j), c in dv.terms.items() if j == 0}
        assert not on_edge


def test_forms_at_origin():
    jet = EdgeJet(1.25, 0.0, 0.75, 1.0, -0.5, 2.5)
    fp = form_polynomials(jet)
    assert (fp.E(0.0, 0.0), fp.F(0.0, 0.0), fp.G(0.0, 0.0)) == (1.0, 0.0, 0.0)
    # the v-factored quotients G/v^2, M2/v and N2/v, exact on the edge
    assert fp.G.divide_v().divide_v()(0.0, 0.0) == 1.0
    assert fp.L2(0.0, 0.0) == jet.b20
    assert fp.M2.divide_v()(0.0, 0.0) == jet.b12
    assert fp.N2.divide_v()(0.0, 0.0) == jet.b03 / 2


def test_printed_taylor_coefficients():
    jet = EdgeJet(0.6, -0.8, 0.9, 1.3, -1.1, 1.7)
    fp = form_polynomials(jet)
    assert math.isclose(fp.G.coeff(0, 4), jet.b03**2 / 4, rel_tol=1e-14)
    assert math.isclose(fp.L2.coeff(1, 0), jet.b30 - jet.a20 * jet.b12,
                        rel_tol=1e-14)


def test_factored_quantities_are_exact_polynomial_identities():
    for jet in (WORKED, WITH_HIGHER):
        fp = form_polynomials(jet)
        vv = {(0, 2): 1}
        v1 = {(0, 1): 1}
        assert (fp.G - fp.G.divide_v().divide_v() * Poly2(vv)) == Poly2()
        assert (fp.F - fp.F.divide_v() * Poly2(v1)) == Poly2()
        assert (fp.M2 - fp.M2.divide_v() * Poly2(v1)) == Poly2()
        assert (fp.N2 - fp.N2.divide_v() * Poly2(v1)) == Poly2()


def test_scaled_normal_orthogonal_to_tangents_exact():
    """With exact coefficients the orthogonality is an exact polynomial zero."""
    jet = EdgeJet(Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4),
                  Fraction(1), Fraction(-2, 5), Fraction(7, 6),
                  HigherTerms(h1=(Fraction(1, 3),), h3=(Fraction(2, 7),),
                              h5=((1, 1, Fraction(-1, 9)),)))
    f = surface_polynomials(jet)
    fu = tuple(p.diff("u") for p in f)
    fv = tuple(p.diff("v") for p in f)
    nu2 = form_polynomials(jet).nu2
    dot_u = fu[0] * nu2[0] + fu[1] * nu2[1] + fu[2] * nu2[2]
    dot_v = fv[0] * nu2[0] + fv[1] * nu2[1] + fv[2] * nu2[2]
    assert dot_u == Poly2()
    assert dot_v == Poly2()


def test_scaled_normal_orthogonal_to_tangents_float():
    for jet in (WORKED, WITH_HIGHER):
        f = surface_polynomials(jet)
        fu = tuple(p.diff("u") for p in f)
        fv = tuple(p.diff("v") for p in f)
        nu2 = form_polynomials(jet).nu2
        dot_u = fu[0] * nu2[0] + fu[1] * nu2[1] + fu[2] * nu2[2]
        dot_v = fv[0] * nu2[0] + fv[1] * nu2[1] + fv[2] * nu2[2]
        scale = max(p.max_abs() for p in nu2)
        assert dot_u.max_abs() <= 1e-14 * max(1.0, scale)
        assert dot_v.max_abs() <= 1e-14 * max(1.0, scale)


def test_second_form_matches_unit_normal_convention():
    """L2, M2, N2 equal |nu2| times the unit-normal second form off the edge."""
    rng = np.random.default_rng(11)
    for jet in (WORKED, WITH_HIGHER):
        for _ in range(5):
            u = float(rng.uniform(-0.3, 0.3))
            v = float(rng.uniform(0.05, 0.3)) * float(rng.choice([-1.0, 1.0]))
            fu = np.array(_partial(jet, u, v, 1, 0), dtype=float)
            fv = np.array(_partial(jet, u, v, 0, 1), dtype=float)
            nu2 = np.cross(fu, fv / v)
            norm = np.linalg.norm(nu2)
            unit = nu2 / norm
            fp = form_polynomials(jet)
            for name, partial in (("L2", (2, 0)), ("M2", (1, 1)), ("N2", (0, 2))):
                second = np.dot(np.array(_partial(jet, u, v, *partial),
                                         dtype=float), unit)
                assert math.isclose(
                    float(getattr(fp, name)(u, v)), norm * second, rel_tol=1e-9,
                    abs_tol=1e-12,
                ), name


def test_series_report_flags_only_l2_uv():
    jet = EdgeJet(0.7, 1.2, 0.4, -0.8, 0.9, 1.1)
    rows = series_expansion_report(jet)
    bad = [(r.quantity, r.monomial) for r in rows if not r.agree]
    assert bad == [("L2", "u^1 v^1")]


def test_series_report_disagreement_is_half_the_printed_value():
    jet = EdgeJet(Fraction(0), Fraction(1), Fraction(0), Fraction(0),
                  Fraction(0), Fraction(1))
    l2 = form_polynomials(jet).L2
    assert l2.coeff(1, 1) == Fraction(-1, 2)   # -a30*b03/2, printed -(a30*b03)


def test_series_report_zero_jet_all_forced():
    rows = series_expansion_report(EdgeJet(0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    for r in rows:
        if (r.quantity, r.monomial) in (("E", "u^0 v^0"), ("G", "u^0 v^2"),
                                        ("N2", "u^0 v^1"), ("G", "u^0 v^4")):
            assert r.agree and r.computed != 0.0
        elif (r.quantity, r.monomial) == ("L2", "u^1 v^1"):
            assert r.agree  # both sides vanish when a30 = 0
        else:
            assert r.agree


def test_series_report_requires_h_zero():
    with pytest.raises(HigherTermsPresent):
        series_expansion_report(WITH_HIGHER)


def test_delta_three_jet_reduction():
    """With b20 = b12 = 0 the asymptotic discriminant quadratic part reduces
    to its printed coefficients."""
    from edgefol.bde import discriminant_poly
    from edgefol.foliations import FoliationKind, build_geometric_bde

    jet = EdgeJet(0.8, 1.4, 0.0, -1.2, 0.0, 1.6)
    delta = discriminant_poly(build_geometric_bde(jet, FoliationKind.ASYMPTOTIC),
                              math.inf)
    assert math.isclose(delta.coeff(0, 2), jet.a20 * jet.b03**2 / 4,
                        rel_tol=1e-12)
    assert math.isclose(delta.coeff(1, 1), -jet.b03 * jet.b30 / 2,
                        rel_tol=1e-12)
    # uv^2 coefficient: a30*b03^2/4 for this family
    assert math.isclose(delta.coeff(1, 2), jet.a30 * jet.b03**2 / 4,
                        rel_tol=1e-12)
