"""Polynomial engine: algebra, exact quotients, compiled evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefol.poly import CompiledPolySet, Poly2, power_table

coeffs = st.integers(min_value=-5, max_value=5)
polys = st.builds(
    Poly2,
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs, max_size=8
    ),
)
mixed_polys = st.builds(   # int and float coefficients, cancelling and not
    Poly2,
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.one_of(coeffs, st.floats(-3, 3, allow_nan=False)), max_size=8,
    ),
)
points = st.tuples(
    st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
)


@given(polys, polys, points)
@settings(max_examples=200, deadline=None)
def test_ring_operations_match_pointwise(p, q, pt):
    u, v = pt
    assert np.isclose(float((p + q)(u, v)), float(p(u, v) + q(u, v)), atol=1e-6)
    assert np.isclose(float((p - q)(u, v)), float(p(u, v) - q(u, v)), atol=1e-6)
    assert np.isclose(
        float((p * q)(u, v)), float(p(u, v)) * float(q(u, v)), rtol=1e-9,
        atol=1e-6,
    )


@given(polys, points)
@settings(max_examples=100, deadline=None)
def test_differentiation_product_rule(p, pt):
    u, v = pt
    q = Poly2({(1, 1): 2, (0, 2): -3})
    lhs = (p * q).diff("u")
    rhs = p.diff("u") * q + p * q.diff("u")
    assert lhs.terms == rhs.terms


@given(polys)
@settings(max_examples=100, deadline=None)
def test_divide_v_roundtrip(p):
    shifted = p * Poly2.monomial(0, 1)
    assert shifted.divide_v().terms == p.terms


def test_divide_v_rejects_constant_term():
    with pytest.raises(ValueError):
        (Poly2.monomial(0, 0, 1) + Poly2.monomial(0, 1)).divide_v()


def test_fraction_coefficients_stay_exact():
    p = Poly2({(1, 0): Fraction(1, 3), (0, 2): Fraction(2, 7)})
    q = p * p
    assert q.coeff(2, 0) == Fraction(1, 9)
    assert q.coeff(1, 2) == 2 * Fraction(1, 3) * Fraction(2, 7)
    assert p(Fraction(1, 2), Fraction(1, 5)) == \
        Fraction(1, 3) * Fraction(1, 2) + Fraction(2, 7) * Fraction(1, 25)


def _items(p):
    return [(key, type(c), c) for key, c in p.terms.items()]


@given(mixed_polys, mixed_polys, mixed_polys, st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_capped_product_is_the_truncated_product(p, q, r, cap):
    """Poly2.product drops the terms above its cap as it multiplies, and
    keeps the item list of the truncated full product: values, types and
    key order.  So sums and products over capped products keep their bits."""
    assert _items(p.product(q, cap)) == _items((p * q).truncated(cap))
    assert _items(p.product(q, cap) - r.product(p, cap).product(q, cap)) \
        == _items((p * q - r * p * q).truncated(cap))


def test_truncation_drops_only_high_degrees():
    p = Poly2({(0, 0): 1, (2, 1): 4, (3, 3): 5})
    t = p.truncated(3)
    assert t.coeff(2, 1) == 4
    assert t.coeff(3, 3) == 0
    assert t.coeff(0, 0) == 1


@given(polys, st.lists(points, min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_compiled_matches_scalar_eval(p, pts):
    us = np.array([a for a, _ in pts])
    vs = np.array([b for _, b in pts])
    batch = CompiledPolySet([p]).values(us, vs)[0]
    for k, (u, v) in enumerate(pts):
        assert np.isclose(batch[k], float(p(u, v)), rtol=1e-12, atol=1e-9)


def test_compiled_set_evaluates_all_members():
    ps = [Poly2.monomial(1, 0), Poly2.monomial(0, 1), Poly2.monomial(0, 0, 3.0)]
    cset = CompiledPolySet(ps)
    vals = cset.values(np.array([2.0]), np.array([5.0]))
    assert vals.shape == (3, 1)
    assert np.allclose(vals[:, 0], [2.0, 5.0, 3.0])


@pytest.mark.parametrize("n", [1, 60, 512, 5000])
def test_power_table_keeps_the_bits_of_vander(n):
    """power_table is np.vander's table, bit for bit and in its layout, so
    the einsum of CompiledPolySet.values sums in the same order."""
    rng = np.random.default_rng(n)
    u, v = rng.uniform(-1.5, 1.5, (2, n))
    mats = rng.normal(size=(3, 8, 6)) * 10.0 ** rng.integers(-5, 5, (3, 8, 6))
    for x, degree in ((u, 7), (v, 5), (u, 0)):
        assert np.array_equal(power_table(x, degree),
                              np.vander(x, degree + 1, increasing=True))
    cset = CompiledPolySet([Poly2({ij: float(c) for ij, c in np.ndenumerate(m)})
                            for m in mats])
    assert np.array_equal(cset.mats, mats)
    reference = np.einsum("...i,kij,...j->k...", np.vander(u, 8, increasing=True),
                          mats, np.vander(v, 6, increasing=True))
    assert np.array_equal(cset.values(u, v), reference)
