"""Exact bivariate polynomial arithmetic in (u, v).

All surface geometry and BDE coefficients are small polynomials.  Keeping them
as sparse coefficient maps makes every quotient and Taylor coefficient exact
(ints and Fractions pass through untouched) and sidesteps finite differencing
entirely.  A compiled dense form backs fast vectorised evaluation for the
discriminant locus and the surface map.
"""

from __future__ import annotations

import math
from numbers import Number

import numpy as np


class Poly2:
    """Sparse polynomial sum c_ij * u^i * v^j, coefficient-type agnostic."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {ij: c for ij, c in (terms or {}).items() if c != 0}

    # --- constructors ---

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    @classmethod
    def from_univariate(cls, coeffs):
        """Polynomial in u alone, coefficients in ascending degree."""
        return cls({(k, 0): c for k, c in enumerate(coeffs)})

    # --- algebra ---

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        res = Poly2.__new__(Poly2)
        res.terms = out
        return res

    def __neg__(self):
        res = Poly2.__new__(Poly2)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Number):
            if other == 0:
                return Poly2()
            res = Poly2.__new__(Poly2)
            res.terms = {k: c * other for k, c in self.terms.items()}
            return res
        return self.product(other, math.inf)

    __rmul__ = __mul__

    def product(self, other, cap):
        """self * other without its terms above total degree `cap`, each
        dropped as it is multiplied.  A kept key sees the same additions in
        the same order, so the result equals (self * other).truncated(cap)
        as an item list: values, types and the order later sums follow."""
        right = [(i, j, i + j, c) for (i, j), c in other.terms.items()]
        out = {}
        for (i1, j1), c1 in self.terms.items():
            room = cap - i1 - j1
            for i2, j2, d2, c2 in right:
                if d2 > room:
                    continue
                key = (i1 + i2, j1 + j2)
                s = out.get(key, 0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        res = Poly2.__new__(Poly2)
        res.terms = out
        return res

    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    # --- calculus and structure ---

    def diff(self, var):
        out = {}
        for (i, j), c in self.terms.items():
            if var == "u" and i > 0:
                out[(i - 1, j)] = c * i
            elif var == "v" and j > 0:
                out[(i, j - 1)] = c * j
        res = Poly2.__new__(Poly2)
        res.terms = out
        return res

    def divide_v(self):
        """Exact quotient by v; raises if any term has no factor v."""
        out = {}
        for (i, j), c in self.terms.items():
            if j == 0:
                raise ValueError(f"not divisible by v: term u^{i}")
            out[(i, j - 1)] = c
        res = Poly2.__new__(Poly2)
        res.terms = out
        return res

    def truncated(self, max_total_degree):
        res = Poly2.__new__(Poly2)
        res.terms = {
            (i, j): c for (i, j), c in self.terms.items() if i + j <= max_total_degree
        }
        return res

    def coeff(self, i, j):
        return self.terms.get((i, j), 0)

    def max_abs(self):
        return max((abs(c) for c in self.terms.values()), default=0)

    # --- evaluation ---

    def __call__(self, u, v):
        total = 0
        for (i, j), c in self.terms.items():
            total = total + c * u**i * v**j
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly2(0)"
        parts = [
            f"{c}*u^{i}*v^{j}"
            for (i, j), c in sorted(self.terms.items())
        ]
        return "Poly2(" + " + ".join(parts) + ")"


def power_table(x, degree):
    """x**e for e = 0..degree as an (n, degree + 1) array, filled degree by
    degree as x^(e-1) * x: the products and layout of
    np.vander(x, degree + 1, increasing=True), so sums over it keep their
    bits, without vander's strided accumulate (6x slower at 5000 points)."""
    table = np.empty((len(x), degree + 1))
    table[:, 0] = 1.0
    for e in range(1, degree + 1):
        np.multiply(table[:, e - 1], x, out=table[:, e])
    return table


class CompiledPolySet:
    """Several polynomials evaluated in one einsum against shared power tables."""

    __slots__ = ("mats", "du", "dv")

    def __init__(self, polys):
        du = max(max((i for (i, _) in p.terms), default=0) for p in polys)
        dv = max(max((j for (_, j) in p.terms), default=0) for p in polys)
        mats = np.zeros((len(polys), du + 1, dv + 1))
        for k, p in enumerate(polys):
            for (i, j), c in p.terms.items():
                mats[k, i, j] = float(c)
        self.mats = mats
        self.du = du
        self.dv = dv

    def values(self, u, v):
        """Evaluate every polynomial at the 1-D points (u, v); returns an
        array of shape (npolys, n)."""
        return np.einsum("...i,kij,...j->k...", power_table(u, self.du),
                         self.mats, power_table(v, self.dv))
