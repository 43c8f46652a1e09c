"""Closed-form invariants of a cuspidal-edge jet.

Everything here is plain arithmetic on the six normal-form coefficients, so
exact number types (int, Fraction) survive end to end.  These formulas drive
both the rejection sampler's genericity margins and the closed-form foliation
classifier; the derivative-based BDE machinery re-derives them independently.

Division only ever happens by powers of two, which is exact for Fractions and
for binary floats alike.
"""

from __future__ import annotations


def cubic_discriminant(c3, c2, c1, c0):
    """Discriminant of c3 x^3 + c2 x^2 + c1 x + c0."""
    return (
        18 * c3 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2**2 * c1**2
        - 4 * c3 * c1**3
        - 27 * c3**2 * c0**2
    )


# --- asymptotic foliation (direction variable measured against dv) ---

def asymptotic_cubic(a20, b30, b12, b03):
    """Coefficients (c3, c2, c1, c0) of the singularity cubic when b20 = 0."""
    return (b30 - a20 * b12, -a20 * b03 / 2, 2 * b12, b03 / 2)


def asymptotic_discriminant(a20, b30, b12, b03):
    """Closed-form discriminant of the asymptotic singularity cubic."""
    return (
        a20**3 * b03**4
        + 13 * a20**2 * b03**2 * b12**2
        - b30 * (128 * b12**3 + 27 * b03**2 * b30)
        + 2 * a20 * (64 * b12**4 + 9 * b03**2 * b12 * b30)
    ) / 4


# --- characteristic foliation ---

def characteristic_cubic(a20, b30, b12, b03):
    return (
        b03 * (a20 * b12 - b30) / 2,
        (a20 * b03**2 + 8 * b12**2) / 4,
        b03 * b12,
        b03**2 / 4,
    )


def characteristic_discriminant(a20, b30, b12, b03):
    return -b03**2 * (
        a20**3 * b03**6
        + 11 * a20**2 * b03**4 * b12**2
        - 2 * a20 * (16 * b03**2 * b12**4 + 9 * b03**4 * b12 * b30)
        + 256 * b12**6
        + 160 * b03**2 * b12**3 * b30
        + 27 * b03**4 * b30**2
    ) / 64


# --- genericity strata ---

def normal_curvature_derivative(a20, b30, b12):
    """b30 - a20*b12: rate of change of the limiting normal curvature."""
    return b30 - a20 * b12


def common_root_guard(b30, b12, b03):
    """4*b12^3 + b03^2*b30: nonzero iff the singularity cubic and the
    eigenvalue quadratic have no common root."""
    return 4 * b12**3 + b03**2 * b30
