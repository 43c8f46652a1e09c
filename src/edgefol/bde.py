"""Generic binary-differential-equation engine.

A BDE is the tensor A dv^2 + 2B dudv + C du^2 with polynomial coefficients.
Directions are tracked in two affine charts of the projective direction line:

    chart "p": p = dv/du,  F(u, v, p) = A p^2 + 2B p + C
    chart "q": q = du/dv,  F(u, v, q) = A + 2B q + C q^2

The lifted field on the surface M = {F = 0} is, per chart,

    chart "p": xi = (F_p, p F_p, -(F_u + p F_v))
    chart "q": xi = (q F_q, F_q, -(q F_u + F_v))

both of which satisfy grad F . xi == 0 identically, so integral curves stay on
every level set of F exactly.  The chart-q equation of (A, B, C) is the
chart-p equation of the u/v swapped tensor (C, B, A): a relabelling.  That
chart rule lives here alone: `DUAL` names the other chart,
`CubicAnalysis.roots_in` reads the singular roots there, `BdeField.chart_q`
writes the swap, once per BDE, and `chart_tensor` hands out either chart's
tensor.  `LiftedEquation` and the one compiled evaluator, `_ChartCore` (F,
F_w, F_x and F_p of both charts in one table of monomials over the internal
coordinates), both read it.  The tracer's RK4 loop, the fiber Newton solve,
the differenced Jacobian of the eigenvalue oracle and the tangency oracle of
`verify` read the table.  A `BdeField` owns its evaluator (`BdeField.core`),
compiled once on first use.

Over an all-coefficients-vanish point the fiber {(0,0)} x R lies in M and the
zeros of xi on it are the roots of a cubic phi; the linearization at a zero
(`LiftedEquation.jacobian`, exact and lower triangular, as the fiber is
invariant) has eigenvalues alpha(p_i) and -phi'(p_i).  `eigenvalues`
evaluates them, for the Jacobian and for `analyse_cubic`, which reads the
cubic off the BDE (`cubic_analysis`) and the closed forms alike.  The sign
of their product decides saddle (negative) versus node (positive); this is
the convention used by the topological classifier and confirmed by the
sector-count oracle in the tracer module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    CommonRoot,
    DegenerateDiscriminant,
    DiscriminantNearZero,
    FiberNotConverged,
    HessianNonNegative,
    InvariantViolation,
)
from .invariants import cubic_discriminant
from .poly import Poly2

CASE_TOL = 1e-10
DISCRIMINANT_TOL = 1e-9
COMMON_ROOT_TOL = 1e-9
JACOBIAN_STEP = 1e-4     # restricted_jacobian's step, before |root| scaling

SADDLE = "saddle"
NODE = "node"

SIGN_CONVENTION_NOTE = (
    "a lifted zero is a saddle iff alpha(p_i) * (-phi'(p_i)) < 0 "
    "(eigenvalues of opposite sign); confirmed by sector counting"
)


class Case(str, Enum):
    CASE1_REGULAR = "Case1Regular"
    CASE1_DISCRIMINANT = "Case1Discriminant"
    CASE2_TRANSVERSE = "Case2Transverse"
    CASE2_TANGENT = "Case2Tangent"
    CASE3 = "Case3"


class TopClass(str, Enum):
    REGULAR_PAIR = "RegularPair"
    CUSP_FAMILY = "CuspFamily"
    THREE_SADDLES = "ThreeSaddles"
    TWO_SADDLES_ONE_NODE = "TwoSaddlesOneNode"
    ONE_SADDLE_TWO_NODES = "OneSaddleTwoNodes"
    ONE_SADDLE = "OneSaddle"
    ONE_NODE = "OneNode"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class BdeField:
    """Coefficients of omega = A dv^2 + 2B dudv + C du^2."""

    A: Poly2
    B: Poly2
    C: Poly2

    def coefficient_scale(self) -> float:
        return max(float(f.max_abs()) for f in (self.A, self.B, self.C))

    def origin_values(self):
        return tuple(float(f.coeff(0, 0)) for f in (self.A, self.B, self.C))

    @cached_property
    def chart_q(self) -> tuple:
        """Chart q's tensor (`chart_tensor`): (C, B, A) with u and v swapped,
        the one place the swap is written, once per BDE on first use."""
        swapped = (Poly2(), Poly2(), Poly2())   # the terms as stored, as in chart p
        for s, f in zip(swapped, (self.C, self.B, self.A)):
            s.terms = {(j, i): c for (i, j), c in f.terms.items()}
        return swapped

    @cached_property
    def core(self) -> _ChartCore:
        """The compiled lifted field, built once per BDE on first use."""
        return _ChartCore(self)


def discriminant_poly(bde: BdeField, cap) -> Poly2:
    """delta = B^2 - A*C, exact through total degree `cap` (math.inf: all of
    it), from A, B and C truncated at `cap` with each product capped there:
    `discriminant_poly(bde, math.inf).truncated(cap)`, item for item."""
    A, B, C = (f.truncated(cap) for f in (bde.A, bde.B, bde.C))
    return B.product(B, cap) - A.product(C, cap)


def unique_direction_at_origin(bde: BdeField):
    """The single direction (du, dv) of a Type-1 point with delta(0) = 0."""
    a0, b0, c0 = bde.origin_values()
    d1 = (a0, -b0)   # annihilates the form when delta(0) = 0
    d2 = (-b0, c0)
    return d1 if math.hypot(*d1) >= math.hypot(*d2) else d2


def delta_and_case(bde: BdeField):
    """2-jet of delta = B^2 - A*C (all that classify reads) and origin case,
    split by `origin_case` at the BDE's coefficient scale."""
    scale = bde.coefficient_scale()
    delta = discriminant_poly(bde, 2)
    return delta, origin_case(bde, delta, scale)


def origin_case(bde: BdeField, delta: Poly2, scale: float) -> Case:
    """Origin case of a BDE from its values at the origin, its discriminant
    `delta` (read to degree 1: the 2-jet will do) and its coefficient scale:
    the one case split.  `delta_and_case` and `tracer.trace_portrait` read
    it at the BDE's own scale, classification at both ends of a scale
    bracket (`foliations._origin_case`).

    Zero tests are scale-free: coefficients are normalized by `scale`, the
    largest coefficient magnitude, before comparing against CASE_TOL.  Each
    test is monotone in `scale`, so as it grows the outcome moves through
    Case 1, Case 2, DegenerateDiscriminant and Case 3, each holding on one
    interval of scales.
    """
    if scale == 0.0:
        raise ValueError("zero BDE")
    if not math.isfinite(scale):
        raise OverflowError("BDE coefficients overflow the float range")
    a0, b0, c0 = bde.origin_values()
    if max(abs(a0), abs(b0), abs(c0)) <= scale * CASE_TOL:
        return Case.CASE3

    d0 = float(delta.coeff(0, 0))
    dscale = scale * scale
    if d0 > dscale * CASE_TOL:
        return Case.CASE1_REGULAR
    if d0 < -dscale * CASE_TOL:
        return Case.CASE1_DISCRIMINANT

    grad = (float(delta.coeff(1, 0)), float(delta.coeff(0, 1)))
    gnorm = math.hypot(*grad)
    if gnorm <= dscale * CASE_TOL:
        raise DegenerateDiscriminant(
            "delta and its differential both vanish at the origin "
            "while the coefficients do not"
        )
    direction = unique_direction_at_origin(bde)
    dnorm = math.hypot(*direction)
    alignment = (grad[0] * direction[0] + grad[1] * direction[1]) / (gnorm * dnorm)
    if abs(alignment) > CASE_TOL:
        return Case.CASE2_TRANSVERSE
    return Case.CASE2_TANGENT


# --- lifted equation and field ---

CHART_P = "p"
CHART_Q = "q"
DUAL = {CHART_P: CHART_Q, CHART_Q: CHART_P}   # the other affine chart
EVAL_BLOCK = 2048    # rows per table evaluation: bounds its temporaries


def chart_tensor(bde: BdeField, chart: str):
    """The chart's tensor (a, b, c) over the internal (w, x), with
    F = a p^2 + 2b p + c: (A, B, C) in chart p, the u/v-swapped (C, B, A)
    in chart q, which the BDE holds (`BdeField.chart_q`)."""
    return (bde.A, bde.B, bde.C) if chart == CHART_P else bde.chart_q


def _chart_columns(a: Poly2, b: Poly2, c: Poly2):
    """F = a p^2 + 2b p + c of a tensor over (w, x) = (u, v), and F_w, F_x,
    F_p: each a map (i, j, k) -> exact coefficient of w^i x^j p^k."""
    by_power = ((c, 2 * b, a),
                (c.diff("u"), 2 * b.diff("u"), a.diff("u")),
                (c.diff("v"), 2 * b.diff("v"), a.diff("v")),
                (2 * b, 2 * a))
    return [{(i, j, k): coeff for k, f in enumerate(fs)
             for (i, j), coeff in f.terms.items()} for fs in by_power]


class _ChartCore:
    """The compiled lifted field of a BDE in both charts.

    It is the one evaluator of F, grad F and xi (`xi` is the field's one
    formula): the integrator, the fiber Newton solve, the differenced
    Jacobian and the tangency oracle all read it, through the
    `BdeField.core` that compiles it once per BDE.  State rows are internal
    coordinates (w, x, p): (u, v, p) in chart p and (v, u, q) in chart q.
    F, F_w, F_x and F_p of both charts are derived exactly from
    `chart_tensor` and stored as one table over a shared list of monomials
    w^i x^j p^k (a column per chart and value).
    """

    def __init__(self, bde: BdeField):
        columns = [column for chart in (CHART_P, CHART_Q)
                   for column in _chart_columns(*chart_tensor(bde, chart))]
        monomials = sorted(set().union(*columns))
        self.table = np.array([[float(col.get(m, 0)) for col in columns]
                               for m in monomials]).reshape(-1, 8)
        exponents = np.array(monomials, dtype=np.intp).reshape(-1, 3)
        self.degree = int(exponents.max(initial=0))
        # each monomial's three factors, as rows of the power table below
        self.factors = (3 * exponents + np.arange(3)).T.copy()

    def F_and_gradient(self, S, q):
        """(F, F_w, F_x, F_p) per internal row; `q` is a chart-q mask or one
        chart for every row.  Rows are evaluated in blocks of EVAL_BLOCK,
        each on its own: a row's bits do not depend on its batch."""
        out = np.empty((8, len(S)))
        for lo in range(0, len(S), EVAL_BLOCK):
            block = S[lo:lo + EVAL_BLOCK]
            # powers[e * 3 + c] = (column c of the rows) ** e
            powers = np.empty((self.degree + 1, 3, len(block)))
            powers[0] = 1.0
            powers[1:] = block.T
            np.multiply.accumulate(powers, axis=0, out=powers)
            powers = powers.reshape(-1, len(block))
            # the monomials, multiplied in place: one (3, monomials, rows)
            # gather would triple a block's peak memory
            i, j, k = self.factors
            monomials = powers[i]
            monomials *= powers[j]
            monomials *= powers[k]
            # einsum, not `@`: BLAS sums a row differently in other batches
            np.einsum("mr,mc->cr", monomials, self.table,
                      out=out[:, lo:lo + EVAL_BLOCK])
        return tuple(np.where(q, out[4:], out[:4]))

    @staticmethod
    def xi(p, Fu, Fv, Fp):
        """The lifted field (F_p, p F_p, -(F_u + p F_v)), a row per p."""
        out = np.empty((len(p), 3))
        out[:, 0], out[:, 1], out[:, 2] = Fp, p * Fp, -(Fu + p * Fv)
        return out

    def rhs(self, S, q, normalize):
        """`xi` per internal row, scaled to unit length if `normalize`."""
        out = self.xi(S[:, 2], *self.F_and_gradient(S, q)[1:])
        if normalize:
            norms = np.sqrt(np.einsum("ij,ij->i", out, out))
            out /= (norms + 1e-300)[:, None]
        return out

    def residual(self, S, q):
        return self.F_and_gradient(S, q)[0]

    def residual_and_fp(self, S, q):
        F, _, _, Fp = self.F_and_gradient(S, q)
        return F, Fp

    def project_gradient(self, S, q):
        """One Newton step for F = 0 along the full gradient (in place).

        Unlike the p-only projection this also works where F_p vanishes
        (near the discriminant and in slow channels along the edge)."""
        F, Fu, Fv, Fp = self.F_and_gradient(S, q)
        gn2 = Fu * Fu + Fv * Fv + Fp * Fp
        ok = gn2 > 1e-24
        scale = np.where(ok, F / np.where(ok, gn2, 1.0), 0.0)
        S[:, 0] -= scale * Fu
        S[:, 1] -= scale * Fv
        S[:, 2] -= scale * Fp


@dataclass(frozen=True)
class LiftedEquation:
    """A BDE lifted to one affine chart of the direction line."""

    bde: BdeField
    chart: str

    def __post_init__(self):
        if self.chart not in DUAL:
            raise ValueError(f"unknown chart {self.chart!r}")

    def _terms(self, *exponents):
        """Per entry P of `chart_tensor`, the floats P_ij of w^i x^j."""
        return [[float(f.terms.get(ij, 0)) for ij in exponents]
                for f in chart_tensor(self.bde, self.chart)]

    @cached_property
    def _linear(self):
        return self._terms((0, 1), (1, 0))

    def phi_coefficients(self):
        """(c3, c2, c1, c0) of the singularity cubic phi = F_w + p F_x."""
        (a01, a10), (b01, b10), (c01, c10) = self._linear
        return (a01, a10 + 2 * b01, 2 * b10 + c01, c10)

    def alpha_coefficients(self):
        """(a2, a1, a0) of the transverse eigenvalue alpha = F_pw + p F_px."""
        (a01, a10), (b01, b10), _ = self._linear
        return (2 * a01, 2 * (b01 + a10), 2 * b10)

    def jacobian(self, root: float) -> np.ndarray:
        """The exact linearization of the field on M at (0, 0, root), over
        (w, chart variable): `eigenvalues` alpha and -phi' on the diagonal, 0
        above it (the fiber lies in M) and -(F_ww + 2 root F_wx + root^2
        F_xx) below (M's x-slope is root)."""
        alpha, minus_dphi = eigenvalues(self.phi_coefficients(),
                                        self.alpha_coefficients(), root)
        a, b, c = (polyval(terms, root)
                   for terms in self._terms((0, 2), (1, 1), (2, 0)))
        return np.array([[alpha, 0.0],
                         [-2.0 * polyval((a, 2 * b, c), root), minus_dphi]])


def lift(bde: BdeField, chart: str) -> LiftedEquation:
    return LiftedEquation(bde, chart)


# --- cubic root solving ---

def polyval(coeffs, x):
    """Horner evaluation, highest-degree coefficient first."""
    total = 0.0
    for c in coeffs:
        total = total * x + c
    return total


def solve_quadratic(a, b, c):
    """Real roots of a x^2 + b x + c, stable form, ascending."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    q = -(b + math.copysign(s, b)) / 2.0 if b != 0.0 else s / 2.0
    if q != 0.0:
        roots = [q / a, c / q]
    else:
        roots = [0.0, -b / a]
    return sorted(roots)


def solve_cubic_real(c3, c2, c1, c0):
    """Real roots of a cubic with c3 != 0, ascending.

    Trigonometric branch for three real roots, Cardano for one, followed by
    two Newton steps against the original coefficients.
    """
    if c3 == 0.0:
        return solve_quadratic(c2, c1, c0)
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc > 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - shift
                 for k in range(3)]
    else:
        if p == 0.0 and q == 0.0:
            roots = [-shift]
        else:
            half_q = q / 2.0
            s = math.sqrt(max(0.0, q * q / 4.0 + p**3 / 27.0))
            t1 = math.copysign(abs(-half_q + s) ** (1.0 / 3.0), -half_q + s)
            t2 = math.copysign(abs(-half_q - s) ** (1.0 / 3.0), -half_q - s)
            roots = [t1 + t2 - shift]

    coeffs = (c3, c2, c1, c0)
    deriv = (3.0 * c3, 2.0 * c2, c1)
    polished = []
    for x in roots:
        for _ in range(2):
            fx = polyval(coeffs, x)
            dfx = polyval(deriv, x)
            if dfx != 0.0:
                x = x - fx / dfx
        polished.append(x)
    return sorted(polished)


# --- cubic analysis at a Type-2 point ---

@dataclass(frozen=True)
class RootData:
    root: float
    alpha: float
    minus_phi_prime: float
    eigen_product: float
    lifted_type: str


@dataclass(frozen=True)
class CubicAnalysis:
    chart: str
    phi: tuple
    alpha: tuple
    D: float
    D_normalized: float
    roots: tuple
    per_root: tuple

    def saddle_count(self) -> int:
        return sum(1 for r in self.per_root if r.lifted_type == SADDLE)

    def roots_in(self, chart: str) -> tuple:
        """The roots in `chart`: in the dual chart their reciprocals, with a
        zero root (vertical there) left out."""
        return self.roots if chart == self.chart else tuple(
            1.0 / r for r in self.roots if r != 0.0)


def eigenvalues(phi, alpha, r):
    """(alpha(r), -phi'(r)), the eigenvalues at the lifted zero (0, 0, r), of
    the cubic phi and eigenvalue quadratic alpha (highest degree first)."""
    return (alpha[0] * r * r + alpha[1] * r + alpha[2],
            -(3.0 * phi[0] * r * r + 2.0 * phi[1] * r + phi[2]))


def analyse_cubic(phi, alpha, chart: str) -> CubicAnalysis:
    """Roots of the singularity cubic phi and the eigenvalues alpha(p_i) and
    -phi'(p_i) at each, from float coefficients (highest degree first)."""
    phi_scale = max(abs(x) for x in phi)
    if phi_scale == 0.0:
        raise DiscriminantNearZero("singularity cubic vanishes identically")
    d_normalized = float(cubic_discriminant(*(c / phi_scale for c in phi)))
    d_value = float(cubic_discriminant(*phi))
    if abs(d_normalized) < DISCRIMINANT_TOL:
        raise DiscriminantNearZero(
            f"normalized cubic discriminant {d_normalized:.3e} below "
            f"{DISCRIMINANT_TOL:.1e}"
        )

    roots = solve_cubic_real(*phi)
    expected = 3 if d_normalized > 0 else 1
    if len(roots) != expected:  # pragma: no cover - solver/sign mismatch guard
        raise InvariantViolation(
            f"discriminant sign predicts {expected} real roots, solver found {len(roots)}"
        )

    alpha_scale = max(abs(x) for x in alpha) if any(alpha) else 1.0
    per_root = []
    for r in roots:
        a_val, mpp = eigenvalues(phi, alpha, r)
        if abs(a_val) / alpha_scale < COMMON_ROOT_TOL:
            raise CommonRoot(
                f"alpha({r:.6g}) = {a_val:.3e} vanishes; cubic and eigenvalue "
                "quadratic share a root"
            )
        prod = a_val * mpp
        per_root.append(RootData(
            root=r, alpha=a_val, minus_phi_prime=mpp, eigen_product=prod,
            lifted_type=SADDLE if prod < 0 else NODE,
        ))
    return CubicAnalysis(
        chart=chart, phi=tuple(phi), alpha=tuple(alpha), D=d_value,
        D_normalized=d_normalized, roots=tuple(roots), per_root=tuple(per_root),
    )


def cubic_analysis(eq: LiftedEquation) -> CubicAnalysis:
    """Roots and eigen data of the singularity cubic of a Type-2 BDE.

    If the cubic's leading coefficient vanishes in the requested chart (a
    direction at infinity), the dual chart is analyzed instead and the result
    reported there; the two charts cover the projective direction line.
    """
    phi = eq.phi_coefficients()
    phi_scale = max(abs(x) for x in phi)
    if phi_scale != 0.0 and abs(phi[0]) <= 1e-12 * phi_scale:
        eq = LiftedEquation(eq.bde, DUAL[eq.chart])
        phi = eq.phi_coefficients()
        if abs(phi[0]) <= 1e-12 * max(abs(x) for x in phi):
            raise DiscriminantNearZero(
                "cubic leading coefficient vanishes in both charts"
            )
    return analyse_cubic(phi, eq.alpha_coefficients(), eq.chart)


def hessian_det_origin(delta: Poly2) -> float:
    """det Hess delta(0,0) from the quadratic part of delta."""
    duu = 2.0 * float(delta.coeff(2, 0))
    dvv = 2.0 * float(delta.coeff(0, 2))
    duv = float(delta.coeff(1, 1))
    return duu * dvv - duv * duv


def classify_type2(analysis: CubicAnalysis, hess: float) -> TopClass:
    """Topological class of a Type-2 BDE from eigen-product signs.

    Requires det Hess delta(0,0) < 0 and a clean discriminant sign.  With
    three roots the saddle count 3/2/1 picks the class; zero saddles is
    impossible and raises.  With one root the eigen-product sign decides
    saddle versus node.
    """
    if hess >= 0:
        raise HessianNonNegative(f"det Hess delta(0,0) = {hess:.3e} >= 0")
    if analysis.D_normalized > 0:
        saddles = analysis.saddle_count()
        if saddles == 3:
            return TopClass.THREE_SADDLES
        if saddles == 2:
            return TopClass.TWO_SADDLES_ONE_NODE
        if saddles == 1:
            return TopClass.ONE_SADDLE_TWO_NODES
        raise InvariantViolation(
            "three real roots with all eigen products positive cannot occur"
        )
    root = analysis.per_root[0]
    return TopClass.ONE_SADDLE if root.lifted_type == SADDLE else TopClass.ONE_NODE


# --- restricted-field oracle helpers ---

def solve_fiber_coordinate(eq: LiftedEquation, v, p, start):
    """Solve F(., v, p) = 0 for the remaining coordinate by Newton.

    In chart q the surface M is a graph u = u(v, q) near a singular point
    with F_u != 0; in chart p it is a graph v = v(u, p).  Either way the
    internal row is (v, x, p) and the Newton step uses F_x.  `start` seeds
    the iteration, which stops once a step is below 1e-13 or after 30
    steps.  `v`, `p` and `start` may be arrays: each entry is solved on its
    own, all in one evaluation per iteration.  Returns the solved
    coordinate(s).
    """
    v, x, p = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                    for a in (v, start, p)))
    rows = np.stack([v.ravel(), x.ravel(), p.ravel()], axis=1)
    live = np.arange(len(rows))
    for _ in range(30):
        f, _, df, _ = eq.bde.core.F_and_gradient(rows[live], eq.chart == CHART_Q)
        moving = df != 0.0
        step = f[moving] / df[moving]
        live = live[moving]
        rows[live, 1] -= step
        live = live[np.abs(step) >= 1e-13]
        if live.size == 0:
            break
    x = rows[:, 1].reshape(v.shape)
    return float(x) if x.ndim == 0 else x


def restricted_jacobian(eq: LiftedEquation, root: float) -> np.ndarray:
    """Numerically differenced Jacobian of the lifted field restricted to M.

    The surface is parameterized by the base fiber coordinate and the chart
    variable near (0, 0, root); Richardson-extrapolated central differences
    around the singular point give the oracle of `LiftedEquation.jacobian`,
    with eigenvalues alpha(root) and -phi'(root).  Raises FiberNotConverged
    when a difference point's fiber solve did not land on M.
    """
    # Derivatives of the graph u(v, p) grow like powers of |root|, so the
    # base-direction step must shrink accordingly to keep the difference
    # quotient in the linear regime.
    scale = 1.0 + abs(root)
    h_base = JACOBIAN_STEP / scale**1.5
    h_chart = JACOBIAN_STEP * scale

    points = []                  # (w, p) at +-hb and +-hc, for k = 1, 2
    for k in (1, 2):
        hb, hc = h_base / k, h_chart / k
        points += [(hb, root), (-hb, root), (0.0, root + hc), (0.0, root - hc)]
    w, p = np.array(points).T
    x = solve_fiber_coordinate(eq, w, p, start=root * w)
    F, Fu, Fv, Fp = eq.bde.core.F_and_gradient(np.column_stack([w, x, p]),
                                               eq.chart == CHART_Q)
    worst = float(np.max(np.abs(F)))
    bound = 1e-9 * max(1.0, eq.bde.coefficient_scale())
    if worst > bound:
        raise FiberNotConverged(
            f"difference point off M: |F| = {worst:.3e} exceeds {bound:.1e}")
    # the (w, p) components of xi, from the same evaluation as F
    xi = _ChartCore.xi(p, Fu, Fv, Fp)[:, [0, 2]]

    def central(k):
        d = xi[4 * (k - 1):4 * k]
        hb, hc = h_base / k, h_chart / k
        return np.column_stack([(d[0] - d[1]) / (2 * hb), (d[2] - d[3]) / (2 * hc)])

    return (4.0 * central(2) - central(1)) / 3.0
