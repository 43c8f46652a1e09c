"""BDE engine: case split, lift, cubic analysis."""

import math
from fractions import Fraction

import numpy as np
import pytest
from edgefol import bde as bde_mod
from edgefol.bde import (
    BdeField,
    CHART_P,
    CHART_Q,
    DUAL,
    Case,
    CubicAnalysis,
    RootData,
    TopClass,
    classify_type2,
    cubic_analysis,
    delta_and_case,
    discriminant_poly,
    hessian_det_origin,
    lift,
    restricted_jacobian,
    solve_cubic_real,
    solve_fiber_coordinate,
    unique_direction_at_origin,
    EVAL_BLOCK,
    _ChartCore,
)
from edgefol.errors import (
    CommonRoot,
    DegenerateDiscriminant,
    DiscriminantNearZero,
    FiberNotConverged,
    HessianNonNegative,
    InvariantViolation,
)
from edgefol.foliations import FoliationKind, build_geometric_bde
from edgefol.invariants import cubic_discriminant
from edgefol.jets import EdgeJet, sample_generic_jet
from edgefol.poly import Poly2

U = Poly2.monomial(1, 0)
V = Poly2.monomial(0, 1)
ONE = Poly2.monomial(0, 0, 1.0)


def bde(a, b, c):
    return BdeField(a, b, c)


# --- delta_and_case ---

def test_case1_regular():
    _, case = delta_and_case(bde(ONE, Poly2(), Poly2.monomial(0, 0, -1.0)))
    assert case is Case.CASE1_REGULAR


def test_case1_discriminant_empty_directions():
    _, case = delta_and_case(bde(ONE, Poly2(), ONE))
    assert case is Case.CASE1_DISCRIMINANT


def test_case2_transverse():
    _, case = delta_and_case(bde(ONE, Poly2(), U))
    assert case is Case.CASE2_TRANSVERSE


def test_case2_tangent():
    # delta = -v, unique direction (1, 0) runs along {delta = 0}
    _, case = delta_and_case(bde(ONE, Poly2(), V))
    assert case is Case.CASE2_TANGENT


def test_case3_with_delta():
    delta, case = delta_and_case(bde(V, U, V))
    assert case is Case.CASE3
    assert delta == U * U - V * V


def test_degenerate_discriminant_raises():
    with pytest.raises(DegenerateDiscriminant):
        delta_and_case(bde(ONE, Poly2(), U * U))


def test_zero_bde_rejected():
    with pytest.raises(ValueError):
        delta_and_case(bde(Poly2(), Poly2(), Poly2()))


# --- lifted field ---

def test_lifted_field_vanishing_fp_kills_base_motion():
    # chart p: F = p^2 + u; chart q: F = v + q^2.  F_p = 0 at the origin
    for chart, field in ((CHART_P, bde(ONE, Poly2(), U)),
                         (CHART_Q, bde(V, Poly2(), ONE))):
        xi = field.core.rhs(np.zeros((1, 3)), chart == CHART_Q, False)[0]
        assert xi[0] == 0.0 and xi[1] == 0.0
        assert xi[2] == -1.0


def _exact_gradient(polys, chart, u, v, p):
    """(F_u, F_v, F_p) of the chart's F from exact Poly2 derivatives."""
    A, B, C = (float(f(u, v)) for f in polys)
    Au, Bu, Cu = (float(f.diff("u")(u, v)) for f in polys)
    Av, Bv, Cv = (float(f.diff("v")(u, v)) for f in polys)
    if chart == CHART_P:
        return (Au * p * p + 2 * Bu * p + Cu, Av * p * p + 2 * Bv * p + Cv,
                2 * A * p + 2 * B)
    return (Au + 2 * Bu * p + Cu * p * p, Av + 2 * Bv * p + Cv * p * p,
            2 * B + 2 * C * p)


def test_lifted_field_tangency_identity():
    """The shipped field is the chart's xi and is tangent to the level sets
    of F, with grad F taken independently of the compiled core."""
    rng = np.random.default_rng(3)
    for _ in range(30):
        polys = [Poly2({(i, j): rng.normal() for i in range(3)
                        for j in range(3)}) for _ in range(3)]
        core = BdeField(*polys).core
        for chart in (CHART_P, CHART_Q):
            u, v, p = rng.normal(size=3)
            fu, fv, fp = grad = _exact_gradient(polys, chart, u, v, p)
            if chart == CHART_P:
                xi = core.rhs(np.array([[u, v, p]]), False, False)[0]
                expected = (fp, p * fp, -(fu + p * fv))
            else:
                xi = core.rhs(np.array([[v, u, p]]), True, False)[0][[1, 0, 2]]
                expected = (p * fp, fp, -(p * fu + fv))
            size = 1.0 + np.linalg.norm(expected)
            assert np.all(np.abs(xi - expected) <= 1e-13 * size)
            dot = grad[0] * xi[0] + grad[1] * xi[1] + grad[2] * xi[2]
            scale = 1.0 + np.linalg.norm(grad) * np.linalg.norm(xi)
            assert abs(dot) / scale < 1e-13


def test_tangency_suite_reads_the_shipped_field(monkeypatch):
    """The verify tangency suite checks `_ChartCore.xi` itself: with the sign
    of its chart-variable component flipped, every trial fails."""
    from edgefol import verify
    args = [(0, index, 1000) for index in range(4)]     # both charts
    assert all(verify._tangency_trial(a)[0] for a in args)
    shipped = _ChartCore.xi
    monkeypatch.setattr(_ChartCore, "xi", staticmethod(
        lambda p, Fu, Fv, Fp: shipped(p, Fu, Fv, Fp) * (1.0, 1.0, -1.0)))
    assert not any(verify._tangency_trial(a)[0] for a in args)


EXACT_JET = EdgeJet(Fraction(1, 3), Fraction(-2, 5), Fraction(0),
                    Fraction(1, 7), Fraction(-1), Fraction(3, 2))


def _swap_tensor(field):
    """The u/v swap of a BDE, built independently of the compiled core."""
    swap = lambda f: Poly2({(j, i): c for (i, j), c in f.terms.items()})
    return BdeField(swap(field.C), swap(field.B), swap(field.A))


def test_chart_q_is_chart_p_of_the_swapped_tensor():
    """Chart-q rows of a mixed-chart batch, and the chart-p cubic and
    eigenvalue quadratic, are those of the u/v-swapped tensor in the other
    chart."""
    rng = np.random.default_rng(10)
    fields = [build_geometric_bde(sample_generic_jet(seed, scenario), kind)
              for seed in range(20) for scenario in ("generic", "edge_degenerate")
              for kind in FoliationKind]
    for field in fields:
        swapped = _swap_tensor(field)
        S = rng.uniform(-0.5, 0.5, (64, 3)) * (1.0, 1.0, 10.0)
        q = rng.random(64) < 0.5
        pairs = [(field.core.rhs(S, q, False), swapped.core.rhs(S, False, False))]
        pairs += zip(field.core.F_and_gradient(S, q),
                     swapped.core.F_and_gradient(S, False))
        for got, want in pairs:
            got, want = got[q], want[q]
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    fields += [build_geometric_bde(EXACT_JET, kind) for kind in FoliationKind]
    for field in fields:
        p, q = lift(field, CHART_P), lift(_swap_tensor(field), CHART_Q)
        assert p.phi_coefficients() == q.phi_coefficients()
        assert p.alpha_coefficients() == q.alpha_coefficients()


def test_table_rows_do_not_depend_on_their_batch():
    """`F_and_gradient` evaluates each row on its own: a row's bits are the
    same in a batch of 5,000 (three blocks), in a block evaluated apart, in
    a batch of 64, 7 or 1, and with a scalar chart in place of the mask."""
    rng = np.random.default_rng(15)
    for seed, scenario in ((0, "generic"), (1, "edge_degenerate"),
                           (2, "edge_degenerate")):
        jet = sample_generic_jet(seed, scenario)
        for kind in FoliationKind:
            core = build_geometric_bde(jet, kind).core
            S = rng.uniform(-0.5, 0.5, (5000, 3)) * (1.0, 1.0, 10.0)
            q = rng.random(5000) < 0.5
            full = np.array(core.F_and_gradient(S, q))
            by_chart = [np.array(core.F_and_gradient(S, chart))
                        for chart in (False, True)]
            assert np.where(q, by_chart[1], by_chart[0]).tobytes() \
                == full.tobytes()
            for n, rows in ((EVAL_BLOCK, 5000), (64, 640), (7, 140), (1, 40)):
                for lo in range(0, rows, n):
                    part = slice(lo, lo + n)
                    got = np.array(core.F_and_gradient(S[part], q[part]))
                    assert got.tobytes() == full[:, part].tobytes()
                    for chart in (False, True):
                        got = np.array(core.F_and_gradient(S[part], chart))
                        assert got.tobytes() == by_chart[chart][:, part].tobytes()


def _exact_columns(abc, dw, dx, u, v, p, sizes):
    """(F, F_w, F_x, F_p) of F = a p^2 + 2b p + c at (u, v, p), exactly,
    with w and x the variables `dw` and `dx`; with `sizes`, the sums of the
    absolute values of their terms instead."""
    def value(f):
        if not sizes:
            return f(u, v)
        return sum(abs(k) * abs(u) ** i * abs(v) ** j
                   for (i, j), k in f.terms.items())

    p = abs(p) if sizes else p
    columns = []
    for d in (None, dw, dx):
        a, b, c = (value(f.diff(d) if d else f) for f in abc)
        columns.append(a * p * p + 2 * b * p + c)
    a, b = value(abc[0]), value(abc[1])
    return columns + [2 * a * p + 2 * b]


def test_table_matches_exact_arithmetic():
    """F, F_w, F_x and F_p from the float table agree with the exact values
    of A p^2 + 2B p + C (chart p) and A + 2B q + C q^2 (chart q) and their
    derivatives, at dyadic points, where the float input is exact."""
    rng = np.random.default_rng(16)
    points = [(Fraction(int(a), 16), Fraction(int(b), 16), Fraction(int(c), 4))
              for a, b, c in zip(rng.integers(-8, 9, 40), rng.integers(-8, 9, 40),
                                 rng.integers(-12, 13, 40))]
    for kind in FoliationKind:
        field = build_geometric_bde(EXACT_JET, kind)
        for chart in (CHART_P, CHART_Q):
            # the chart's tensor (a, b, c) and the variables of the internal
            # columns (w, x)
            if chart == CHART_P:
                abc, dw, dx = (field.A, field.B, field.C), "u", "v"
            else:
                abc, dw, dx = (field.C, field.B, field.A), "v", "u"
            for w, x, p in points:
                u, v = (w, x) if chart == CHART_P else (x, w)
                got = field.core.F_and_gradient(
                    np.array([[float(w), float(x), float(p)]]), chart == CHART_Q)
                exact = _exact_columns(abc, dw, dx, u, v, p, sizes=False)
                sizes = _exact_columns(abc, dw, dx, u, v, p, sizes=True)
                assert all(isinstance(e, (int, Fraction)) for e in exact)
                for value, want, size in zip(got, exact, sizes):
                    assert abs(Fraction(float(value[0])) - want) \
                        <= Fraction(1e-13) * (1 + size)


def test_delta_and_case_returns_the_discriminant_2jet():
    jets = [sample_generic_jet(seed, scenario) for seed in range(200)
            for scenario in ("generic", "edge_degenerate")] + [EXACT_JET]
    for jet in jets:
        for kind in FoliationKind:
            field = build_geometric_bde(jet, kind)
            full = discriminant_poly(field, math.inf)
            try:
                delta, case = delta_and_case(field)
            except DegenerateDiscriminant:
                delta, case = discriminant_poly(field, 2), DegenerateDiscriminant
            assert delta == full.truncated(2)
            # trace_portrait's route to the case: the full discriminant
            try:
                portrait_case = bde_mod.origin_case(field, full,
                                                    field.coefficient_scale())
            except DegenerateDiscriminant:
                portrait_case = DegenerateDiscriminant
            assert portrait_case is case, (jet, kind)


def test_origin_case_moves_one_way_as_the_scale_grows():
    """As the coefficient scale grows, origin_case runs through Case 1,
    Case 2, DegenerateDiscriminant and Case 3 and never comes back, with one
    Case 1 and one Case 2 variant per BDE: each outcome holds on one
    interval of scales, so one outcome at both ends of a scale bracket is
    the outcome at every scale inside it."""
    stage = {Case.CASE1_REGULAR: 0, Case.CASE1_DISCRIMINANT: 0,
             Case.CASE2_TRANSVERSE: 1, Case.CASE2_TANGENT: 1,
             DegenerateDiscriminant: 2, Case.CASE3: 3}
    scales = np.geomspace(1e-3, 1e14, 400)
    stages_seen = set()
    for seed in range(40):
        for scenario in ("generic", "edge_degenerate"):
            for kind in FoliationKind:
                field = build_geometric_bde(sample_generic_jet(seed, scenario), kind)
                delta = bde_mod.discriminant_poly(field, 2)
                outcomes = []
                for scale in scales:
                    try:
                        outcomes.append(bde_mod.origin_case(field, delta, float(scale)))
                    except DegenerateDiscriminant:
                        outcomes.append(DegenerateDiscriminant)
                stages = [stage[o] for o in outcomes]
                assert stages == sorted(stages), (seed, scenario, kind)
                assert all(len({o for o in outcomes if stage[o] == k}) <= 1
                           for k in (0, 1))
                stages_seen.update(stages)
    assert stages_seen == {0, 1, 2, 3}


def test_solve_fiber_coordinate_lands_on_surface():
    """The fiber Newton solve returns a point of M in either chart, checked
    against F evaluated from the exact A, B, C; an array of points solves
    to the same values as the points one at a time.  Roots are taken in the
    chart where |root| <= 1, as the probes do."""
    for seed in range(6):
        jet = sample_generic_jet(seed, "edge_degenerate")
        for kind in (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC):
            field = build_geometric_bde(jet, kind)
            scale = max(1.0, field.coefficient_scale())
            for chart in (CHART_P, CHART_Q):
                eq = lift(field, chart)
                analysis = cubic_analysis(eq)
                assert analysis.chart == chart
                for root in (r for r in analysis.roots if abs(r) <= 1.0):
                    w = np.repeat([1e-4, -1e-3, 1e-2, -1e-2], 2)
                    p = root + 0.25 * w * np.tile([1.0, -1.0], 4)
                    xs = solve_fiber_coordinate(eq, w, p, start=root * w)
                    for k in range(len(w)):
                        x = solve_fiber_coordinate(eq, w[k], p[k],
                                                   start=root * w[k])
                        assert x == xs[k]
                        u, v = (x, w[k]) if chart == CHART_Q else (w[k], x)
                        a, b, c = (float(f(u, v))
                                   for f in (field.A, field.B, field.C))
                        pk = p[k]
                        F = (a + 2 * b * pk + c * pk * pk if chart == CHART_Q
                             else a * pk * pk + 2 * b * pk + c)
                        assert abs(F) <= 1e-12 * scale, (seed, kind, chart)


def test_unique_direction_for_fold_is_dv():
    field = bde(Poly2.monomial(0, 1, 0.5), U, Poly2.monomial(0, 0, 2.0) + V)
    # origin values (0, 0, 2): direction (-b, c) = (0, 2) ~ dv
    d = unique_direction_at_origin(field)
    assert d[0] == 0.0 and d[1] != 0.0


# --- cubic solver ---

def test_cubic_solver_against_numpy_roots():
    rng = np.random.default_rng(0)
    for _ in range(500):
        coeffs = rng.uniform(-2, 2, size=4)
        if abs(coeffs[0]) < 1e-2:
            continue
        d = cubic_discriminant(*coeffs)
        if abs(d) / np.max(np.abs(coeffs)) ** 4 < 1e-8:
            continue
        mine = solve_cubic_real(*coeffs)
        ref = sorted(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9)
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def test_sign_of_discriminant_predicts_root_count():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 10_000:
        coeffs = rng.uniform(-2, 2, size=4)
        if abs(coeffs[0]) < 1e-3:
            continue
        d = cubic_discriminant(*coeffs)
        if abs(d) / np.max(np.abs(coeffs)) ** 4 < 1e-9:
            continue
        roots = solve_cubic_real(*coeffs)
        assert len(roots) == (3 if d > 0 else 1)
        checked += 1


# --- cubic analysis ---

def asymptotic_eq(jet):
    return lift(build_geometric_bde(jet, FoliationKind.ASYMPTOTIC), CHART_Q)


def test_cubic_analysis_one_saddle_worked_value():
    jet = EdgeJet(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    analysis = cubic_analysis(asymptotic_eq(jet))
    assert analysis.phi == (1.0, 0.0, 0.0, 0.5)          # p^3 + 1/2
    assert analysis.D < 0
    root = analysis.roots[0]
    assert math.isclose(root, -2.0 ** (-1.0 / 3.0), rel_tol=1e-12)
    data = analysis.per_root[0]
    assert data.alpha > 0 and data.minus_phi_prime < 0
    assert data.lifted_type == "saddle"


def test_cubic_analysis_three_saddles_worked_values():
    jet = EdgeJet(0.0, 0.0, 0.0, 0.1, -1.0, 1.0)
    analysis = cubic_analysis(asymptotic_eq(jet))
    assert analysis.phi == (0.1, 0.0, -2.0, 0.5)
    assert analysis.D > 0
    # frozen from the numpy companion-matrix oracle
    expected = (-4.592253272822073, 0.25078866710346487, 4.341464605718608)
    oracle = sorted(np.roots(analysis.phi).real)
    for mine, frozen, ref in zip(analysis.roots, expected, oracle):
        assert math.isclose(mine, frozen, rel_tol=1e-12)
        assert math.isclose(mine, ref, rel_tol=1e-10)
    assert [d.lifted_type for d in analysis.per_root] == ["saddle"] * 3


def test_cubic_analysis_triple_root_rejected():
    # phi = p^3 exactly: C = u gives phi = (1, 0, 0, 0)
    field = bde(Poly2(), Poly2(), U)
    with pytest.raises(DiscriminantNearZero):
        cubic_analysis(lift(field, CHART_Q))


def test_cubic_analysis_common_root_rejected():
    # phi = p(p+1)(p+2), alpha = 2p(p+1): shared roots
    field = bde(Poly2.monomial(1, 0, 2.0), U, U + V)
    with pytest.raises(CommonRoot):
        cubic_analysis(lift(field, CHART_Q))


def test_cubic_analysis_dual_chart_fallback():
    # chart-q leading coefficient C_u = 0 (a direction at infinity): the
    # analysis switches to chart p, where the cubic is (1, 1, 2, 0)
    field = bde(U + V, Poly2.monomial(1, 0, 0.5), V)
    eq = lift(field, CHART_Q)
    assert eq.phi_coefficients()[0] == 0.0
    analysis = cubic_analysis(eq)
    assert analysis.chart == CHART_P
    assert analysis.phi == (1.0, 1.0, 2.0, 0.0)
    assert analysis.roots == (0.0,)
    assert analysis.per_root[0].alpha != 0.0


def test_restricted_jacobian_refuses_off_surface_points(monkeypatch):
    # with a difference step of 0.1 the fiber solves around this root stop
    # with |F| up to 1.4e-2 x the coefficient scale: no Jacobian is
    # differenced from them
    field = build_geometric_bde(sample_generic_jet(4, "edge_degenerate"),
                                FoliationKind.ASYMPTOTIC)
    analysis = cubic_analysis(lift(field, CHART_Q))
    root = analysis.roots[0]
    assert math.isclose(root, -3.2153, abs_tol=1e-4)
    eq = lift(field, analysis.chart)
    restricted_jacobian(eq, root)
    monkeypatch.setattr(bde_mod, "JACOBIAN_STEP", 0.1)
    with pytest.raises(FiberNotConverged):
        restricted_jacobian(eq, root)


def _assert_jacobian_matches_oracle(eq, root):
    """The exact linearization equals the differenced one entrywise, within
    1e-8 of the largest entry, and is lower triangular."""
    exact, differenced = eq.jacobian(root), restricted_jacobian(eq, root)
    assert exact[0, 1] == 0.0
    assert np.max(np.abs(exact - differenced)) \
        <= 1e-8 * np.max(np.abs(differenced)), (eq.chart, root)


@pytest.mark.parametrize("chart", [CHART_P, CHART_Q])
def test_restricted_jacobian_eigenvalues_random_case3(chart):
    rng = np.random.default_rng(7)
    done = 0
    while done < 25:
        polys = []
        for _ in range(3):
            terms = {(i, j): float(rng.uniform(-2, 2))
                     for i in range(3) for j in range(3)}
            terms.pop((0, 0), None)   # all coefficients vanish at the origin
            polys.append(Poly2(terms))
        field = BdeField(*polys)
        try:
            analysis = cubic_analysis(lift(field, chart))
        except (DiscriminantNearZero, CommonRoot):
            continue
        eq = lift(field, analysis.chart)
        for data in analysis.per_root:
            # the full matrix needs no eigensolver ordering: every root
            _assert_jacobian_matches_oracle(eq, data.root)
            if abs(data.alpha + data.minus_phi_prime) < 1e-3:
                continue   # nearly resonant: eigensolver ordering unstable
            jac = restricted_jacobian(eq, data.root)
            eigs = sorted(np.linalg.eigvals(jac).real)
            expected = sorted([data.alpha, data.minus_phi_prime])
            for e, x in zip(eigs, expected):
                assert abs(e - x) <= 1e-6 * max(1.0, abs(x))
        done += 1


def test_exact_jacobian_matches_differenced_jacobian_on_sampled_roots():
    """Every root of both Type-2 kinds of the first 200 sampled jets, in its
    analysis chart and in the dual chart; in the analysis chart the
    diagonal is the analysis's alpha and -phi', to the bit."""
    pairs = 0
    for seed in range(200):
        jet = sample_generic_jet(seed, "edge_degenerate")
        for kind in (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC):
            field = build_geometric_bde(jet, kind)
            analysis = cubic_analysis(lift(field, CHART_Q))
            eq = lift(field, analysis.chart)
            for data in analysis.per_root:
                exact = eq.jacobian(data.root)
                assert (exact[0, 0], exact[1, 1]) \
                    == (data.alpha, data.minus_phi_prime)
                _assert_jacobian_matches_oracle(eq, data.root)
            dual = lift(field, DUAL[analysis.chart])
            for root in analysis.roots_in(dual.chart):
                _assert_jacobian_matches_oracle(dual, root)
                pairs += 1
            pairs += len(analysis.roots)
    assert pairs == 2 * 566


# --- classifier ---

def _fake_analysis(products, d_sign):
    per_root = tuple(
        RootData(root=float(k), alpha=1.0, minus_phi_prime=p, eigen_product=p,
                 lifted_type="saddle" if p < 0 else "node")
        for k, p in enumerate(products)
    )
    return CubicAnalysis(chart=CHART_Q, phi=(1, 0, 0, 0), alpha=(1, 0, 0),
                         D=d_sign, D_normalized=d_sign,
                         roots=tuple(float(k) for k in range(len(products))),
                         per_root=per_root)


def test_classify_type2_mapping():
    assert classify_type2(_fake_analysis([-1, -1, -1], 1.0), -1.0) \
        is TopClass.THREE_SADDLES
    assert classify_type2(_fake_analysis([-1, -1, 1], 1.0), -1.0) \
        is TopClass.TWO_SADDLES_ONE_NODE
    assert classify_type2(_fake_analysis([-1, 1, 1], 1.0), -1.0) \
        is TopClass.ONE_SADDLE_TWO_NODES
    assert classify_type2(_fake_analysis([-1], -1.0), -1.0) is TopClass.ONE_SADDLE
    assert classify_type2(_fake_analysis([1], -1.0), -1.0) is TopClass.ONE_NODE


def test_classify_type2_all_positive_impossible():
    with pytest.raises(InvariantViolation):
        classify_type2(_fake_analysis([1, 1, 1], 1.0), -1.0)


def test_classify_type2_requires_negative_hessian():
    with pytest.raises(HessianNonNegative):
        classify_type2(_fake_analysis([-1], -1.0), 0.5)


def test_saddle_count_always_matches_negative_products():
    rng = np.random.default_rng(21)
    for seed in range(200):
        jet = sample_generic_jet(seed, "edge_degenerate")
        for kind in (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC):
            eq = lift(build_geometric_bde(jet, kind), CHART_Q)
            analysis = cubic_analysis(eq)
            delta = discriminant_poly(eq.bde, math.inf)
            top = classify_type2(analysis, hessian_det_origin(delta))
            negatives = sum(1 for d in analysis.per_root if d.eigen_product < 0)
            saddle_count = {
                TopClass.THREE_SADDLES: 3,
                TopClass.TWO_SADDLES_ONE_NODE: 2,
                TopClass.ONE_SADDLE_TWO_NODES: 1,
                TopClass.ONE_SADDLE: 1,
                TopClass.ONE_NODE: 0,
            }[top]
            assert saddle_count == negatives
