"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Every expected value is either exact arithmetic, a closed form
cross-checked against an independent oracle, or a behavior census of
integrated curves.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from edgefol.bde import (
    CHART_Q,
    Case,
    classify_type2,
    cubic_analysis,
    delta_and_case,
    discriminant_poly,
    hessian_det_origin,
    lift,
    restricted_jacobian,
    unique_direction_at_origin,
)
from edgefol.foliations import (
    FoliationKind,
    build_geometric_bde,
    classify_edge_foliation,
    closed_form_alpha,
    closed_form_analysis,
    closed_form_cubic,
    closed_form_discriminant,
)
from edgefol.geometry import surface_polynomials
from edgefol.invariants import cubic_discriminant
from edgefol.jets import EdgeJet, sample_generic_jet
from edgefol.poly import CompiledPolySet
from edgefol.tracer import (
    CuspClass,
    TraceConfig,
    _trace_worklist,
    detect_cusp_order,
    local_sector_count,
)
from edgefol.verify import documented_discrepancies, format_verify_report, \
    format_survey_report, run_survey, run_verify

GEOMETRIC = (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC)
THREE_SADDLES_JET = EdgeJet(0.0, 0.0, 0.0, 0.1, -1.0, 1.0)
ONE_SADDLE_JET = EdgeJet(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_1_closed_form_agreement():
    start = time.perf_counter()
    worst = 0.0
    for index in range(1000):
        jet = sample_generic_jet(10_000 + index, "edge_degenerate")
        for kind in GEOMETRIC:
            eq = lift(build_geometric_bde(jet, kind), CHART_Q)
            for got, want in zip(eq.phi_coefficients(),
                                 closed_form_cubic(jet, kind)):
                worst = max(worst, _rel(float(got), float(want)))
            for got, want in zip(eq.alpha_coefficients(),
                                 closed_form_alpha(jet, kind)):
                worst = max(worst, _rel(float(got), float(want)))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-10 and elapsed <= 30.0,
            f"phi/alpha closed forms vs derivative extraction on 1000 jets: "
            f"worst rel err {worst:.3e} (tol 1e-10), {elapsed:.1f}s (cap 30s)")


def test_criterion_2_discriminant_identity():
    worst = 0.0
    for index in range(1000):
        jet = sample_generic_jet(10_000 + index, "edge_degenerate")
        for kind in GEOMETRIC:
            closed = float(closed_form_discriminant(jet, kind))
            generic = float(cubic_discriminant(*closed_form_cubic(jet, kind)))
            worst = max(worst, abs(closed - generic)
                        / max(1.0, abs(closed), abs(generic)))
    jet = EdgeJet(Fraction(4), Fraction(0), Fraction(0), Fraction(1),
                  Fraction(0), Fraction(1))
    exact_ok = (
        closed_form_discriminant(jet, FoliationKind.ASYMPTOTIC)
        == Fraction(37, 4)
        and closed_form_discriminant(jet, FoliationKind.CHARACTERISTIC)
        == Fraction(-91, 64)
        and cubic_discriminant(*closed_form_cubic(jet, FoliationKind.ASYMPTOTIC))
        == Fraction(37, 4)
        and cubic_discriminant(
            *closed_form_cubic(jet, FoliationKind.CHARACTERISTIC))
        == Fraction(-91, 64)
    )
    _report(2, worst <= 1e-12 and exact_ok,
            f"D = disc(phi) worst rel err {worst:.3e} (tol 1e-12); worked "
            f"rational pair D_as = 37/4, D_ch = -91/64 exact: {exact_ok}")


def test_criterion_3_eigenvalue_check():
    worst = 0.0
    for index in range(100):
        jet = sample_generic_jet(20_000 + index, "edge_degenerate")
        for kind in GEOMETRIC:
            eq = lift(build_geometric_bde(jet, kind), CHART_Q)
            analysis = cubic_analysis(eq)
            for data in analysis.per_root:
                jac = restricted_jacobian(eq, data.root)
                eigs = sorted(np.linalg.eigvals(jac).real)
                expected = sorted([data.alpha, data.minus_phi_prime])
                for e, x in zip(eigs, expected):
                    worst = max(worst, abs(e - x) / max(1e-9, abs(x)))
    _report(3, worst <= 1e-6,
            f"restricted-Jacobian eigenvalues vs (alpha, -phi') on 100 jets: "
            f"worst rel err {worst:.3e} (tol 1e-6)")


def test_criterion_4_lines_of_curvature_regular_pair():
    ok = True
    for index in range(1000):
        jet = sample_generic_jet(30_000 + index, "generic")
        cls = classify_edge_foliation(jet, FoliationKind.LINES_OF_CURVATURE)
        if cls.top_class.value != "RegularPair" \
                or cls.invariants["b_origin"] == 0.0 \
                or cls.invariants["delta_origin"] <= 0.0:
            ok = False
            break
    _report(4, ok, "lines of curvature: RegularPair with b(0) != 0 and "
            "delta(0) > 0 on 1000 random valid jets")


def test_criterion_5_cusp_family_branch():
    ok = True
    for index in range(1000):
        rng = np.random.default_rng(40_000 + index)
        base = sample_generic_jet(40_000 + index, "generic")
        jet = EdgeJet(base.a20, base.a30, float(rng.uniform(0.1, 2.0)),
                      base.b30, base.b12, base.b03)
        for kind in GEOMETRIC:
            field = build_geometric_bde(jet, kind)
            _, case = delta_and_case(field)
            cls = classify_edge_foliation(jet, kind)
            direction = unique_direction_at_origin(field)
            if case is not Case.CASE2_TRANSVERSE \
                    or cls.top_class.value != "CuspFamily" \
                    or abs(direction[0]) > 1e-9 * abs(direction[1]):
                ok = False
                break
        if not ok:
            break
    _report(5, ok, "asymptotic/characteristic with b20 in [0.1, 2]: "
            "CuspFamily via Case2Transverse with unique direction dv on "
            "1000 jets")


def test_criterion_6_sector_counts_match_classifier():
    start = time.perf_counter()
    checked = mismatches = 0

    def check(jet, kind):
        nonlocal checked, mismatches
        field = build_geometric_bde(jet, kind)
        analysis = cubic_analysis(lift(field, CHART_Q))
        for i, data in enumerate(analysis.per_root):
            count = local_sector_count(field, analysis, i)
            checked += 1
            if not count.matches(data.lifted_type):
                mismatches += 1

    for jet in (THREE_SADDLES_JET, ONE_SADDLE_JET):
        for kind in GEOMETRIC:
            check(jet, kind)
    for index in range(100):
        check(sample_generic_jet(50_000 + index, "edge_degenerate"),
              FoliationKind.ASYMPTOTIC)
    elapsed = time.perf_counter() - start
    _report(6, mismatches == 0 and elapsed <= 300.0,
            f"sector counts (saddle=4 hyperbolic, node=2 fans) agree with "
            f"the classifier at {checked} singular points, "
            f"{mismatches} mismatches, {elapsed:.1f}s (cap 300s)")


def _edge_crossing_image_class(jet, kind):
    bde = build_geometric_bde(jet, kind)
    (curve,), _ = _trace_worklist(
        bde, [(CHART_Q, (0.0, 0.12, 0.0), False)],
        TraceConfig(box=0.5, step=2e-4, max_steps=1500), {CHART_Q: ()})
    cset = CompiledPolySet(list(surface_polynomials(jet)))
    image = np.stack(cset.values(curve.samples[:, 0], curve.samples[:, 1]),
                     axis=1)
    return detect_cusp_order(image, t0=float(curve.seed_sample), window=60)


def test_criterion_7_cusp_orders_on_image():
    failures = []
    for index in range(20):
        jet = sample_generic_jet(60_000 + index, "generic")
        got = _edge_crossing_image_class(jet, FoliationKind.LINES_OF_CURVATURE)
        if got is not CuspClass.CUSP_23:
            failures.append(("lc", index, got.value))

    for index in range(20):
        rng = np.random.default_rng(61_000 + index)
        base = sample_generic_jet(61_000 + index, "generic")
        jet = EdgeJet(base.a20, base.a30, float(rng.uniform(0.1, 2.0)),
                      base.b30, base.b12, base.b03)
        for kind in GEOMETRIC:
            got = _edge_crossing_image_class(jet, kind)
            if got is not CuspClass.CUSP_34:
                failures.append((kind.value, index, got.value))

    for index in range(20):
        jet = sample_generic_jet(62_000 + index, "generic")
        cset = CompiledPolySet(list(surface_polynomials(jet)))
        t = np.linspace(-0.03, 0.03, 201)
        image = np.stack(cset.values(t**3, t**2), axis=1)
        got = detect_cusp_order(image, t, 0.0)
        if got is not CuspClass.CUSP_34:
            failures.append(("composition", index, got.value))

    _report(7, not failures,
            "image cusp orders on 20 jets each: lines of curvature -> "
            f"Cusp23, fold-branch asymptotic/characteristic -> Cusp34, "
            f"f(t^3, t^2) -> Cusp34; failures: {failures}")


def test_criterion_8_impossible_sign_configuration():
    ok = True
    for index in range(10_000):
        jet = sample_generic_jet(70_000 + index, "edge_degenerate")
        for kind in GEOMETRIC:
            analysis = closed_form_analysis(jet, kind)
            if analysis.D_normalized > 0 and analysis.saddle_count() == 0:
                ok = False
    _report(8, ok, "10^4 jets: three real roots never come with all three "
            "eigen products positive")


def test_criterion_9_determinism():
    verify_runs = [
        format_verify_report(run_verify(8, 99, workers=w)) for w in (1, 1, 2)
    ]
    survey_runs = [
        format_survey_report(run_survey(16, 99, workers=w)) for w in (1, 1, 2)
    ]
    ok = (verify_runs[0] == verify_runs[1] == verify_runs[2]
          and survey_runs[0] == survey_runs[1] == survey_runs[2])
    _report(9, ok, "verify and survey reports byte-identical across repeated "
            "runs and worker counts 1 and 2 at fixed seed")


def test_criterion_10_documented_discrepancies():
    checks = documented_discrepancies()
    ok = len(checks) >= 3 and all(passed for _, passed in checks)
    in_report = format_verify_report(run_verify(2, 1))
    recorded = "documented reference discrepancies" in in_report
    _report(10, ok and recorded,
            "exact-arithmetic reproduction of the three reference "
            "inconsistencies, recorded in the verify report: "
            + "; ".join(text.split(":")[0] for text, _ in checks))
