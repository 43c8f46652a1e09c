"""Cross-validation suites: closed forms versus independent numerical oracles.

Each suite re-derives one layer of the classification pipeline by a route
independent of the implementation it checks (derivative extraction against
closed forms, eigenvalues against differenced Jacobians, classifier output
against integrated sector counts, printed discriminants against the generic
cubic discriminant).  The tangency suite checks the identity
grad F . xi = 0 on the shipped evaluator itself, `bde._ChartCore`: the
gradient the tracer projects with and the field it integrates.  Trials
derive per-index RNG seeds from the master seed, so reports are
byte-identical for a fixed seed regardless of worker count or scheduling.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import invariants
from .bde import (
    BdeField,
    CHART_Q,
    Case,
    cubic_analysis,
    delta_and_case,
    lift,
    restricted_jacobian,
    solve_cubic_real,
    _ChartCore,
)
from .foliations import (
    FoliationKind,
    build_geometric_bde,
    closed_form_analysis,
    closed_forms,
    classify_edge_foliation,
)
from .geometry import form_polynomials, series_expansion_report
from .jets import EdgeJet, sample_generic_jet
from .poly import Poly2
from .tracer import local_sector_counts

_GEOMETRIC_KINDS = (FoliationKind.ASYMPTOTIC, FoliationKind.CHARACTERISTIC)
CLOSED_FORM_TOL = 1e-8   # relative bound of closed_form_agreement


def _trial_seed(master: int, suite: int, index: int) -> int:
    return int(np.random.SeedSequence([master, suite, index]).generate_state(1)[0])


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class VerifyReport:
    seed: int
    trials: int
    suites: list
    discrepancies: list

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites) and \
            all(ok for _, ok in self.discrepancies)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# --- per-trial workers (module level so they cross process boundaries) ---

def _closed_form_trial(args):
    master, index, tol = args
    jet = sample_generic_jet(_trial_seed(master, 1, index), "edge_degenerate")
    worst = 0.0
    for kind in _GEOMETRIC_KINDS:
        eq = lift(build_geometric_bde(jet, kind), CHART_Q)
        cubic, quadratic, _ = closed_forms(jet, kind)
        for extracted, closed in ((eq.phi_coefficients(), cubic),
                                  (eq.alpha_coefficients(), quadratic)):
            for a, b in zip(extracted, closed):
                worst = max(worst, _rel_err(float(a), float(b)))
    return worst <= tol, worst


def _discriminant_trial(args):
    master, index, tol = args
    jet = sample_generic_jet(_trial_seed(master, 2, index), "edge_degenerate")
    worst = 0.0
    for kind in _GEOMETRIC_KINDS:
        cubic, _, closed = closed_forms(jet, kind)
        generic = float(invariants.cubic_discriminant(*cubic))
        worst = max(worst, _rel_err(float(closed), generic))
    return worst <= tol, worst


def _eigenvalue_trial(args):
    master, index, tol = args
    jet = sample_generic_jet(_trial_seed(master, 3, index), "edge_degenerate")
    worst = 0.0
    for kind in _GEOMETRIC_KINDS:
        eq = lift(build_geometric_bde(jet, kind), CHART_Q)
        analysis = cubic_analysis(eq)
        for data in analysis.per_root:
            jac = restricted_jacobian(eq, data.root)
            eigs = sorted(np.linalg.eigvals(jac).real)
            expected = sorted([data.alpha, data.minus_phi_prime])
            for e, x in zip(eigs, expected):
                worst = max(worst, abs(e - x) / max(1e-9, abs(x)))
    return worst <= tol, worst


def _tangency_trial(args):
    master, index, n_points = args
    rng = np.random.default_rng(_trial_seed(master, 4, index))
    polys = [
        Poly2({(i, j): rng.normal() for i in range(3) for j in range(3)})
        for _ in range(3)
    ]
    S = rng.uniform(-1.0, 1.0, size=(n_points, 3))  # rows; odd trials: chart q
    _, Fu, Fv, Fp = BdeField(*polys).core.F_and_gradient(S, index % 2 == 1)
    xi = _ChartCore.xi(S[:, 2], Fu, Fv, Fp).T
    dot = Fu * xi[0] + Fv * xi[1] + Fp * xi[2]
    scale = 1.0 + np.sqrt(Fu**2 + Fv**2 + Fp**2) * np.sqrt(
        xi[0]**2 + xi[1]**2 + xi[2]**2)
    worst = float(np.max(np.abs(dot) / scale))
    return worst <= 1e-12, worst


def _root_count_trial(args):
    master, index, n_cubics = args
    rng = np.random.default_rng(_trial_seed(master, 5, index))
    worst_ok = True
    for _ in range(n_cubics):
        coeffs = rng.uniform(-2.0, 2.0, size=4)
        if abs(coeffs[0]) < 1e-3:
            continue
        d = float(invariants.cubic_discriminant(*coeffs))
        scale = float(np.max(np.abs(coeffs)))
        if abs(d / scale**4) < 1e-9:
            continue
        roots = solve_cubic_real(*coeffs)
        expected = 3 if d > 0 else 1
        if len(roots) != expected:
            worst_ok = False
    return worst_ok, 0.0


def _sector_trial(args):
    master, index, _tol = args
    jet = sample_generic_jet(_trial_seed(master, 6, index), "edge_degenerate")
    bde = build_geometric_bde(jet, FoliationKind.ASYMPTOTIC)
    analysis = cubic_analysis(lift(bde, CHART_Q))
    ok = all(c.pattern == d.lifted_type for c, d in
             zip(local_sector_counts(bde, analysis), analysis.per_root))
    return ok, 0.0 if ok else 1.0


def _lc_trial(args):
    master, index, _tol = args
    jet = sample_generic_jet(_trial_seed(master, 7, index), "generic")
    cls = classify_edge_foliation(jet, FoliationKind.LINES_OF_CURVATURE)
    ok = (cls.top_class.value == "RegularPair"
          and cls.invariants["b_origin"] != 0.0
          and cls.invariants["delta_origin"] > 0.0)
    return ok, 0.0


def _cusp_family_trial(args):
    master, index, _tol = args
    rng = np.random.default_rng(_trial_seed(master, 8, index))
    base = sample_generic_jet(_trial_seed(master, 8, index), "generic")
    jet = EdgeJet(base.a20, base.a30, float(rng.uniform(0.1, 2.0)),
                  base.b30, base.b12, base.b03)
    for kind in _GEOMETRIC_KINDS:
        _, case = delta_and_case(build_geometric_bde(jet, kind))
        cls = classify_edge_foliation(jet, kind)
        if case is not Case.CASE2_TRANSVERSE or cls.top_class.value != "CuspFamily":
            return False, 1.0
    return True, 0.0


def _impossible_trial(args):
    master, index, _tol = args
    jet = sample_generic_jet(_trial_seed(master, 9, index), "edge_degenerate")
    for kind in _GEOMETRIC_KINDS:
        analysis = closed_form_analysis(jet, kind)
        if analysis.D_normalized > 0 and analysis.saddle_count() == 0:
            return False, 1.0
    return True, 0.0


# (name, trial function, (trial argument, trial cap)): a cap of None runs
# every requested trial
_SUITES = (
    ("closed_form_agreement", _closed_form_trial, (CLOSED_FORM_TOL, None)),
    ("discriminant_identity", _discriminant_trial, (1e-12, None)),
    ("eigenvalue_jacobian", _eigenvalue_trial, (1e-6, 200)),
    ("tangency_identity", _tangency_trial, (10_000, 100)),   # points per trial
    ("discriminant_vs_roots", _root_count_trial, (100, 100)),  # cubics per trial
    ("sector_counts", _sector_trial, (None, 100)),
    ("lc_regular_pair", _lc_trial, (None, None)),
    ("cusp_family_transverse", _cusp_family_trial, (None, None)),
    ("impossible_sign_config", _impossible_trial, (None, None)),
)


def _run_trials(fn, args_list, workers: int):
    """fn over args_list in order; the pool (started whole at the first
    submit) never outnumbers the trials or the CPUs."""
    workers = min(workers, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(a) for a in args_list]
    chunk = max(1, len(args_list) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=chunk))


# --- documented discrepancies (exact arithmetic reproductions) ---

def documented_discrepancies():
    """Reproduce the three reference-text inconsistencies exactly.

    Each entry is (description, passed): passed means the independently
    computed value matches the corrected form, demonstrating that the
    printed variant is the outlier.
    """
    out = []

    jet = EdgeJet(Fraction(0), Fraction(1), Fraction(0), Fraction(0),
                  Fraction(0), Fraction(1))
    l2_uv = form_polynomials(jet).L2.coeff(1, 1)
    expected = Fraction(-1, 2)      # -a30*b03/2 with a30 = b03 = 1
    printed = Fraction(-1)          # the printed uv coefficient -(a30*b03)
    out.append((
        "second-form L2 uv-coefficient: computed "
        f"{l2_uv} = -a30*b03/2 (printed {printed})",
        l2_uv == expected and l2_uv != printed,
    ))

    a20, b30, b12, b03 = Fraction(0), Fraction(1), Fraction(2), Fraction(1)
    c3, c2, c1, c0 = invariants.asymptotic_cubic(a20, b30, b12, b03)
    p_star = -b03 / (2 * b12)
    value = ((c3 * p_star + c2) * p_star + c1) * p_star + c0
    corrected = -b03 * (4 * b12**3 + b03**2 * b30) / (8 * b12**3)
    misprint = -b03 * (4 + b03**2 * b30) / (8 * b12**3)
    out.append((
        "asymptotic cubic at -b03/(2*b12): computed "
        f"{value} = -b03*(4*b12^3 + b03^2*b30)/(8*b12^3) "
        f"(printed variant gives {misprint})",
        value == corrected and value != misprint,
    ))

    jet = EdgeJet(Fraction(4), Fraction(0), Fraction(0), Fraction(1),
                  Fraction(0), Fraction(1))
    d_as, d_ch = (closed_forms(jet, kind)[2] for kind in _GEOMETRIC_KINDS)
    out.append((
        f"b12 = 0 counterexample: D_as = {d_as}, D_ch = {d_ch} "
        "(equal-discriminant remark fails, signs even differ)",
        d_as == Fraction(37, 4) and d_ch == Fraction(-91, 64)
        and (d_as > 0) != (d_ch > 0),
    ))

    rows = series_expansion_report(EdgeJet(0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
    disagreements = [r for r in rows if not r.agree]
    out.append((
        "series report flags exactly the L2 uv row: "
        + ", ".join(f"{r.quantity}[{r.monomial}]" for r in disagreements),
        len(disagreements) == 1 and disagreements[0].quantity == "L2"
        and disagreements[0].monomial == "u^1 v^1",
    ))
    return out


# --- suite sizing ---

def _suite_trials(name: str, trials: int) -> int:
    cap = next(cap for suite, _, (_, cap) in _SUITES if suite == name)
    return trials if cap is None else min(trials, cap)


def run_verify(trials: int, seed: int, workers: int) -> VerifyReport:
    """Run every oracle suite and collect a deterministic report."""
    suites = []
    for name, fn, (arg, _) in _SUITES:
        n = _suite_trials(name, trials)
        results = _run_trials(fn, [(seed, i, arg) for i in range(n)], workers)
        failures = sum(1 for ok, _ in results if not ok)
        worst = max((w for _, w in results), default=0.0)
        suites.append(SuiteResult(name, n, failures, worst))
    return VerifyReport(seed, trials, suites, documented_discrepancies())


def format_verify_report(report: VerifyReport) -> str:
    lines = [
        "edgefol verification report",
        f"seed={report.seed} trials={report.trials} "
        f"tolerance={CLOSED_FORM_TOL:.3g}",
        "",
        f"{'suite':<28}{'trials':>8}{'failures':>10}{'worst':>12}  status",
    ]
    for s in report.suites:
        lines.append(
            f"{s.name:<28}{s.trials:>8}{s.failures:>10}{s.worst:>12.3e}  "
            f"{'pass' if s.passed else 'FAIL'}"
        )
    lines.append("")
    lines.append("documented reference discrepancies (exact arithmetic):")
    for text, ok in report.discrepancies:
        lines.append(f"  [{'pass' if ok else 'FAIL'}] {text}")
    lines.append("")
    lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


# --- survey ---

def _survey_trial(args):
    master, index = args
    jet = sample_generic_jet(_trial_seed(master, 10, index), "edge_degenerate")
    return tuple(classify_edge_foliation(jet, kind).top_class.value
                 for kind in _GEOMETRIC_KINDS)


def run_survey(trials: int, seed: int, workers: int):
    """Class frequencies of the two Type-2 foliations on random admissible
    jets, plus their co-occurrence counts.  Exploratory: no pass/fail."""
    results = _run_trials(_survey_trial, [(seed, i) for i in range(trials)],
                          workers)
    freq = {kind.value: Counter(pair[i] for pair in results)
            for i, kind in enumerate(_GEOMETRIC_KINDS)}
    return {"trials": trials, "seed": seed, "frequencies": freq,
            "cooccurrence": Counter(results)}


def format_survey_report(survey: dict) -> str:
    lines = [
        "edgefol survey report",
        f"seed={survey['seed']} trials={survey['trials']}",
        "",
    ]
    for kind in ("asymptotic", "characteristic"):
        lines.append(f"{kind} class frequencies:")
        freq = survey["frequencies"][kind]
        for name in sorted(freq):
            lines.append(f"  {name:<22}{freq[name]:>8}"
                         f"{freq[name] / survey['trials']:>10.3f}")
        lines.append("")
    lines.append("co-occurrence (asymptotic x characteristic):")
    for (a, c), count in sorted(survey["cooccurrence"].items()):
        lines.append(f"  {a:<22}{c:<22}{count:>8}")
    return "\n".join(lines) + "\n"
