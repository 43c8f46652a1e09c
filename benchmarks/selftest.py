"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Makes one real output of each kind (classification JSON, portrait with its
SVG and CSV, verify report), confirms that its check passes, then corrupts
it one way at a time and confirms that the check flags every corruption.
Exits 1 when a real output is flagged or a corruption is missed.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as W  # noqa: E402
from edgefol import jets  # noqa: E402
from edgefol.foliations import FoliationKind  # noqa: E402

AS, LC = FoliationKind.ASYMPTOTIC, FoliationKind.LINES_OF_CURVATURE


def _edit_json(text, edit):
    out = json.loads(text)
    edit(out)
    return json.dumps(out)


def classify_cases():
    generic = jets.EdgeJet(0.4, 0.1, 0.8, -0.3, 0.6, 1.2)
    b20, (lc, asym, _ch) = W.classify_request(jets.dump_jet(generic))
    t2_b20, (_lc, t2, _ch2) = W.classify_request(jets.dump_jet(W.WARMUP_JET))
    t2_class = json.loads(t2)["top_class"]
    wrong = next(c for c in W.TYPE2_CLASSES.values() if c != t2_class)

    def check(b, kind, text):
        return W.check_classification(b, kind, text)

    yield "classify: real outputs", [p for args in (
        (b20, LC, lc), (b20, AS, asym), (t2_b20, AS, t2)) for p in check(*args)], False
    yield "classify: JSON cut short", check(b20, LC, lc[:-5]), True
    yield "classify: lc not RegularPair", check(b20, LC, _edit_json(
        lc, lambda d: d.update(top_class="CuspFamily"))), True
    yield "classify: b20 != 0 but Type-2 class", check(b20, AS, _edit_json(
        asym, lambda d: d.update(top_class="OneSaddle"))), True
    yield "classify: D sign flipped", check(t2_b20, AS, _edit_json(
        t2, lambda d: d["invariants"].update(D=-d["invariants"]["D"]))), True
    yield "classify: saddle count disagrees", check(t2_b20, AS, _edit_json(
        t2, lambda d: d.update(top_class=wrong))), True
    yield "classify: Degenerate without reason", check(b20, AS, _edit_json(
        asym, lambda d: d.update(top_class="Degenerate"))), True
    yield "classify: reason on a regular class", check(b20, LC, _edit_json(
        lc, lambda d: d.update(degenerate_reason="x"))), True


def portrait_cases():
    real = W.portrait_request((W.WARMUP_JET, AS))
    top_class, portrait, svg, csv_text, surface = real
    if not any(t == "saddle" for _, t in portrait.singular_points):
        raise SystemExit("self-test portrait needs a lifted saddle")

    def corrupt(**changes):
        p = copy.deepcopy(portrait)
        if "curve" in changes:
            changes.pop("curve")(p.curves[0])
        if "curves" in changes:
            p.curves = changes.pop("curves")(p.curves)
        parts = {"svg": svg, "csv": csv_text, "surface": surface}
        parts.update(changes)
        return W.check_portrait((top_class, p, parts["svg"], parts["csv"],
                                 parts["surface"]))

    def residual(c):
        c.max_residual = 1e-6

    def outside(c):
        c.samples = c.samples.copy()
        c.samples[0, 0] = 2 * portrait.box

    header_end = csv_text.index("\n")
    first_row_end = csv_text.index("\n", header_end + 1)
    yield "portrait: real output", W.check_portrait(real), False
    yield "portrait: residual above 1e-8", corrupt(curve=residual), True
    yield "portrait: sample outside the box", corrupt(curve=outside), True
    yield "portrait: separatrices missing", corrupt(
        curves=lambda cs: [c for c in cs if not c.is_separatrix]), True
    yield "portrait: SVG not XML", corrupt(svg=svg.replace("</svg>", "")), True
    yield "portrait: top_class comment wrong", corrupt(
        svg=svg.replace(f"top_class: {top_class}", "top_class: RegularPair")), True
    yield "surface: SVG not XML", corrupt(surface=surface[:-10]), True
    yield "CSV: header changed", corrupt(csv="t,u,v" + csv_text[header_end:]), True
    yield "CSV: row missing", corrupt(
        csv=csv_text[:header_end + 1] + csv_text[first_row_end + 1:]), True


def verify_cases():
    report = W.verify.run_verify(trials=2, seed=11, workers=1)

    def with_suite(index, **changes):
        r = copy.deepcopy(report)
        r.suites[index] = dataclasses.replace(r.suites[index], **changes)
        return W.check_verify(r, trials=2)

    def with_discrepancy_failed():
        r = copy.deepcopy(report)
        text, _ = r.discrepancies[0]
        r.discrepancies[0] = (text, False)
        return W.check_verify(r, trials=2)

    yield "verify: real report", W.check_verify(report, trials=2), False
    yield "verify: a suite failed", with_suite(5, failures=1), True
    yield "verify: trial count differs", with_suite(0, trials=1), True
    yield "verify: discrepancy failed", with_discrepancy_failed(), True


def main():
    bad = 0
    for cases in (classify_cases(), portrait_cases(), verify_cases()):
        for label, problems, should_flag in cases:
            ok = bool(problems) == should_flag
            bad += not ok
            verdict = "ok  " if ok else "MISS" if should_flag else "FLAG"
            print(f"{verdict} {label}" + (f": {problems[0]}" if problems else ""))
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
