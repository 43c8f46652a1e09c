"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from edgefol.cli import main
from edgefol.foliations import (
    FoliationKind,
    build_geometric_bde,
    classify_edge_foliation,
)
from edgefol.jets import validate_jet
from edgefol.tracer import TraceConfig, trace_portrait

CUSP_JET = {"a20": 0.0, "a30": 0.0, "b20": 1.0, "b30": 0.0, "b12": 0.0,
            "b03": 1.0}
SADDLE_JET = {"a20": 0.0, "a30": 0.0, "b20": 0.0, "b30": 0.1, "b12": -1.0,
              "b03": 1.0}


@pytest.fixture
def jet_file(tmp_path):
    def write(record, name="jet.json"):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)
    return write


def test_classify_lc_outputs_regular_pair(jet_file, capsys):
    rc = main(["classify", "--jet", jet_file(CUSP_JET), "--foliation", "lc"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["top_class"] == "RegularPair"


def test_classify_asymptotic_cusp_family(jet_file, capsys):
    rc = main(["classify", "--jet", jet_file(CUSP_JET),
               "--foliation", "asymptotic"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["top_class"] == "CuspFamily"


def test_classify_matches_library_call(jet_file, capsys):
    rc = main(["classify", "--jet", jet_file(SADDLE_JET),
               "--foliation", "asymptotic"])
    cli_out = capsys.readouterr().out.strip()
    assert rc == 0
    jet = validate_jet(SADDLE_JET)
    lib_out = classify_edge_foliation(jet, FoliationKind.ASYMPTOTIC).to_json()
    assert cli_out == lib_out.strip()


def test_config_errors_exit_2(jet_file, capsys):
    path = jet_file(CUSP_JET)
    assert main(["trace", "--jet", path, "--foliation", "lc",
                 "--box", "3.0", "--out", "/tmp/x.csv"]) == 2
    capsys.readouterr()
    assert main(["trace", "--jet", path, "--foliation", "lc",
                 "--step", "-1", "--out", "/tmp/x.csv"]) == 2
    capsys.readouterr()
    assert main(["classify", "--jet", "/nonexistent.json",
                 "--foliation", "lc"]) == 2


@pytest.mark.parametrize("argv", [
    ["trace", "--box", "nan"],
    ["trace", "--box", "inf"],
    ["trace", "--step", "inf"],
    ["trace", "--step", "nan"],
    ["render", "--camera", "nan,0,1"],
    ["render", "--up", "0,inf,1"],
])
def test_non_finite_numbers_exit_2(jet_file, tmp_path, capsys, argv):
    command, *flags = argv
    out = tmp_path / ("p.svg" if command == "render" else "p.csv")
    argv = [command, "--jet", jet_file(SADDLE_JET), "--foliation",
            "asymptotic", "--seeds-per-side", "2", "--max-steps", "10",
            "--out", str(out), *flags]
    assert main(["--json", *argv]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "ConfigError"
    assert "finite" in error["message"]


def test_verify_has_no_tolerance_option(capsys):
    # the closed-form bound is fixed at 1e-8; no flag can loosen it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "1", "--tol", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["trace", "--jet", "j.json", "--foliation", "asymptotic", "--out", "o.csv",
      "--box", "abc"], "argument --box: invalid float value: 'abc'"),
    (["classify", "--jet", "j.json"],
     "the following arguments are required: --foliation"),
    (["classify", "--jet", "j.json", "--foliation", "lc", "--bogus"],
     "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
], ids=["bad-float", "missing-flag", "unknown-flag", "missing-command"])
def test_usage_errors_under_json_are_config_errors(capsys, argv, message):
    assert main(["--json", *argv]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "ConfigError", "message": message}
    assert err == ""


def test_usage_errors_without_json_keep_argparse_output(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--jet", "j.json", "--foliation", "asymptotic",
              "--out", "o.csv", "--box", "abc"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: edgefol trace [-h] --jet JET")
    assert err.endswith(
        "edgefol trace: error: argument --box: invalid float value: 'abc'\n")


def test_invalid_jet_exits_1_with_json_error(jet_file, capsys):
    path = jet_file({**CUSP_JET, "b03": 0.0})
    rc = main(["--json", "classify", "--jet", path, "--foliation", "lc"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["error"] == "ZeroCuspidalCurvature"
    assert "message" in out


def test_bad_h5_exponent_exits_1_with_json_error(jet_file, capsys):
    path = jet_file({**CUSP_JET, "h5": [[None, 0, 1.0]]})
    rc = main(["--json", "classify", "--jet", path, "--foliation", "lc"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out == {"error": "JetFormatError",
                   "message": "h5 exponents must be nonnegative integers"}


def test_repeated_h5_monomial_exits_1_with_json_error(jet_file, capsys):
    path = jet_file({**CUSP_JET, "h5": [[0, 3, 1.0], [0, 3, 2.0]]})
    rc = main(["--json", "classify", "--jet", path, "--foliation", "lc"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out == {"error": "JetFormatError",
                   "message": "h5 names the monomial [0, 3] twice"}


def test_quoted_coefficient_exits_1_with_json_error(jet_file, capsys):
    path = jet_file({**SADDLE_JET, "b30": "0.1", "b03": True})
    rc = main(["--json", "classify", "--jet", path, "--foliation", "asymptotic"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out == {"error": "JetFormatError",
                   "message": "coefficient b30 is not a number: '0.1'"}


def test_overflowing_jet_classifies_degenerate_and_trace_exits_1(
        jet_file, tmp_path, capsys):
    path = jet_file({**SADDLE_JET, "a20": 1e200})
    rc = main(["--json", "classify", "--jet", path, "--foliation", "asymptotic"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["top_class"] == "Degenerate"
    rc = main(["--json", "trace", "--jet", path, "--foliation", "asymptotic",
               "--box", "0.15", "--seeds-per-side", "8", "--max-steps", "120",
               "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["error"] == "OverflowError"
    # finite coefficients whose lifted field overflows in every first step
    path = jet_file({**SADDLE_JET, "b12": 1e150}, "big.json")
    for command, out in (("trace", "big.csv"), ("render", "big.svg")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["--json", command, "--jet", path, "--foliation",
                       "asymptotic", "--out", str(tmp_path / out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["error"] == "OverflowError"
        assert not (tmp_path / out).exists()


@pytest.mark.parametrize("command", ["trace", "render"])
def test_empty_portrait_exits_1_and_writes_no_file(jet_file, tmp_path, capsys,
                                                   command):
    # the characteristic portrait of the worked jet at this size has no
    # curve: its lifted node gets no seeds, and no seed point on the box
    # sides has a real direction
    path = jet_file(SADDLE_JET)
    out, surface = tmp_path / "out", tmp_path / "surface.svg"
    argv = ["--json", command, "--jet", path, "--foliation", "characteristic",
            "--box", "0.15", "--seeds-per-side", "8", "--max-steps", "120",
            "--out", str(out)]
    if command == "render":
        argv += ["--surface", str(surface)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "EmptyPortrait"
    assert not out.exists() and not surface.exists()


@pytest.mark.parametrize("command", ["trace", "render"])
def test_portrait_in_which_no_curve_steps_exits_1_and_writes_no_file(
        jet_file, tmp_path, capsys, command):
    # b12 = 1e20: at the default size every one of the 472 curves is its
    # seed alone, both halves rejected at the first step (chart breakdown
    # or overflow), with a residual far above the documented bound
    path = jet_file({**SADDLE_JET, "b12": 1e20})
    out, surface = tmp_path / "out", tmp_path / "surface.svg"
    argv = ["--json", command, "--jet", path, "--foliation", "asymptotic",
            "--out", str(out)]
    if command == "render":
        argv += ["--surface", str(surface)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "OverflowError"
    assert not out.exists() and not surface.exists()


@pytest.mark.parametrize("with_surface", [False, True])
def test_degenerate_camera_exits_2_and_writes_no_file(jet_file, tmp_path,
                                                      capsys, with_surface):
    out, surface = tmp_path / "p.svg", tmp_path / "s.svg"
    argv = ["--json", "render", "--jet", jet_file(SADDLE_JET), "--foliation",
            "asymptotic", "--box", "0.15", "--seeds-per-side", "8",
            "--max-steps", "120", "--out", str(out),
            "--camera", "0,0,1", "--up", "0,0,2"]
    if with_surface:
        argv += ["--surface", str(surface)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ConfigError",
        "message": "camera direction and up-vector are parallel"}
    assert not out.exists() and not surface.exists()


def test_trace_writes_csv(jet_file, tmp_path, capsys):
    out = tmp_path / "curves.csv"
    rc = main(["trace", "--jet", jet_file(SADDLE_JET), "--foliation",
               "asymptotic", "--out", str(out), "--max-steps", "800",
               "--seeds-per-side", "6"])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("t,u,v,p,x,y,z,curve_id,separatrix")
    assert len(text.strip().split("\n")) > 100
    portrait = trace_portrait(
        build_geometric_bde(validate_jet(SADDLE_JET), FoliationKind.ASYMPTOTIC),
        TraceConfig(max_steps=800, seeds_per_side=6))
    assert capsys.readouterr().out == (
        f"wrote {out}: {len(portrait.curves)} curves, "
        f"{portrait.warnings} warnings, top_class ThreeSaddles\n")


def test_render_writes_svgs(jet_file, tmp_path, capsys):
    domain = tmp_path / "domain.svg"
    surface = tmp_path / "surface.svg"
    rc = main(["render", "--jet", jet_file(SADDLE_JET), "--foliation",
               "asymptotic", "--out", str(domain), "--surface", str(surface),
               "--max-steps", "800", "--seeds-per-side", "6",
               "--camera", "1,1,1", "--up", "0,0,1"])
    assert rc == 0
    import xml.etree.ElementTree as ET
    ET.fromstring(domain.read_text())
    ET.fromstring(surface.read_text())
    assert "ThreeSaddles" in domain.read_text()


def test_verify_small_run_passes_and_is_deterministic(capsys):
    rc1 = main(["verify", "--trials", "6", "--seed", "11"])
    out1 = capsys.readouterr().out
    rc2 = main(["verify", "--trials", "6", "--seed", "11"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "overall: pass" in out1


def test_verify_deterministic_across_worker_counts(capsys):
    rc1 = main(["verify", "--trials", "6", "--seed", "3", "--workers", "1"])
    out1 = capsys.readouterr().out
    rc2 = main(["verify", "--trials", "6", "--seed", "3", "--workers", "2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_report_bytes_pinned(capsys):
    # sha256 of the whole report: any change to a suite's trial count,
    # worst value or layout, or to the discrepancy texts, moves it
    assert main(["verify", "--trials", "6", "--seed", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == (
        "738fc80701f52a5d30477a755f68369d0a0e377a402e5d65a379fb56c82dd1b7")


@pytest.mark.parametrize("workers, trials, cpus, pool", [
    (64, 2, 8, 2),        # no more processes than trials
    (64, 10, 3, 3),       # nor than CPUs
    (2, 10, 8, 2),
    (64, 1, 8, None),     # one trial runs in-process
    (8, 10, 1, None),     # so does a one-CPU machine
])
def test_trial_pool_is_bounded(monkeypatch, workers, trials, cpus, pool):
    from edgefol import verify
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    args = [(0, i) for i in range(trials)]
    assert verify._run_trials(verify._survey_trial, args, workers) \
        == [verify._survey_trial(a) for a in args]
    assert sizes == ([] if pool is None else [pool])


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only `--workers` > 1 starts a pool, so importing the CLI loads
    neither the process pool nor multiprocessing (a fresh interpreter:
    this one has both by now)."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, edgefol.cli; "
             "print(sorted(m for m in ('concurrent.futures.process', "
             "'multiprocessing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_survey_deterministic_and_reports_frequencies(capsys):
    rc1 = main(["survey", "--trials", "12", "--seed", "5"])
    out1 = capsys.readouterr().out
    rc2 = main(["survey", "--trials", "12", "--seed", "5", "--workers", "2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "asymptotic class frequencies" in out1
    assert "co-occurrence" in out1


@pytest.mark.parametrize("argv, title", [
    (["verify", "--trials", "2", "--seed", "4"], "verification"),
    (["survey", "--trials", "12", "--seed", "4"], "survey"),
])
def test_report_out_file_holds_the_printed_bytes(tmp_path, capsys, argv, title):
    out = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"edgefol {title} report\n")
    assert out.read_bytes() == printed.encode()


def test_unknown_foliation_rejected(jet_file, capsys):
    rc = main(["classify", "--jet", jet_file(CUSP_JET),
               "--foliation", "bogus"])
    assert rc == 2


@pytest.mark.parametrize("flags, record, command", [
    (["--json"], SADDLE_JET, ["classify"]),
    ([], SADDLE_JET, ["classify"]),
    # the command fails, and its JSON error report meets the closed stdout
    (["--json"], SADDLE_JET, ["trace", "--box", "nan", "--out", "o.csv"]),
    (["--json"], dict(SADDLE_JET, b30="0.1"), ["classify"]),
    (["--json"], SADDLE_JET, ["trace", "--box", "abc", "--out", "o.csv"]),
], ids=["json", "text", "json-trace-box-nan", "json-classify-quoted",
        "json-trace-box-abc"])
def test_closed_stdout_exits_2_without_a_message(jet_file, tmp_path, flags,
                                                 record, command):
    """A reader that has closed stdout (`edgefol classify ... | head -n 0`)
    gets no traceback and no error message: the command exits 2, the I/O
    status, also when the output it meets closed is an error report."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "edgefol.cli", *flags, *command,
             "--jet", jet_file(record), "--foliation", "asymptotic"],
            stdout=write, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
            timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 2
