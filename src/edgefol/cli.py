"""Command-line interface: classify, trace, render, verify, survey."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace

from .errors import ConfigError, EdgefolError, EmptyPortrait
from .foliations import (
    build_geometric_bde,
    classify_edge_foliation,
    parse_kind,
)
from .jets import load_jet
from .render import RenderStyle, curves_to_csv, portrait_to_svg, surface_view_to_svg
from .tracer import TraceConfig, project_to_surface, trace_portrait
from .verify import (
    format_survey_report,
    format_verify_report,
    run_survey,
    run_verify,
)


class _UsageError(Exception):
    """An argparse usage error: (parser, message), raised to `main`."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edgefol",
        description="Foliations of cuspidal-edge surfaces: classification, "
                    "tracing, rendering and verification.",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable error output")
    sub = parser.add_subparsers(dest="command", required=True)

    jet_commands = [sub.add_parser(name, help=text) for name, text in (
        ("classify", "classify one foliation"),
        ("trace", "trace a portrait to CSV"),
        ("render", "render portrait SVG(s)"))]
    for p_jet in jet_commands:
        p_jet.add_argument("--jet", required=True, help="jet JSON file")
        p_jet.add_argument("--foliation", required=True,
                           help="lc | asymptotic | characteristic")
    _, p_trace, p_render = jet_commands
    for p_jet in (p_trace, p_render):
        for field in fields(TraceConfig):  # --box, --step, --seeds-per-side, --max-steps
            p_jet.add_argument("--" + field.name.replace("_", "-"),
                               type=type(field.default), default=field.default)
    p_trace.add_argument("--out", required=True, help="output CSV path")
    p_render.add_argument("--out", required=True, help="domain SVG path")
    p_render.add_argument("--surface", default=None,
                          help="optional surface-view SVG path")
    p_render.add_argument("--camera", default=None,
                          help="orthographic camera direction x,y,z")
    p_render.add_argument("--up", default=None, help="camera up-vector x,y,z")

    for name, text in (("verify", "run the oracle suites"),
                       ("survey", "class frequencies on random jets")):
        p_report = sub.add_parser(name, help=text)
        p_report.add_argument("--trials", type=int, default=200)
        p_report.add_argument("--seed", type=int, default=0)
        p_report.add_argument("--workers", type=int, default=1)
        p_report.add_argument("--out", default=None, help="also write report here")
    return parser


def _validate_numeric(args):
    for name in (*(field.name for field in fields(TraceConfig)), "trials",
                 "workers"):
        value = getattr(args, name, None)
        flag = "--" + name.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number")
        if value is not None and value <= 0:
            raise ConfigError(f"{flag} must be positive")
    box = getattr(args, "box", None)
    if box is not None and box > 2.0:
        raise ConfigError("--box must be <= 2 (the normal form is local)")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ConfigError("--seed must be nonnegative")


def _trace_setup(args):
    jet = load_jet(args.jet)
    kind = parse_kind(args.foliation)
    config = TraceConfig(**{field.name: getattr(args, field.name)
                            for field in fields(TraceConfig)})
    bde = build_geometric_bde(jet, kind)
    classification = classify_edge_foliation(jet, kind)
    return jet, config, bde, classification


def _nonempty_portrait(bde, config):
    """The traced portrait; an empty one raises before any file is opened."""
    portrait = trace_portrait(bde, config)
    if not portrait.curves:
        raise EmptyPortrait("portrait contains no curves")
    return portrait


def _parse_vec3(text, flag):
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3 or not all(map(math.isfinite, parts)):
        raise ConfigError(f"{flag} must be three comma-separated finite numbers")
    return parts


def _cmd_classify(args) -> int:
    jet = load_jet(args.jet)
    kind = parse_kind(args.foliation)
    print(classify_edge_foliation(jet, kind).to_json())
    return 0


def _cmd_trace(args) -> int:
    jet, config, bde, classification = _trace_setup(args)
    portrait = _nonempty_portrait(bde, config)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(curves_to_csv(portrait, jet))
    print(f"wrote {args.out}: {len(portrait.curves)} curves, "
          f"{portrait.warnings} warnings, "
          f"top_class {classification.top_class.value}")
    return 0


def _cmd_render(args) -> int:
    jet, config, bde, classification = _trace_setup(args)
    style = RenderStyle()
    if args.camera:
        style = replace(style, camera_direction=_parse_vec3(args.camera, "--camera"))
    if args.up:
        style = replace(style, camera_up=_parse_vec3(args.up, "--up"))
    try:    # a degenerate camera fails before any tracing or file open
        style.camera_frame()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    portrait = _nonempty_portrait(bde, config)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(portrait_to_svg(portrait, style,
                                 top_class=classification.top_class.value))
    written = [args.out]
    if args.surface:
        curves3d = project_to_surface(jet, portrait)
        with open(args.surface, "w", encoding="utf-8") as fh:
            fh.write(surface_view_to_svg(curves3d, style))
        written.append(args.surface)
    print("wrote " + ", ".join(written))
    return 0


def _write_report(text, out):
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_verify(args) -> int:
    report = run_verify(args.trials, args.seed, args.workers)
    _write_report(format_verify_report(report), args.out)
    return 0 if report.passed else 1


def _cmd_survey(args) -> int:
    survey = run_survey(args.trials, args.seed, args.workers)
    _write_report(format_survey_report(survey), args.out)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "trace": _cmd_trace,
    "render": _cmd_render,
    "verify": _cmd_verify,
    "survey": _cmd_survey,
}


def main(argv=None) -> int:
    # filled as argparse reads argv: --json precedes the command, so a usage
    # error finds it set
    args = argparse.Namespace()
    try:
        try:
            try:
                build_parser().parse_args(argv, args)
            except _UsageError as exc:    # argparse's own report without --json
                if not args.json:
                    argparse.ArgumentParser.error(*exc.args)
                raise ConfigError(exc.args[1]) from None
            _validate_numeric(args)
            status = _COMMANDS[args.command](args)
        except BrokenPipeError:
            raise
        except (EdgefolError, OSError, ValueError, ArithmeticError) as exc:
            _emit_error(args, exc)
            status = 2 if isinstance(exc, (ConfigError, OSError, ValueError)) else 1
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout, an error report's too: it takes no
        # message, and the final flush goes to os.devnull, not raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except KeyboardInterrupt:  # pragma: no cover
        return 130


def _emit_error(args, exc):
    if getattr(args, "json", False):
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
    else:
        print(f"edgefol: error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
