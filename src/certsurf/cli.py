"""Command line front end.

Three subcommands: ``approximate`` grows a certified box cover from a
start point, ``graph`` certifies the zero set as graphs over a base
rectangle, and ``verify`` re-runs every certificate in an exported file.
Exit codes: 0 success, 2 certification (domain errors included) or
verification failure, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig, load_config, parse_ratio, parse_ratio_down
from .errors import ATTEMPT_ERRORS, ConfigError, ParseError
from .exports import (
    verify_jsonl,
    write_graph_jsonl,
    write_surface_jsonl,
    write_surface_obj,
)
from .graph_cover import cover_graph
from .intervals import Interval, IntervalBox
from .surface import certified_surface_approximation

__all__ = ["cli_main", "main"]

EXIT_OK = 0
EXIT_CERT = 2
EXIT_INPUT = 3

_INPUT_ERRORS = (ConfigError, ParseError, OSError, ValueError, json.JSONDecodeError)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the input-error code."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_run_flags(sp) -> None:
    sp.add_argument("config", nargs="?", help="key=value config file")
    sp.add_argument("--variables", help="ambient variable names, space separated")
    sp.add_argument(
        "--equation",
        action="append",
        help="one equation (left-hand side, '= 0' implied); repeatable",
    )
    sp.add_argument("--start", help="start point coordinates, space separated")
    sp.add_argument("--r", dest="r_initial", help="initial base radius")
    sp.add_argument("--rho", help="contraction factor, decimal or p/q ratio")
    sp.add_argument(
        "--domain",
        help="lo hi pairs, one per variable (graph mode: base then fiber)",
    )
    sp.add_argument("--max-boxes", type=int, help="stop after this many boxes")
    sp.add_argument("--out-json", help="write the cover as line-delimited JSON")
    sp.add_argument("--out-obj", help="write the cover as an OBJ mesh")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="certsurf",
        description="Certified oriented-box covers of smooth implicit surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ap = sub.add_parser(
        "approximate", help="grow a certified box cover from a start point"
    )
    _add_run_flags(ap)
    ap.set_defaults(func=_cmd_approximate)
    gp = sub.add_parser(
        "graph", help="certify the zero set as graphs over a base rectangle"
    )
    _add_run_flags(gp)
    gp.set_defaults(func=_cmd_graph)
    vp = sub.add_parser("verify", help="re-run every certificate in a cover file")
    vp.add_argument("boxes", help="line-delimited JSON cover file")
    vp.set_defaults(func=_cmd_verify)
    return parser


def _assemble(args, mode: str) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg.mode = mode
    if args.variables:
        cfg.variables = args.variables.split()
    if args.equation:
        cfg.equations = list(args.equation)
    if args.start:
        cfg.start = [float(tok) for tok in args.start.split()]
    if args.r_initial:
        cfg.r_initial = parse_ratio(args.r_initial)
    if args.rho:
        cfg.rho = parse_ratio_down(args.rho)
    if args.domain:
        nums = [float(tok) for tok in args.domain.split()]
        if len(nums) % 2 != 0:
            raise ConfigError("domain needs an even count of numbers")
        cfg.domain = [(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)]
    if args.max_boxes is not None:
        cfg.max_boxes = args.max_boxes
    if args.out_json:
        cfg.out_json = args.out_json
    if args.out_obj:
        cfg.out_obj = args.out_obj
    cfg.validate()
    return cfg


def _cmd_approximate(args) -> int:
    try:
        cfg = _assemble(args, mode="surface")
        system = cfg.system()
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        run = certified_surface_approximation(
            system,
            cfg.start,
            cfg.r_initial,
            cfg.rho,
            domain=cfg.domain,
            max_boxes=cfg.max_boxes,
        )
    except ATTEMPT_ERRORS as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERT
    live = run.live_count()
    state = "truncated" if run.truncated else (
        "natural" if run.natural else "incomplete"
    )
    print(f"{live} certified boxes ({state} termination)")
    if cfg.out_json:
        write_surface_jsonl(run, cfg.out_json)
        print(f"wrote {cfg.out_json}")
    if cfg.out_obj:
        write_surface_obj(run, cfg.out_obj)
        print(f"wrote {cfg.out_obj}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    try:
        cfg = _assemble(args, mode="graph")
        system = cfg.system()
        if cfg.out_obj:
            raise ConfigError("OBJ export is surface mode only")
        d = system.d
        base_bounds = cfg.domain[:d]
        fiber = IntervalBox([Interval(lo, hi) for lo, hi in cfg.domain[d:]])
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    kwargs = {}
    if cfg.max_boxes is not None:
        kwargs["max_cells"] = cfg.max_boxes
    try:
        cover = cover_graph(system, base_bounds, fiber, cfg.rho, **kwargs)
    except ATTEMPT_ERRORS as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERT
    print(
        f"{len(cover.cells)} certified cells over {cover.sheets} sheet(s)"
        f" from {cover.tests} cell tests"
    )
    if cfg.out_json:
        write_graph_jsonl(system, cover, cfg.out_json)
        print(f"wrote {cfg.out_json}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        report = verify_jsonl(args.boxes)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(report.summary())
    for line in report.failures[:20]:
        print(f"  {line}")
    if len(report.failures) > 20:
        print(f"  ... {len(report.failures) - 20} more")
    return EXIT_OK if report.ok else EXIT_CERT


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def main() -> None:
    sys.exit(cli_main())
