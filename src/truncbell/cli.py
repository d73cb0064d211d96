"""Command-line interface: family tables, single-value evaluation, single
identity checks, and full suite runs with bit-stable file output.

Rationals cross the boundary only as "num/den" strings; floats are
accepted solely for tolerances. Exit codes: 0 success / all counted
checks pass, 1 a counted check failed, 2 invalid arguments, 3 output
could not be written. The environment variable TRUNCBELL_OUTPUT_DIR, if
set, prefixes relative output paths; everything else is flags.

table and eval run on the exact layers alone: for them the check engine
(verify) and numpy are never imported. check and suite import both, to
build their subcommands' choices and defaults and to run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .exactnum import parse_rational
from .fps import Poly
from .sequences import Family, SequenceTable, build_table

OUTPUT_DIR_ENV = "TRUNCBELL_OUTPUT_DIR"

_EXACT_COMMANDS = ("table", "eval")


def _rational(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_list(text: str):
    return tuple(_rational(tok) for tok in text.split(","))


def _int_list(text: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_output_flag(sub):
    sub.add_argument("-o", "--output", default=None, metavar="PATH",
                     help="write to PATH instead of stdout")


def _add_config_flags(sub, cfg):
    sub.add_argument("--tol-rel", type=float, default=cfg.tol_rel,
                     help="relative tolerance for numeric checks")
    sub.add_argument("--tol-abs", type=float, default=cfg.tol_abs,
                     help="absolute tolerance for numeric checks")
    sub.add_argument("--quad-nodes", type=int, default=cfg.quad_nodes,
                     help="even node count for contour quadrature")
    sub.add_argument("--cutoff-k", dest="series_cutoff_k", metavar="CUTOFF_K", type=int,
                     default=cfg.series_cutoff_k, help="outer cutoff for double-series checks")
    sub.add_argument("--cutoff-l", dest="series_cutoff_l", metavar="CUTOFF_L", type=int,
                     default=cfg.series_cutoff_l, help="inner cutoff for double-series checks")
    sub.add_argument("--moment-nodes", type=int, default=cfg.moment_nodes,
                     help="lattice size for the numeric half of S3")
    sub.add_argument("--seed", type=int, default=cfg.seed,
                     help="recorded in the report's summary.config; no check reads it, "
                          "and it goes with the next benchmark change (ROADMAP item 5)")


def _config_from(args):
    # every NumericConfig field has a flag whose dest is the field's name
    from .verify import NumericConfig

    return NumericConfig(**{f.name: getattr(args, f.name) for f in fields(NumericConfig)})


def _write_output(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    prefix = os.environ.get(OUTPUT_DIR_ENV)
    if prefix and not os.path.isabs(path):
        path = os.path.join(prefix, path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_table(args) -> int:
    table = build_table(Family(args.family), args.n_max, lam=args.lam, p=args.p, r=args.r)
    text = table.to_csv_text() if args.format == "csv" else table.to_json_text()
    return _write_output(text, args.output)


def cmd_eval(args) -> int:
    family = Family(args.family)
    if args.n < 0:
        raise ValueError(f"n must be >= 0, got {args.n}")
    table = build_table(family, args.n, lam=args.lam, p=args.p, r=args.r)
    if table.triangular:
        if args.k is None:
            raise ValueError(f"family {family.value} is triangular; pass --k")
        value = table.value(args.n, args.k)
    else:
        if args.k is not None:
            raise ValueError(f"family {family.value} does not take --k")
        value = table.value(args.n)
    if args.x is not None:
        if not isinstance(value, Poly):
            raise ValueError(f"family {family.value} values take no x argument")
        value = value(args.x)
    text = value.to_string() if isinstance(value, Poly) else f"{value}"
    return _write_output(text + "\n", args.output)


def cmd_check(args) -> int:
    from . import verify

    verdicts = verify.run_check(
        args.id,
        args.lam,
        p=args.p,
        k=args.k,
        n_max=args.n_max,
        order=args.order,
        cfg=_config_from(args),
        x_points=args.x_points,
    )
    rc = _write_output(verify.verdicts_to_json_text(verdicts), args.output)
    return rc if rc else verify.exit_code_for(verdicts)


def cmd_suite(args) -> int:
    from . import verify

    grid = verify.SuiteGrid(
        lambdas=args.lambdas,
        ps=args.ps,
        n_max=args.n_max,
        order=args.order,
        x_points=args.x_points,
    )
    report = verify.run_suite(grid, _config_from(args))
    rc = _write_output(verify.report_to_json_text(report), args.output)
    return rc if rc else report.exit_code()


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for every subcommand, or, when command is table or eval,
    one without the check and suite subcommands, whose choices and
    defaults come from the check engine and so would import it."""
    parser = argparse.ArgumentParser(
        prog="truncbell",
        description="Exact tables and mechanical identity checks for "
                    "degenerate and truncated Bell-type sequence families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    families = [f.value for f in Family]

    p_table = sub.add_parser("table", help="emit a family table as CSV or JSON")
    p_table.add_argument("--family", required=True, choices=families)
    p_table.add_argument("--lambda", dest="lam", type=_rational, default=None,
                         metavar="NUM/DEN", help="deformation parameter")
    p_table.add_argument("--p", type=int, default=None, help="truncation index")
    p_table.add_argument("--r", type=int, default=None, help="order parameter")
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output_flag(p_table)
    p_table.set_defaults(func=cmd_table)

    p_eval = sub.add_parser("eval", help="print one exact value or polynomial")
    p_eval.add_argument("--family", required=True, choices=families)
    p_eval.add_argument("--lambda", dest="lam", type=_rational, default=None,
                        metavar="NUM/DEN")
    p_eval.add_argument("--p", type=int, default=None)
    p_eval.add_argument("--r", type=int, default=None)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--k", type=int, default=None,
                        help="column index for triangular families")
    p_eval.add_argument("--x", type=_rational, default=None, metavar="NUM/DEN",
                        help="evaluate a polynomial value at this point")
    _add_output_flag(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    if command in _EXACT_COMMANDS:
        return parser
    from . import verify

    cfg, grid = verify.NumericConfig(), verify.SuiteGrid()
    p_check = sub.add_parser("check", help="run one identity check, print verdicts")
    p_check.add_argument("--id", required=True, choices=verify.KNOWN_CHECK_IDS)
    p_check.add_argument("--lambda", dest="lam", type=_rational, required=True,
                         metavar="NUM/DEN")
    p_check.add_argument("--p", type=int, default=None)
    p_check.add_argument("--k", type=int, default=None,
                         help="fix one column in the triangle contour check")
    p_check.add_argument("--n-max", type=int, default=grid.n_max)
    p_check.add_argument("--order", type=int, default=grid.order,
                         help="series truncation order")
    p_check.add_argument("--x-points", type=_rational_list, default=None,
                         metavar="R1,R2,...", help="evaluation points for T15")
    _add_config_flags(p_check, cfg)
    _add_output_flag(p_check)
    p_check.set_defaults(func=cmd_check)

    p_suite = sub.add_parser("suite", help="run every check over a parameter grid")
    p_suite.add_argument("--default-grid", action="store_true",
                         help="use the built-in grid (also the default)")
    p_suite.add_argument("--lambdas", type=_rational_list,
                         default=grid.lambdas, metavar="R1,R2,...")
    p_suite.add_argument("--ps", type=_int_list, default=grid.ps,
                         metavar="P1,P2,...")
    p_suite.add_argument("--n-max", type=int, default=grid.n_max)
    p_suite.add_argument("--order", type=int, default=grid.order)
    p_suite.add_argument("--x-points", type=_rational_list,
                         default=grid.x_points, metavar="R1,R2,...")
    _add_config_flags(p_suite, cfg)
    _add_output_flag(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option but -h, so argv[0] names the command
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
