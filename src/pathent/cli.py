"""Command-line interface.

Subcommands: run, sweep-phase, sweep-alpha, certify.  Exit codes:
0 success, 2 malformed input or unwritable output, 3 numerical failure or
an array too large to allocate, 4 multiphoton bounds outside the domain
of the linearized statistics.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys

import numpy as np

from . import pipeline
from .config import ConfigError, load_experiment_config
from .herald import HeraldingError
from .pipeline import format_float
from .stats import PStarDomainError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PSTAR = 4

# the flags of the simulating commands and of the outputs, as (flag, add_argument options)
_CONFIG = (("--config", dict(required=True, help="experiment configuration (JSON)")),
           ("--seed", dict(type=int, default=None, help="override the Monte Carlo seed")),
           ("--truncation", dict(type=int, default=None, help="override numerics.truncation_n_max (inert)")))
_REPORT = ("--out", dict(help="write the JSON report to this path"))
_TABLE = (("--out", dict(help="write the sweep table to this path")),
          ("--format", dict(choices=("csv", "json"), default="csv")))
# command -> (help line, flags in the order its help lists them)
COMMANDS = {
    "run": ("simulate the configured experiment and certify it", (*_CONFIG, _REPORT)),
    "sweep-phase": ("witness vs relative measurement phase", (
        *_CONFIG, ("--phase-min", dict(type=float, default=-np.pi, help="first relative phase (rad)")),
        ("--phase-max", dict(type=float, default=np.pi, help="last relative phase (rad)")),
        ("--steps", dict(type=int, default=25)), *_TABLE)),
    "sweep-alpha": ("violation vs displacement amplitudes", (
        *_CONFIG, ("--alpha-min", dict(type=float, default=0.1)), ("--alpha-max", dict(type=float, default=1.2)),
        ("--steps", dict(type=int, default=12, help="grid points per axis")), *_TABLE)),
    "certify": ("certify recorded counts without simulation", (
        ("--counts", dict(required=True, help="CSV with basis,n_total,n_a,n_b,n_d[,n_none] rows")),
        ("--settings", dict(required=True, help="sidecar with alpha intervals and multiphoton bounds")), _REPORT)),
}


def _formatter():
    """HelpFormatter at its own default width, with the terminal size looked up once, not per add_argument."""
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _add_flags(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for flag, options in COMMANDS[command][1]:
        parser.add_argument(flag, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole `pathent` parser: every command as a subparser with its flags."""
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="pathent",
        description="Simulate and certify heralded single-photon path entanglement.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _) in COMMANDS.items():
        _add_flags(sub.add_parser(command, help=help_line, formatter_class=formatter), command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:  # --help, no or an unknown command, a flag before it
        args = build_parser().parse_args(argv)
    else:  # only the subparser build_parser makes for the command; its leftovers fail as in build_parser's parse
        parser = _add_flags(argparse.ArgumentParser(prog=f"pathent {argv[0]}", formatter_class=_formatter()),
                            argv[0])
        args, leftover = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if leftover:
            build_parser().error(f"unrecognized arguments: {' '.join(leftover)}")
    try:
        return _dispatch(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PStarDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PSTAR
    except (HeraldingError, ValueError, ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "certify":
        report = pipeline.certify_from_counts(args.counts, args.settings)
        if args.out is not None:
            pipeline.write_report(report, args.out)
        _print_summary(report)
        return EXIT_OK
    config = load_experiment_config(args.config, args.truncation, args.seed)
    if args.command == "run":
        report = pipeline.run_experiment(config)
        if (out := args.out or config.output.report_path) is not None:
            pipeline.write_report(report, out)
        _print_summary(report)
    elif args.command == "sweep-phase":
        rows = pipeline.sweep_phase(config, args.phase_min, args.phase_max, args.steps)
        _emit(rows, rows, args)
    else:
        result = pipeline.sweep_alpha(config, args.alpha_min, args.alpha_max, args.steps)
        for mode, values in result["optima"].items():
            if "alpha1" in values:
                print(
                    f"# optimum {mode}: alpha1={format_float(values['alpha1'])} "
                    f"alpha2={format_float(values['alpha2'])}"
                )
            else:
                print(f"# optimum {mode}: {values['error']}")
        _emit(result, result["rows"], args)
    return EXIT_OK


def _emit(document, rows: list[dict], args: argparse.Namespace) -> None:
    """A sweep's output: its whole document as JSON or its rows as CSV, to --out or else stdout."""
    text = pipeline.report_to_json(document) if args.format == "json" else pipeline.rows_to_csv(rows)
    if args.out:
        pipeline.write_text(text, args.out)
    else:
        sys.stdout.write(text)


def _print_summary(report: dict) -> None:
    wit = report["witness"]
    verdict = "entangled" if wit["entangled"] else "not entangled"
    for name in ("w_exp", "w_ppt", "w_tilde_ppt", "w_ppt_max", "sigma_exp", "sigma_ppt_max", "k"):
        print(f"{name:>14} = {format_float(wit[name])}")
    print(f"{'verdict':>14} = {verdict}")


if __name__ == "__main__":
    sys.exit(main())
