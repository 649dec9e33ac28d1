"""Command-line interface.

Subcommands: run, sweep-phase, sweep-alpha, certify.  Exit codes:
0 success, 2 malformed input or unwritable output, 3 numerical failure or
an array too large to allocate, 4 multiphoton bounds outside the domain
of the linearized statistics.
"""

from __future__ import annotations

import argparse
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathent",
        description="Simulate and certify heralded single-photon path entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate the configured experiment and certify it")
    _common_config_flags(run)
    run.add_argument("--out", help="write the JSON report to this path")

    phase = sub.add_parser("sweep-phase", help="witness vs relative measurement phase")
    _common_config_flags(phase)
    phase.add_argument("--phase-min", type=float, default=-np.pi, help="first relative phase (rad)")
    phase.add_argument("--phase-max", type=float, default=np.pi, help="last relative phase (rad)")
    phase.add_argument("--steps", type=int, default=25)
    phase.add_argument("--out", help="write the sweep table to this path")
    phase.add_argument("--format", choices=("csv", "json"), default="csv")

    alpha = sub.add_parser("sweep-alpha", help="violation vs displacement amplitudes")
    _common_config_flags(alpha)
    alpha.add_argument("--alpha-min", type=float, default=0.1)
    alpha.add_argument("--alpha-max", type=float, default=1.2)
    alpha.add_argument("--steps", type=int, default=12, help="grid points per axis")
    alpha.add_argument("--out", help="write the sweep table to this path")
    alpha.add_argument("--format", choices=("csv", "json"), default="csv")

    cert = sub.add_parser("certify", help="certify recorded counts without simulation")
    cert.add_argument("--counts", required=True, help="CSV with basis,n_total,n_a,n_b,n_d[,n_none] rows")
    cert.add_argument("--settings", required=True, help="sidecar with alpha intervals and multiphoton bounds")
    cert.add_argument("--out", help="write the JSON report to this path")
    return parser


def _common_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment configuration (JSON)")
    sub.add_argument("--seed", type=int, default=None, help="override the Monte Carlo seed")
    sub.add_argument("--truncation", type=int, default=None, help="override numerics.truncation_n_max (inert)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        _emit_rows(rows, args.out, args.format)
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
        if args.format == "json":
            text = pipeline.report_to_json(result)
            _write_or_print(text, args.out)
        else:
            _emit_rows(result["rows"], args.out, "csv")
    return EXIT_OK


def _emit_rows(rows: list[dict], out, fmt: str) -> None:
    text = pipeline.report_to_json(rows) if fmt == "json" else pipeline.rows_to_csv(rows)
    _write_or_print(text, out)


def _write_or_print(text: str, out) -> None:
    if out:
        pipeline.write_text(text, out)
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
