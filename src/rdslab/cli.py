"""Command-line front end.

Subcommands:

* ``run --config FILE [--out DIR] [--seed N]`` — run the configured
  experiment, write ``<experiment>.csv`` into the output directory, and
  print one PASS/FAIL line per asserted invariant.
* ``validate --config FILE`` — parse and validate only.

The output directory defaults to the ``RDSLAB_OUT`` environment
variable, falling back to the current directory.  Exit status: 0 when
all checks pass, 1 when at least one check fails, 2 for usage, parse,
or I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import parse_config
from .errors import RdsLabError
from .experiments import run_experiment

__all__ = ["main"]

OUT_DIR_ENV = "RDSLAB_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdslab",
        description="Seeded experiments for a stochastic nonlocal delayed "
        "reaction-diffusion solver on the half-line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and write its CSV report")
    run_p.add_argument("--config", required=True, help="path to a key = value config file")
    run_p.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the current directory)",
    )
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    val_p = sub.add_parser("validate", help="parse and validate a config, run nothing")
    val_p.add_argument("--config", required=True, help="path to a key = value config file")
    return parser


def _read_config(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise RdsLabError(f"cannot read config file {path!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(exc.code or 0)

    try:
        spec = parse_config(_read_config(args.config), seed=getattr(args, "seed", None))
    except RdsLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"config ok: experiment = {spec.experiment}")
        for key in sorted(spec.values):
            print(f"{key} = {spec.values[key]}")
        return 0

    out_dir = args.out if args.out is not None else os.environ.get(OUT_DIR_ENV, ".")
    try:
        result = run_experiment(spec)
    except RdsLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    csv_path = os.path.join(out_dir, f"{spec.experiment}.csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(result.csv_text())
    except OSError as exc:
        print(f"error: cannot write {csv_path!r}: {exc}", file=sys.stderr)
        return 2

    print(f"experiment {spec.experiment}: {len(result.rows)} rows -> {csv_path}")
    for line in result.summary_lines():
        print(line)
    print(f"result: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
