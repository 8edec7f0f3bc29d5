"""Command-line entry point for the experiment runner.

Each subcommand maps to one experiment and is built from its entry in
``experiments.SPECS``: the flags are the fields the experiment takes, and
each experiment validates only those fields.  Flags are long-only and
override values read from an optional key=value config file, whose keys
are the subcommand's own flags (plus ``out``).  The table goes to --out
when given, otherwise to stdout.  A valid config opens --out, truncating
it, before the experiment runs, so an unwritable path fails at once.
Human-readable pass/fail lines go to stderr so the CSV stream stays
clean.  Exit status 0 means every assertion in the experiment held.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .experiments import FIELDS, SPECS, ExperimentConfig, run_experiment

__all__ = ["main", "build_parser", "read_config_file"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skorochaos",
        description="Experiment runner for the anticipating-integral toolkit.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, spec in SPECS.items():
        doc = f"{spec.summary}; columns {','.join(spec.columns)}"
        p = sub.add_parser(name, help=doc, description=doc)
        for flag in spec.fields:
            p.add_argument(f"--{flag}", type=FIELDS[flag].type, default=None, help=FIELDS[flag].help)
        p.add_argument("--config", default=None, help="key=value file; flags override it")
        p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fp:
        for raw in fp:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    spec = SPECS[args.experiment]
    values: dict[str, object] = {"experiment": args.experiment}
    keys = (*spec.fields, "out")
    if args.config is not None:
        for key, raw in read_config_file(args.config).items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} for {args.experiment}")
            values[key] = FIELDS[key].type(raw) if key in FIELDS else raw
    values.update((key, given) for key in keys if (given := getattr(args, key)) is not None)
    return ExperimentConfig(**values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        cfg.validate()
        with open(cfg.out, "w", encoding="utf-8") if cfg.out is not None else nullcontext(sys.stdout) as fp:
            result = run_experiment(cfg)
            fp.write(result.csv_text())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for msg in result.failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    status = "pass" if result.ok else "FAIL"
    print(f"{cfg.experiment}: {status} ({len(result.rows)} rows)", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
