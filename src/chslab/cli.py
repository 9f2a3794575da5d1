"""Command-line experiment runner.

Subcommands:
    run <config-file>   run one experiment from an INI-style config
    suite <name>        run a registered suite (lemmas, bounds, montecarlo, all)
    list                dump the experiment registry

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration error.
When --out is absent, reports land in $CHSLAB_OUTDIR (default: current
directory) under <experiment-or-suite>-<seed>.<format>.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ChslabError, ConfigInvalid
from .registry import (
    Caps,
    ExperimentConfig,
    REGISTRY,
    SUITES,
    Report,
    report_to_csv_rows,
    report_to_json,
    run,
    run_suite,
)

OUTDIR_ENV = "CHSLAB_OUTDIR"


def _parse_scalar(text: str):
    text = text.strip()
    if "," in text:
        return tuple(_parse_scalar(part) for part in text.split(",") if part.strip())
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def load_config(path: str) -> tuple[ExperimentConfig, str | None, str]:
    """Parse a key = value sectioned config file into an ExperimentConfig."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigInvalid(f"cannot read config file {path!r}")
    if "experiment" not in parser or "name" not in parser["experiment"]:
        raise ConfigInvalid("config needs an [experiment] section with a name")
    name = parser["experiment"]["name"].strip()
    params = {k: _parse_scalar(v) for k, v in parser.items("params")} \
        if "params" in parser else {}
    try:
        seed = int(parser["experiment"].get("seed", "0"))
        caps = Caps(
            dim=int(parser["caps"].get("dim", Caps.dim)) if "caps" in parser else Caps.dim,
            enum=int(parser["caps"].get("enum", Caps.enum)) if "caps" in parser else Caps.enum,
        )
        tolerances = {}
        if "tolerances" in parser:
            tolerances = {k: float(v) for k, v in parser.items("tolerances")}
    except ValueError as exc:
        raise ConfigInvalid(f"bad number in {path!r}: {exc}") from exc
    out_path = parser["output"].get("path") if "output" in parser else None
    fmt = parser["output"].get("format", "json") if "output" in parser else "json"
    return ExperimentConfig(name, params, seed, caps, tolerances), out_path, fmt


def _summary_table(reports: list[Report]) -> str:
    lines = []
    header = f"{'experiment':<22} {'check':<34} {'value':>14} {'reference':>14} {'mode':<8} verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        for c in r.checks:
            ref = "" if c.reference is None else f"{c.reference:.6g}"
            lines.append(
                f"{r.experiment:<22} {c.name:<34} {c.value:>14.6g} {ref:>14} "
                f"{c.mode:<8} {'pass' if c.passed else 'FAIL'}")
    total = sum(len(r.checks) for r in reports)
    failed = sum(1 for r in reports for c in r.checks if not c.passed)
    lines.append(f"{total} checks, {failed} failed")
    return "\n".join(lines)


def _write_reports(reports: list[Report], out_path: str | None, fmt: str,
                   default_stem: str) -> Path:
    if out_path is None:
        outdir = Path(os.environ.get(OUTDIR_ENV, "."))
        outdir.mkdir(parents=True, exist_ok=True)
        out_path = outdir / f"{default_stem}.{fmt}"
    path = Path(out_path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path.write_text(report_to_json(reports))
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(report_to_csv_rows(reports))
        path.write_text(buf.getvalue())
    else:
        raise ConfigInvalid(f"unknown format {fmt!r}; use json or csv")
    return path


def _caps(base: Caps, args) -> Caps:
    """``base`` with the cap flags that were given; a cap below 1 is refused."""
    flags = {"dim": args.cap_dim, "enum": args.cap_enum}
    return replace(base, **{k: v for k, v in flags.items() if v is not None})


def _exit_code(reports: list[Report]) -> int:
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chslab", description="run shared-Haar-state verification experiments")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config/suite seed")
    parser.add_argument("--out", type=str, default=None, help="report output path")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--cap-dim", type=int, default=None,
                        help="flat-dimension cap override")
    parser.add_argument("--cap-enum", type=int, default=None,
                        help="enumeration cap override")
    # ignored; frozen perfbench passes --jobs 1, so it goes with benchmark v2 (ROADMAP item 1)
    parser.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_suite = sub.add_parser("suite", help="run a registered suite")
    p_suite.add_argument("name", choices=SUITES)
    sub.add_parser("list", help="dump the experiment registry")
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            for name, entry in REGISTRY.items():
                suites = ",".join(entry.suites)
                print(f"{name:<24} [{suites:<10}] {entry.encodes}")
                print(f"{'':<24} defaults: {entry.defaults}")
            return 0

        if args.command == "run":
            config, cfg_out, cfg_fmt = load_config(args.config)
            config = replace(config, caps=_caps(config.caps, args),
                             seed=config.seed if args.seed is None else args.seed)
            reports = [run(config)]
            fmt = args.format or cfg_fmt
            out = args.out if args.out is not None else cfg_out
            stem = f"{config.experiment}-{config.seed}"
        else:
            seed = args.seed if args.seed is not None else 0
            reports = run_suite(args.name, seed, _caps(Caps(), args))
            fmt = args.format or "json"
            out = args.out
            stem = f"suite-{args.name}-{seed}"

        path = _write_reports(reports, out, fmt, stem)
        print(_summary_table(reports))
        print(f"report written to {path}")
        return _exit_code(reports)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ChslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
