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

# the keys each config section may hold; [params] is checked per parameter
_CONFIG_KEYS = {"experiment": {"name", "seed"}, "caps": {"dim", "enum"},
                "output": {"path", "format"}}


def _parse_param(name: str, text: str, default):
    """A ``[params]`` value read against its default's shape.

    A tuple default takes a comma list, and one value makes a one-item
    tuple.  A tuple-of-tuples default takes ';'-separated comma lists, so
    ``0; 1`` is ``((0,), (1,))``; a comma list without ';' is refused as
    ambiguous (write ``0, 1;`` for one inner tuple).  An empty list is
    refused.  Every other value, and every list item, is an integer, as
    every default's leaves are."""
    if not isinstance(default, tuple):
        try:
            return int(text)
        except ValueError:
            raise ConfigInvalid(
                f"parameter {name} must be an integer, got {text.strip()!r}") from None
    if isinstance(default[0], tuple):
        if ";" not in text and "," in text:
            raise ConfigInvalid(
                f"parameter {name}: separate the inner lists of {text.strip()!r} "
                "with ';'")
        parts = text.split(";")
    else:
        parts = text.split(",")
    value = tuple(_parse_param(name, part, default[0]) for part in parts if part.strip())
    if not value:
        raise ConfigInvalid(f"parameter {name} needs at least one value")
    return value


def load_config(path: str) -> tuple[ExperimentConfig, str | None, str]:
    """Parse a key = value sectioned config file into an ExperimentConfig."""
    parser = configparser.ConfigParser(default_section="")  # [DEFAULT] is unknown too
    read = parser.read(path)
    if not read:
        raise ConfigInvalid(f"cannot read config file {path!r}")
    unknown = sorted(set(parser.sections()) - {*_CONFIG_KEYS, "params"})
    if unknown:
        raise ConfigInvalid(f"unknown config section [{unknown[0]}]")
    for section, keys in _CONFIG_KEYS.items():
        unknown = sorted(set(parser[section]) - keys) if section in parser else []
        if unknown:
            raise ConfigInvalid(f"unknown key {unknown[0]!r} in config section [{section}]")
    if "experiment" not in parser or "name" not in parser["experiment"]:
        raise ConfigInvalid("config needs an [experiment] section with a name")
    name = parser["experiment"]["name"].strip()
    defaults = REGISTRY[name].defaults if name in REGISTRY else {}
    params = {k: _parse_param(k, v, defaults.get(k)) for k, v in parser.items("params")} \
        if "params" in parser else {}
    try:
        seed = int(parser["experiment"].get("seed", "0"))
        caps = Caps(int(parser.get("caps", "dim", fallback=Caps.dim)),
                    int(parser.get("caps", "enum", fallback=Caps.enum)))
    except ValueError as exc:
        raise ConfigInvalid(f"bad number in {path!r}: {exc}") from exc
    out_path = parser.get("output", "path", fallback=None)
    fmt = parser.get("output", "format", fallback="json")
    return ExperimentConfig(name, params, seed, caps), out_path, fmt


def _summary_table(reports: list[Report]) -> str:
    lines = []
    header = f"{'experiment':<22} {'check':<34} {'value':>14} {'reference':>14} {'mode':<8} verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        for c in r.checks:
            value, ref = ("" if v is None else f"{v:.6g}" for v in (c.value, c.reference))
            lines.append(
                f"{r.experiment:<22} {c.name:<34} {value:>14} {ref:>14} "
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
