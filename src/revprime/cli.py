"""Command-line entry points: census, verify, calibrate.

Exit codes: 0 success, 1 usage error (bad flags, unknown suite, empty
grid), 2 tolerance or inequality failure.  Reports are written
atomically (temp file, then rename), so a killed run never leaves a
partial report; every report starts with the config hash it was
produced under.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .arith import build_table
from .config import RunConfig, load_config, merge_overrides
from .expsum import BoundReport
from .fileio import atomic_write
from .revcount import CensusRecord, census_grid, exceptional_cap
from .verify import CALIBRATED, SuiteOptions, UsageError, calibrate, run_suite

CENSUS_COLUMNS = (
    "g", "L", "a", "q", "observed", "main_term",
    "relative_dev", "sharp_observed", "modulus_sharp",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write(out, text)


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return merge_overrides(
        cfg,
        rng_seed=getattr(args, "seed", None),
        sieve_limit=getattr(args, "sieve_limit", None),
        threads=getattr(args, "threads", None),
        census_tolerance=getattr(args, "tolerance", None),
    )


def _census_rows(cfg: RunConfig, args) -> list[CensusRecord]:
    pt = build_table(cfg.sieve_limit)
    rows = []
    for L in args.L:
        pairs = []
        for q in args.q:
            residues = args.a if args.a is not None else range(q)
            pairs.extend((a, q) for a in residues)
        rows.extend(census_grid(args.g, L, pairs, pt))
    return rows


def _census_failures(cfg: RunConfig, rows: list[CensusRecord]) -> list[CensusRecord]:
    bad = []
    for rec in rows:
        if math.isnan(rec.relative_dev):
            if rec.observed > exceptional_cap(rec.g, rec.q):
                bad.append(rec)
        elif abs(rec.relative_dev) > cfg.census_tolerance:
            bad.append(rec)
    return bad


def _format_census_csv(cfg: RunConfig, rows: list[CensusRecord]) -> str:
    lines = [f"# config_hash={cfg.config_hash()}", ",".join(CENSUS_COLUMNS)]
    for rec in rows:
        lines.append(
            ",".join(
                str(getattr(rec, col)) for col in CENSUS_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def _format_census_json(cfg: RunConfig, rows: list[CensusRecord]) -> str:
    payload = {
        "config_hash": cfg.config_hash(),
        "records": [
            {col: getattr(rec, col) for col in CENSUS_COLUMNS} for rec in rows
        ],
    }
    return json.dumps(payload, sort_keys=True, default=_json_default) + "\n"


def cmd_census(args) -> int:
    try:
        cfg = _load_run_config(args)
        for q in args.q:
            if q < 1:
                raise UsageError("moduli must be positive")
        rows = _census_rows(cfg, args)
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"census: error: {exc}\n")
        return 1
    text = (
        _format_census_json(cfg, rows)
        if args.format == "json"
        else _format_census_csv(cfg, rows)
    )
    _emit(text, args.out)
    failures = _census_failures(cfg, rows)
    if failures:
        for rec in failures:
            sys.stderr.write(
                f"census: tolerance failure at g={rec.g} L={rec.L} "
                f"a={rec.a} q={rec.q}: dev={rec.relative_dev}\n"
            )
        return 2
    return 0


def _format_reports(
    cfg: RunConfig, opts: SuiteOptions, suite: str, reports: list[BoundReport]
) -> str:
    header = {
        "suite": suite,
        "config_hash": cfg.config_hash(),
        "rng_seed": cfg.rng_seed,
        "options": asdict(opts),
        "version": __version__,
        "reports": len(reports),
    }
    lines = [json.dumps(header, sort_keys=True, default=_json_default)]
    lines.extend(
        json.dumps(r.to_dict(), sort_keys=True, default=_json_default)
        for r in reports
    )
    return "\n".join(lines) + "\n"


def _suite_options(args) -> SuiteOptions:
    return SuiteOptions(
        g=args.g,
        lambda_max=args.lambda_max,
        limit=args.limit,
        cases=args.cases,
        seed_family=args.seed_family,
    )


def cmd_verify(args) -> int:
    try:
        cfg = _load_run_config(args)
        opts = _suite_options(args)
        chunks = [(name, run_suite(name, cfg, opts)) for name in args.suite]
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"verify: error: {exc}\n")
        return 1
    text = "".join(
        _format_reports(cfg, opts, name, reports) for name, reports in chunks
    )
    _emit(text, args.out)
    failed = [
        (name, r) for name, reports in chunks for r in reports if not r.passed
    ]
    if failed:
        for name, r in failed[:20]:
            sys.stderr.write(
                f"verify: {name}: lhs={r.lhs} rhs={r.rhs} params={r.params}\n"
            )
        sys.stderr.write(f"verify: {len(failed)} failing report(s)\n")
        return 2
    return 0


def cmd_calibrate(args) -> int:
    try:
        cfg = _load_run_config(args)
        opts = _suite_options(args)
        names = args.suite or CALIBRATED
        # the measured constants never depend on previously stored ones,
        # so the artifact records the hash of the stripped config
        bare = replace(cfg, c_cal={})
        table = calibrate(names, bare, opts)
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"calibrate: error: {exc}\n")
        return 1
    payload = {
        "config_hash": bare.config_hash(),
        "rng_seed": bare.rng_seed,
        "rng_algorithm": bare.rng_algorithm,
        "constants": {k: table[k] for k in sorted(table)},
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None, help="worker threads")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None, help="output path (atomic write)")
    p.add_argument("--seed", type=int, default=None, help="rng seed override")
    p.add_argument("--sieve-limit", type=int, default=None, help="sieve table size")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="revprime", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cen = sub.add_parser("census", help="count reversed primes in residue classes")
    cen.add_argument("--g", type=int, required=True, help="base")
    cen.add_argument("--L", type=_int_list, required=True, help="digit lengths, comma-separated")
    cen.add_argument("--q", type=_int_list, required=True, help="moduli, comma-separated")
    cen.add_argument("--a", type=_int_list, default=None, help="residues (default: all mod q)")
    cen.add_argument("--format", choices=("csv", "json"), default="csv")
    cen.add_argument("--tolerance", type=float, default=None, help="relative_dev ceiling")
    _add_common(cen)
    cen.set_defaults(func=cmd_census)

    ver = sub.add_parser("verify", help="run inequality verifier suites")
    ver.add_argument("suite", nargs="+", help="suite names")
    ver.add_argument("--g", type=int, default=None)
    ver.add_argument("--lambda-max", type=int, default=None, dest="lambda_max")
    ver.add_argument("--limit", type=int, default=None)
    ver.add_argument("--cases", type=int, default=None)
    ver.add_argument("--seed-family", default=None, dest="seed_family")
    _add_common(ver)
    ver.set_defaults(func=cmd_verify)

    cal = sub.add_parser("calibrate", help="measure implicit-constant ratios")
    cal.add_argument("suite", nargs="*", help="calibrated suite names (default: all)")
    cal.add_argument("--g", type=int, default=None)
    cal.add_argument("--lambda-max", type=int, default=None, dest="lambda_max")
    cal.add_argument("--limit", type=int, default=None)
    cal.add_argument("--cases", type=int, default=None)
    cal.add_argument("--seed-family", default=None, dest="seed_family")
    _add_common(cal)
    cal.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
