"""Command-line entry points: census, verify, calibrate.

Exit codes: 0 success, 1 usage error (bad flags, unknown suite, empty
grid, a census of more than MAX_CENSUS_CELLS cells, an --out that cannot
be written), 2 tolerance or inequality failure.  Reports are written
atomically (temp file, then rename), so a killed run never leaves a
partial report; every report starts with the config hash it was
produced under.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from typing import TYPE_CHECKING, Optional

from . import __version__
from .config import RNG_ALGORITHM, RunConfig, UsageError, load_config
from .revcount import CensusRecord, census_grid, check_window, zero_density_strays

if TYPE_CHECKING:
    from .expsum import BoundReport
    from .verify import SuiteOptions

CENSUS_COLUMNS = tuple(f.name for f in fields(CensusRecord))

# a census request holds at most this many (L, a, q) cells; counted
# before any cell tuple or sieve is built
MAX_CENSUS_CELLS = 2**20


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


# verify (and with it expsum, primesum, seeds and the thread pool) loads
# on the first verify or calibrate command, so a census never imports it;
# run_suite and calibrate stay names of this module, which callers patch
def run_suite(name: str, cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    from . import verify

    return verify.run_suite(name, cfg, opts)


def calibrate(names, cfg: RunConfig, opts: SuiteOptions) -> dict[str, float]:
    from . import verify

    return verify.calibrate(names, cfg, opts)


def atomic_write(path: str, text: str) -> None:
    """Replace path with text (UTF-8) so readers see the old file or the new one.

    The temp file gets a random name in the target directory and is
    created exclusively, so concurrent writers never share one, and it is
    removed if anything fails before the rename.  The result has the mode
    open(path, "w") leaves: a replaced file keeps its own, and a new one
    gets 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out(out: Optional[str]) -> None:
    """Refuse, before any work, an --out naming a directory or running
    through a file; atomic_write still catches what changes during the run."""
    if out is None:
        return
    if out == "":
        raise UsageError("--out names no file")
    if os.path.isdir(out):
        raise UsageError(f"--out {out} is a directory")
    parent = os.path.dirname(os.path.abspath(out))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise UsageError(f"--out {out} runs through {parent}, which is not a directory")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write(out, text)


def _load_run_config(args) -> RunConfig:
    """The --config file's RunConfig, or the default, with each flag given replacing its value."""
    cfg = load_config(args.config) if args.config else RunConfig()
    given = {
        "rng_seed": args.seed,
        "sieve_limit": args.sieve_limit,
        "threads": args.threads,
        "census_tolerance": getattr(args, "tolerance", None),  # census only
    }
    return replace(cfg, **{key: value for key, value in given.items() if value is not None})


def _census_rows(cfg: RunConfig, args) -> list[CensusRecord]:
    for L in args.L:
        check_window(args.g, L, cfg.sieve_limit)
    pairs = [(a, q) for q in args.q for a in (range(q) if args.a is None else args.a)]
    return [rec for L in args.L for rec in census_grid(args.g, L, pairs, cfg.sieve_limit)]


def _census_failures(cfg: RunConfig, rows: list[CensusRecord]) -> list[CensusRecord]:
    bad = []
    for rec in rows:
        if math.isnan(rec.relative_dev):
            if rec.observed != zero_density_strays(rec.g, rec.L, rec.a, rec.q):
                bad.append(rec)
        elif abs(rec.relative_dev) > cfg.census_tolerance:
            bad.append(rec)
    return bad


def _format_census_csv(cfg: RunConfig, rows: list[CensusRecord]) -> str:
    lines = [f"# config_hash={cfg.config_hash()}", ",".join(CENSUS_COLUMNS)]
    lines += [",".join(str(getattr(rec, col)) for col in CENSUS_COLUMNS) for rec in rows]
    return "\n".join(lines) + "\n"


def _json_field(value):
    """A census field as JSON holds it: a NaN deviation, which JSON lacks, is null."""
    return None if isinstance(value, float) and math.isnan(value) else value


def _format_census_json(cfg: RunConfig, rows: list[CensusRecord]) -> str:
    payload = {
        "config_hash": cfg.config_hash(),
        "records": [
            {col: _json_field(getattr(rec, col)) for col in CENSUS_COLUMNS}
            for rec in rows
        ],
    }
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _format_census_table(cfg: RunConfig, rows: list[CensusRecord]) -> str:
    """Aligned rows for the terminal, then the worst |relative_dev| per (L, q)."""
    header = (f"{'g':>3} {'L':>3} {'q':>4} {'a':>4} {'observed':>9} "
              f"{'main_term':>12} {'rel_dev':>8}")
    lines = [f"# config_hash={cfg.config_hash()}", header, "-" * len(header)]
    worst: dict[tuple[int, int], float] = {}
    for rec in rows:
        dev = "nan"
        if not math.isnan(rec.relative_dev):
            dev = f"{rec.relative_dev:+.4f}"
            cell = (rec.L, rec.q)
            worst[cell] = max(worst.get(cell, 0.0), abs(rec.relative_dev))
        lines.append(f"{rec.g:>3} {rec.L:>3} {rec.q:>4} {rec.a:>4} {rec.observed:>9} "
                     f"{rec.main_term:>12.2f} {dev:>8}")
    lines += ["", f"{'L':>3} {'q':>4} {'max |rel_dev|':>14}"]
    lines += [f"{L:>3} {q:>4} {dev:>14.4f}" for (L, q), dev in worst.items()]
    return "\n".join(lines) + "\n"


CENSUS_FORMATS = {
    "csv": _format_census_csv,
    "json": _format_census_json,
    "table": _format_census_table,
}


def cmd_census(args, cfg: RunConfig) -> int:
    for q in args.q:
        if q < 1:
            raise UsageError("moduli must be positive")
    cells = len(args.L) * sum(q if args.a is None else len(args.a) for q in args.q)
    if cells > MAX_CENSUS_CELLS:
        raise UsageError(
            f"{cells} census cells requested; at most {MAX_CENSUS_CELLS} fit one run"
        )
    rows = _census_rows(cfg, args)
    _emit(CENSUS_FORMATS[args.format](cfg, rows), args.out)
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
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(r.to_dict(), sort_keys=True) for r in reports)
    return "\n".join(lines) + "\n"


def _suite_options(args) -> SuiteOptions:
    from .verify import SuiteOptions

    return SuiteOptions(**{f.name: getattr(args, f.name) for f in fields(SuiteOptions)})


def cmd_verify(args, cfg: RunConfig) -> int:
    from .verify import admit

    opts = _suite_options(args)
    for name in args.suite:
        admit(name, cfg, opts)
    chunks = [(name, run_suite(name, cfg, opts)) for name in args.suite]
    text = "".join(_format_reports(cfg, opts, name, reports) for name, reports in chunks)
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


def cmd_calibrate(args, cfg: RunConfig) -> int:
    from .verify import CALIBRATED

    opts = _suite_options(args)
    names = args.suite or CALIBRATED
    # the measured constants never depend on previously stored ones,
    # so the artifact records the hash of the stripped config
    bare = replace(cfg, c_cal={})
    table = calibrate(names, bare, opts)
    payload = {
        "config_hash": bare.config_hash(),
        "rng_seed": bare.rng_seed,
        "rng_algorithm": RNG_ALGORITHM,
        "constants": {k: table[k] for k in sorted(table)},
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None, help="worker threads")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None, help="output path (atomic write)")
    p.add_argument("--seed", type=int, default=None, help="rng seed override")
    p.add_argument("--sieve-limit", type=int, default=None,
                   help="largest integer any sieve may reach, at most 2^26; every "
                   "census window and sieved verify cell must fit under it")


def _add_suite_options(p: argparse.ArgumentParser) -> None:
    """The SuiteOptions flags, then the common ones."""
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--lambda-max", type=int, default=None, dest="lambda_max")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed-family", default=None, dest="seed_family")
    _add_common(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="revprime", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cen = sub.add_parser("census", help="count reversed primes in residue classes")
    cen.add_argument("--g", type=int, required=True, help="base")
    cen.add_argument("--L", type=_int_list, required=True, help="digit lengths, comma-separated")
    cen.add_argument("--q", type=_int_list, required=True, help="moduli, comma-separated")
    cen.add_argument("--a", type=_int_list, default=None, help="residues (default: all mod q)")
    cen.add_argument("--format", choices=tuple(CENSUS_FORMATS), default="csv")
    cen.add_argument("--tolerance", type=float, default=None, help="relative_dev ceiling")
    _add_common(cen)
    cen.set_defaults(func=cmd_census)

    ver = sub.add_parser("verify", help="run inequality verifier suites")
    ver.add_argument("suite", nargs="+", help="suite names")
    _add_suite_options(ver)
    ver.set_defaults(func=cmd_verify)

    cal = sub.add_parser("calibrate", help="measure implicit-constant ratios")
    cal.add_argument("suite", nargs="*", help="calibrated suite names (default: all)")
    _add_suite_options(cal)
    cal.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # the one home of exit 1 after parsing: bad --out, bad config (RunConfig
    # holds every command's sieve limit to the budget), usage errors
    try:
        _check_out(args.out)
        cfg = _load_run_config(args)
        return args.func(args, cfg)
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"{args.command}: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
