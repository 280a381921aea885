#!/usr/bin/env python3
"""Print an aligned prime-reversal census table for a grid of cells.

Runs the same single-pass census the CLI uses, but formats the result
for reading at the terminal rather than for machine consumption:

    python3 scripts/census_report.py --g 10 --L 4,5 --q 1,3,7,9
    python3 scripts/census_report.py --g 2 --L 12,14,16 --q 5,7 --summary
"""

import argparse
import math
import sys
from pathlib import Path

# run from a checkout: the repository's src comes before any installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from revprime.arith import build_table
from revprime.revcount import census_grid


def int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--g", type=int, required=True, help="digit base")
    parser.add_argument("--L", type=int_list, required=True,
                        help="comma-separated window lengths")
    parser.add_argument("--q", type=int_list, required=True,
                        help="comma-separated moduli")
    parser.add_argument("--a", type=int_list, default=None,
                        help="residues to show (default: every residue mod q)")
    parser.add_argument("--sieve-limit", type=int, default=None,
                        help="sieve size (default: g**max(L))")
    parser.add_argument("--summary", action="store_true",
                        help="append the max |relative_dev| per (L, q)")
    args = parser.parse_args(argv)

    if args.g < 2 or not args.L or not args.q or min(args.q) < 1:
        parser.error("need --g >= 2, at least one window length, and positive moduli")
    limit = args.sieve_limit or args.g ** max(args.L)
    pt = build_table(limit)

    header = f"{'g':>3} {'L':>3} {'q':>4} {'a':>4} {'observed':>9} {'main_term':>12} {'rel_dev':>8}"
    print(header)
    print("-" * len(header))
    summary = []
    for L in sorted(args.L):
        if args.g**L > limit:
            print(f"(skipping L={L}: g^L exceeds the sieve limit {limit})", file=sys.stderr)
            continue
        pairs = [(a, q) for q in args.q for a in (args.a or range(q))]
        records = census_grid(args.g, L, pairs, pt)
        for r in records:
            dev = "nan" if math.isnan(r.relative_dev) else f"{r.relative_dev:+.4f}"
            print(f"{r.g:>3} {r.L:>3} {r.q:>4} {r.a:>4} {r.observed:>9} "
                  f"{r.main_term:>12.2f} {dev:>8}")
        for q in args.q:
            devs = [abs(r.relative_dev) for r in records
                    if r.q == q and not math.isnan(r.relative_dev)]
            if devs:
                summary.append((L, q, max(devs)))

    if args.summary and summary:
        print()
        print(f"{'L':>3} {'q':>4} {'max |rel_dev|':>14}")
        for L, q, worst in summary:
            print(f"{L:>3} {q:>4} {worst:>14.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
