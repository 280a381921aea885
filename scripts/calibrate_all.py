#!/usr/bin/env python3
"""Recalibrate the implicit-constant ceilings and report drift.

Reruns every calibrated verifier from the fixed seed through the same
code path as `revprime calibrate`, writes the artifact, and compares
the fresh constants against the frozen defaults in revprime.config.
Exits 1 if any constant drifted, which means either the grids changed
or the defaults need to be re-frozen from the new artifact:

    python3 scripts/calibrate_all.py
    python3 scripts/calibrate_all.py --out /tmp/cal.json --threads 8
"""

import argparse
import json
import sys
from pathlib import Path

# run from a checkout: the repository's src comes before any installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from revprime.cli import main as cli_main
from revprime.config import DEFAULT_C_CAL, DEFAULT_RNG_SEED
from revprime.verify import CALIBRATED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "configs" / "calibration.json")
    parser.add_argument("--seed", type=int, default=DEFAULT_RNG_SEED)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    rc = cli_main([
        "calibrate", *CALIBRATED,
        "--seed", str(args.seed),
        "--threads", str(args.threads),
        "--out", str(args.out),
    ])
    if rc != 0:
        return rc

    payload = json.loads(args.out.read_text())
    fresh = payload["constants"]
    width = max(len(name) for name in fresh)
    print(f"wrote {args.out} (config_hash {payload['config_hash']})")
    print(f"{'verifier':<{width}} {'stored':>24} {'fresh':>24} drift")
    drifted = False
    for name in sorted(fresh):
        stored = DEFAULT_C_CAL.get(name)
        same = stored == fresh[name]
        drifted |= not same
        print(f"{name:<{width}} {stored!r:>24} {fresh[name]!r:>24} "
              f"{'none' if same else 'CHANGED'}")
    if drifted:
        print("constants drifted from the frozen defaults; "
              "update revprime.config.DEFAULT_C_CAL from the artifact "
              "if the change is intended", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
