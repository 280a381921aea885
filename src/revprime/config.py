"""Run configuration, config-file loading, and seeded RNG streams.

The config file is JSON, one flat object.  Recognized keys mirror the
RunConfig fields: rng_seed, sieve_limit and threads (integers),
census_tolerance (a number), c_cal (object mapping a calibrated
verifier's name to its finite ratio ceiling).  Unknown keys, unknown
c_cal names and values of the wrong type are rejected, so a typo cannot
silently fall back to a default.

Every stream is PCG64, the constant RNG_ALGORITHM, not a setting: a
config file that names rng_algorithm is rejected as an unknown key.
The config hash covers only result-affecting fields, RNG_ALGORITHM
among them; thread count and output paths change neither the numbers
nor the hash, which is what makes byte-identical reports across
--threads settings possible.

DEFAULT_C_CAL, the calibrated ceilings verify gates against (make_report
slack on top), is read at import from calibration.json beside this
module, the file `revprime calibrate` writes.  Re-freezing them is one
command: `revprime calibrate --out src/revprime/calibration.json`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .arith import check_sieve_limit

DEFAULT_RNG_SEED = 20260818
RNG_ALGORITHM = "pcg64"
DEFAULT_SIEVE_LIMIT = 100_000
DEFAULT_CENSUS_TOLERANCE = 0.25

DEFAULT_C_CAL: dict[str, float] = json.loads(
    Path(__file__).with_name("calibration.json").read_text(encoding="utf-8")
)["constants"]


class UsageError(ValueError):
    """Bad suite name, an option below its minimum or one the suite does
    not read, an option combination that empties the grid, or a census
    modulus below 1."""


def _is_a(value, kinds) -> bool:
    """isinstance, except that a bool is not a number here."""
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    rng_seed: int = DEFAULT_RNG_SEED
    sieve_limit: int = DEFAULT_SIEVE_LIMIT
    threads: int = 1
    census_tolerance: float = DEFAULT_CENSUS_TOLERANCE
    c_cal: dict = field(default_factory=lambda: dict(DEFAULT_C_CAL))

    def __post_init__(self):
        for name in ("rng_seed", "sieve_limit", "threads"):
            if not _is_a(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer")
        if not _is_a(self.census_tolerance, (int, float)):
            raise ValueError("census_tolerance must be a number")
        if not isinstance(self.c_cal, dict):
            raise ValueError("c_cal must map verifier names to ceilings")
        for name, ceiling in self.c_cal.items():
            if name not in DEFAULT_C_CAL:
                raise ValueError(f"c_cal names no calibrated verifier: {name!r}")
            try:
                finite = _is_a(ceiling, (int, float)) and math.isfinite(ceiling)
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise ValueError(f"c_cal[{name!r}] must be a finite number")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must fit in 64 bits")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        check_sieve_limit(self.sieve_limit)
        if not 0 < self.census_tolerance < 1:
            raise ValueError("census_tolerance must lie in (0, 1)")

    def hash_fields(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "rng_algorithm": RNG_ALGORITHM,
            "sieve_limit": self.sieve_limit,
            "census_tolerance": self.census_tolerance,
            # a ceiling hashes as the float every gate reads, so 1 and 1.0 agree
            "c_cal": {k: float(self.c_cal[k]) for k in sorted(self.c_cal)},
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.hash_fields(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**raw)


def make_rng(cfg: RunConfig, *stream: int) -> np.random.Generator:
    """Independent generator for one work cell.

    The stream indices name the cell; the same (seed, stream) always
    yields the same draws, no matter how cells are scheduled over
    threads.
    """
    seq = np.random.SeedSequence(entropy=cfg.rng_seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.PCG64(seq))
