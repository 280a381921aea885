"""revprime: exponential-sum verification lab and census tool for
digit-reversed primes in arithmetic progressions."""

__version__ = "0.1.0"

from .basedigits import (
    BaseContext,
    digit_length,
    dist,
    e,
    ilog,
    reverse,
    reverse_relative,
)
from .seeds import (
    Seed,
    f_eval,
    reverse_seed,
    sod_seed,
    table_seed,
    zero_seed,
)

__all__ = [
    "BaseContext",
    "digit_length",
    "dist",
    "e",
    "ilog",
    "reverse",
    "reverse_relative",
    "Seed",
    "f_eval",
    "reverse_seed",
    "sod_seed",
    "table_seed",
    "zero_seed",
]
