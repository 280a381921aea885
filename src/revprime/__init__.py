"""revprime: exponential-sum verification lab and census tool for
digit-reversed primes in arithmetic progressions.

The names below are re-exported on first access, through the module
__getattr__, so importing the package loads neither basedigits nor
seeds until one of them is read.
"""

import importlib

__version__ = "0.1.0"

_LAZY = {
    "BaseContext": "basedigits",
    "digit_length": "basedigits",
    "dist": "basedigits",
    "e": "basedigits",
    "ilog": "basedigits",
    "reverse": "basedigits",
    "reverse_relative": "basedigits",
    "Seed": "seeds",
    "f_eval": "seeds",
    "reverse_seed": "seeds",
    "sod_seed": "seeds",
    "table_seed": "seeds",
    "zero_seed": "seeds",
}

__all__ = list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
