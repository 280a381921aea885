"""revprime: exponential-sum verification lab and census tool for
digit-reversed primes in arithmetic progressions.

The package re-exports nothing: import what you need from its modules
(revprime.basedigits, revprime.seeds, revprime.revcount, ...), so
importing the package itself loads none of them.
"""

__version__ = "0.1.0"
