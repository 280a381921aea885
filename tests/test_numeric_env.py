"""Fingerprint of the floating-point kernels the byte pins rest on.

Every byte pin (REPORT_DIGESTS, the verify report hash, the calibration
file, perfbench's reference digests) holds only while numpy's and libm's
kernels round as they did when the pins were taken.  Each test below
hashes one kernel's raw output on fixed arguments of the kind the pinned
suites evaluate, so a broken pin can be traced to the kernel that moved.
A mismatch is a hard failure whose message names the kernel.
"""

import hashlib
import math

import numpy as np

from revprime.expsum import _cis


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def phase_arguments() -> np.ndarray:
    """Phases in (-1, 1) as F_direct and _phi_sums take them, and the edge values."""
    n = np.arange(1, 1 << 12, dtype=np.float64)
    edges = [0.0, -0.0, 5e-324, -5e-324, 0.25, -0.5, 1.0, -1.0, 3.0, 2.0**40]
    return np.concatenate([edges, (0.37 * n) % 1.0 - (n / 3.0) % 1.0])


def sine_arguments() -> np.ndarray:
    """pi (a n + b) / m over n < m, as sin_sum_check forms them."""
    parts = []
    for a, m, b in [(7, 500, 0.3), (-999, 499, -2.7), (5, 5, 0.0), (1000, 1, 1.5), (3, 256, -0.125)]:
        n = np.arange(m, dtype=np.int64)
        parts.append(math.pi * ((a * n).astype(np.float64) + b) / m)
    return np.concatenate(parts)


EXP_DIGEST = "2833e1c49d3c72d2dea052c8afc3dab4cc36e93902d9a441c3f986e3e429dca2"
SIN_DIGEST = "7979a3d21164fcb7f922c9cb2221544ae480e921654676d346256feb6ef41dc3"
NP_LOG_DIGEST = "947f616a12650334b79645acb029bba99da408fb8d8ccaf8f00bbaf6bd7198a3"
MATH_LOG_DIGEST = "f337e24136bbf57071e2b2bff7b3bd4ab289b506a085c85181b6731e87c7c2a7"


def test_complex_exp_and_the_cis_pair():
    x = phase_arguments()
    from_exp = digest(np.exp(2j * np.pi * x))
    from_cis = digest(_cis(x))
    assert from_exp == EXP_DIGEST, f"complex np.exp moved: {from_exp}"
    assert from_cis == EXP_DIGEST, f"the _cis cos/sin pair moved: {from_cis}"


def test_numpy_sine_and_math_sine():
    x = sine_arguments()
    from_numpy = digest(np.sin(x))
    from_math = digest(np.array([math.sin(v) for v in x.tolist()]))
    assert from_numpy == SIN_DIGEST, f"np.sin moved: {from_numpy}"
    assert from_math == SIN_DIGEST, f"math.sin moved: {from_math}"


def test_numpy_log_and_math_log():
    # arith's Vaughan tables take math.log of every integer up to the
    # limit, not np.log, because the two round 9170 differently
    n = np.arange(2, 10**4 + 1)
    from_numpy = np.log(n.astype(np.float64))
    from_math = np.array([math.log(k) for k in n.tolist()])
    assert digest(from_numpy) == NP_LOG_DIGEST, f"np.log moved: {digest(from_numpy)}"
    assert digest(from_math) == MATH_LOG_DIGEST, f"math.log moved: {digest(from_math)}"
    # and 9170 is the only integer below 10^4 where they differ
    assert n[from_numpy != from_math].tolist() == [9170]
