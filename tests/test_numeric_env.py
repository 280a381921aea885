"""Fingerprint of the floating-point kernels the byte pins rest on.

Every byte pin (REPORT_DIGESTS, the default verify report's
DEFAULT_DIGESTS and whole-file hash, the calibration file, perfbench's
reference digests) holds only while numpy's and libm's
kernels round as they did when the pins were taken.  Each test below
hashes one kernel's raw output on fixed arguments of the kind the pinned
suites evaluate, so a broken pin can be traced to the kernel that moved.
A mismatch is a hard failure whose message names the kernel.
"""

import hashlib
import math

import numpy as np

from revprime.expsum import WORK_BUDGET, _cis, _pairwise


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
COS_SIN_DIGEST = "36eb7d9231845cb2b48d070f0fbb6936c266ab200b914aca916cc3117428e315"
REAL_CUMSUM_DIGEST = "8a27c2ab2a57fe1026b8439ce1f394c230f5f791f84471cfbf0eb8fa9decf0bc"
COMPLEX_CUMSUM_DIGEST = "0fa450d9af5416977fb04d0549e86bf8c48b871908635c55e775ae1dd00fba62"
ROW_SUM_DIGEST = "d809a99162118477fce9465ef352a2bae3a932cde22bf3aeb39f50aea85b5821"
HYPOT_DIGEST = "b3ff1f57f7a5cd3bbf08d782fa75a925e1029ed59bb96a83ec25e60b31998270"
NP_ABS_DIGEST = "67375ca4e5de38a03ec7ef23a5b1cb64e2d4f3fb95b848aa0abe65891c06c174"


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


def lag_arguments() -> np.ndarray:
    """2 pi (row[n+h] - row[n]) over every lag h < g, as theta_i forms them.

    The rows are fractional parts of a d and of a d^2 for d < g, g <= 40.
    """
    parts = []
    for g in range(2, 41):
        d = np.arange(g, dtype=np.float64)
        for row in ((0.37 * d) % 1.0, (0.73 * d * d) % 1.0, (d / 3.0) % 1.0):
            parts.extend(2.0 * math.pi * (row[h:] - row[:-h]) for h in range(1, g))
    return np.concatenate(parts)


def test_numpy_and_math_cos_sin_on_lags():
    x = lag_arguments()
    from_numpy = digest(np.concatenate([np.cos(x), np.sin(x)]))
    values = x.tolist()
    from_math = digest(np.array([math.cos(v) for v in values] + [math.sin(v) for v in values]))
    assert from_numpy == COS_SIN_DIGEST, f"np.cos/np.sin moved: {from_numpy}"
    assert from_math == COS_SIN_DIGEST, f"math.cos/math.sin moved: {from_math}"


def mixed_magnitudes() -> np.ndarray:
    """Phase arguments scaled by 10^-4 .. 10^4, so the order of addition shows."""
    x = phase_arguments()
    return x * 10.0 ** (np.arange(x.size) % 9 - 4)


def left_to_right(values: list) -> list:
    out = [values[0]]
    for v in values[1:]:
        out.append(out[-1] + v)
    return out


def test_cumsum_adds_left_to_right():
    # theta_i, psi, hybrid_sum and sin_sum_check sum by np.cumsum
    for values, want, kind in (
        (mixed_magnitudes(), REAL_CUMSUM_DIGEST, "real"),
        (_cis(phase_arguments()), COMPLEX_CUMSUM_DIGEST, "complex"),
    ):
        got = digest(np.cumsum(values))
        loop = digest(np.array(left_to_right(values.tolist())))
        assert got == want, f"np.cumsum on {kind} arrays moved: {got}"
        assert loop == want, f"{kind} left-to-right addition moved: {loop}"


def test_row_sums_equal_lone_row_sums():
    # l1_moment sums a grid of |F| rows along the last axis in one call;
    # the lengths straddle numpy's pairwise blocks (8 and 128 entries)
    x = np.abs(mixed_magnitudes())
    grids = [np.resize(x[n:], (3, n)) for n in [*range(1, 301), 1000]]
    by_axis = digest(np.concatenate([grid.sum(axis=-1) for grid in grids]))
    by_row = digest(np.array([row.sum() for grid in grids for row in grid]))
    assert by_axis == ROW_SUM_DIGEST, f"np.sum(axis=-1) moved: {by_axis}"
    assert by_row == ROW_SUM_DIGEST, f"np.sum of a lone row moved: {by_row}"


def test_numpy_abs_and_hypot_on_complex_sums():
    # phi and F_abs_product take the hypot magnitude, psi and the
    # progression moments np.abs; the two round 1366 of these sums apart
    z = np.cumsum(_cis(phase_arguments()))
    from_hypot = digest(np.hypot(z.real, z.imag))
    from_python = digest(np.array([abs(v) for v in z.tolist()]))
    from_abs = digest(np.abs(z))
    assert from_hypot == HYPOT_DIGEST, f"np.hypot moved: {from_hypot}"
    assert from_python == HYPOT_DIGEST, f"abs(complex) moved: {from_python}"
    assert from_abs == NP_ABS_DIGEST, f"np.abs moved: {from_abs}"
    assert int(np.count_nonzero(np.abs(z) != np.hypot(z.real, z.imag))) == 1366


def test_pairwise_leaves_equal_one_complex_sum():
    # F_direct sums leaf by leaf along numpy's complex pairwise split:
    # the longest window of each base, and sizes whose count % 8 is odd
    pool = np.random.default_rng(25).random(2 * WORK_BUDGET).view(np.complex128)
    sizes = {g ** (len(np.base_repr(WORK_BUDGET, g)) - 1) for g in range(2, 17)}
    for n in sorted(sizes | {1, 63, 64, 65, 8191, 8193, 999_983, 10**6}):
        a = pool[:n]
        whole = np.complex128(a.sum())
        leaves = np.complex128(_pairwise(n, lambda lo, hi: complex(a[lo:hi].sum())))
        assert leaves.tobytes() == whole.tobytes(), (
            f"numpy complex pairwise-sum split moved at {n} entries: {leaves} != {whole}"
        )
