"""Shared helpers for the test suite.

Deterministic noise comes from a 64-bit linear congruential generator with
Knuth's MMIX constants (a = 6364136223846793005, c = 1442695040888963407,
modulus 2**64).  Uniform deviates use the top 53 bits, u = (x >> 11) / 2**53,
so the stream is bit-for-bit reproducible on any IEEE-754 platform and easy
to re-implement in another language.
"""

import threading
import tracemalloc

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running: every worker thread that
    evaluates a grid's blocks is joined before its call returns."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail("threads still running after the test: %r" % left)


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn() runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
LCG_MASK = (1 << 64) - 1


def lcg_stream(seed, n):
    """n uniforms on [0, 1) from the documented LCG."""
    x = seed & LCG_MASK
    out = np.empty(n)
    for i in range(n):
        x = (LCG_A * x + LCG_C) & LCG_MASK
        out[i] = (x >> 11) * 2.0 ** -53
    return out


def lcg_noise(seed, n):
    """n uniforms on (-1, 1), same stream."""
    return 2.0 * lcg_stream(seed, n) - 1.0


def float_classes(u):
    """Doubles from every class that %.17g formatting treats apart, drawn
    from the uniforms u on [0, 1), about len(u) of them in this order:
    uniform on [-10, 10); log-uniform over [1e-12, 1e17) with random sign;
    dyadic ties (k * 2**(X - 17) for odd k in decade X has 18 significant
    digits, the last a 5, so 17 digits round half to even); random bit
    patterns (nan payloads, subnormals and huge values among them); the 17
    neighbours of every power of ten from 1e-12 to 1e17, both signs; and
    +-0, +-inf, nan, the smallest subnormal and the largest double."""
    a, b, c, d, s = np.array_split(np.asarray(u, dtype=float), 5)
    sign = np.where(s < 0.5, -1.0, 1.0)
    uniform = 20.0 * a - 10.0
    log_uniform = sign[: b.size] * 10.0 ** (29.0 * b - 12.0)
    decade = np.floor(21.0 * c)
    x = decade - 7.0  # -7 .. 13: each decade holds odd k, all below 2**53
    low = 10.0 ** x * 2.0 ** (17.0 - x)
    k = np.floor((low + (21.0 * c - decade) * 9.0 * low) / 2.0) * 2.0 + 1.0
    ties = sign[: c.size] * k * 2.0 ** (x - 17.0)
    half = d.size // 2
    hi32 = (d[:half] * 2.0 ** 32).astype(np.uint64)
    lo32 = (d[half:2 * half] * 2.0 ** 32).astype(np.uint64)
    bits = ((hi32 << np.uint64(32)) | lo32).view(np.float64)
    tens = np.array([float("1e%d" % j) for j in range(-12, 18)])
    near = (tens.view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64).ravel()
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        np.finfo(float).max, -np.finfo(float).max])
    return np.concatenate([uniform, log_uniform, ties, bits, near, -near, special])
