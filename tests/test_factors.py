"""The per-resonance factor loops keep the bits of their plain formulas.

`fano._interfering_phase` builds each unit factor (eps - i)/sqrt(eps^2 + 1)
from a real reciprocal, and `smatrix._resonant_factors` divides each
numerator by its exact conjugate in place.  Both must give the bits of the
written-out expressions on every grid size, including the one-element grid
(where numpy's complex multiply takes another path) and the sizes around a
block, for reduced energies from 1e-8 to 1e8 and at the +-1e150 clip.
"""

import math

import numpy as np
import pytest

from fanolap import (
    EnergyGrid,
    Representation,
    Resonance,
    ScatteringModel,
    complex_energy,
    contour,
    cross_section,
    double_pole_fano,
    s_double_pole,
    s_unitary_product,
    trace,
)
from fanolap._util import _times
from fanolap.fano import _interfering_phase
from fanolap.model import _EPS_CAP
from fanolap.smatrix import _resonant_factors

SIZES = (1, 2, 64, 16384, 16385)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _model(rng, n):
    return ScatteringModel(
        tuple(Resonance(p, w) for p, w in zip(rng.uniform(-4.0, 4.0, n),
                                              rng.uniform(0.01, 3.2, n))),
        float(rng.uniform(-3.0, 3.0)),
    )


def _energies(rng, m, size):
    """size energies, each at a reduced energy of +-1e-8 to +-1e8 from a
    random resonance of m; one in eight sits at or past the eps clip."""
    r = [m.resonances[i] for i in rng.integers(0, len(m.resonances), size)]
    pos = np.array([x.position for x in r])
    half = 0.5 * np.array([x.width for x in r])
    eps = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
    far = rng.random(size) < 0.125
    eps[far] = rng.choice([-1.0, 1.0], far.sum()) * rng.choice([_EPS_CAP, 4.0 * _EPS_CAP], far.sum())
    return pos + half * eps


def _phase_reference(m, k, e):
    """cos and sin of the interfering phase, with the complex division."""
    z = np.full(e.shape, np.exp(1j * m.delta), dtype=complex)
    for i, r in enumerate(m.resonances):
        if i != k:
            eps = np.clip(2.0 * (e - r.position) / r.width, -_EPS_CAP, _EPS_CAP)
            z = _times(z, (eps - 1j) / np.sqrt(eps * eps + 1.0))
    return z.real, z.imag


def _cases():
    return [(n, size) for n in range(1, 13) for size in SIZES]


@pytest.mark.parametrize("n, size", _cases())
def test_interfering_phase_has_the_bits_of_the_complex_division(n, size):
    rng = np.random.default_rng(1000 * n + size)
    m = _model(rng, n)
    e = _energies(rng, m, size)
    for k in {0, n // 2, n - 1}:
        c, s = _interfering_phase(m, k, e)
        c_ref, s_ref = _phase_reference(m, k, e)
        assert _same_bits(c, c_ref) and _same_bits(s, s_ref), (n, size, k)


@pytest.mark.parametrize("n, size", _cases())
def test_resonant_factors_have_the_bits_of_the_quotient(n, size):
    rng = np.random.default_rng(2000 * n + size)
    m = _model(rng, n)
    e = _energies(rng, m, size)
    got = list(_resonant_factors(m.resonances, e))
    assert len(got) == n
    for r, f in zip(m.resonances, got):
        ce = complex_energy(r)
        assert _same_bits(f, (e - ce.conjugate()) / (e - ce)), (n, size, r)


def test_nan_energy_gives_a_nan_factor():
    rng = np.random.default_rng(3)
    m = _model(rng, 5)
    e = np.array([0.5, math.nan, -1.0])
    for k in range(5):
        c, s = _interfering_phase(m, k, e)
        assert math.isnan(c[1]) and math.isnan(s[1])
        assert not (np.isnan(c[::2]).any() or np.isnan(s[::2]).any())
    # the complex division of a nan reports an invalid value, as it always has
    with np.errstate(invalid="ignore"):
        for f in _resonant_factors(m.resonances, e):
            assert np.isnan(f[1].real) and np.isnan(f[1].imag)
            assert not np.isnan(f[::2]).any()


# a pole of width 1e-10 next to one of width 1, as in test_fano's far-field checks
FAR = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1e-10)), delta=0.3)


@pytest.mark.parametrize("energy", [1e301, math.inf, -math.inf])
def test_product_form_at_far_energies_gives_the_background(energy):
    # each factor is inf/inf at +-inf; the energies are clipped to +-1e300,
    # so S is exp(2i delta) and sigma 4 sin^2(delta), with no warning
    s = s_unitary_product(FAR, energy)
    assert s == pytest.approx(np.exp(0.6j), rel=1e-15)
    assert cross_section(s) == pytest.approx(4.0 * math.sin(0.3) ** 2, rel=1e-15)
    assert s == s_unitary_product(FAR, 1e300)


def test_trace_and_contour_past_the_energy_clip():
    # trace and contour take finite grids only; ends at +-8e307 give the
    # background limit, past s_unitary_product's +-1e300 clip and in contour's
    # unclipped factors alike
    g = EnergyGrid(-8e307, 8e307, 5)
    sigma = trace(FAR, g, Representation.UNITARY_PRODUCT).sigma
    limit = 4.0 * math.sin(0.3) ** 2
    assert sigma[0] == pytest.approx(limit, rel=1e-15)
    assert sigma[-1] == pytest.approx(limit, rel=1e-15)
    cg = contour(FAR, g, 0.0, 3.0, 7)
    for delta, row in zip(cg.deltas, cg.sigma):
        for end in (row[0], row[-1]):
            assert end == pytest.approx(4.0 * math.sin(delta) ** 2, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("energy", [1e68, 1e200, math.inf, -math.inf])
def test_double_pole_sigma_at_far_energies(energy):
    # (eps^2 + 1)^2 would overflow past |eps| = 1.2e77 (here E = 6e66); the
    # sigma kernel clips eps at 1e75, and q_d stays unclipped
    q, sigma = double_pole_fano(0.0, 1e-10, 0.3, energy)
    ref = cross_section(s_double_pole(0.0, 1e-10, 0.3, energy))
    assert sigma == pytest.approx(ref, rel=1e-15)
    assert q < 0.0 and (math.isinf(q) or energy == 1e68)
