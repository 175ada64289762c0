"""The stacked resonance rows keep the bits of their plain formulas.

`fano._interfering_phase` makes one unit factor (eps - i)/sqrt(eps^2 + 1)
per other resonance, as rows of one array, from a real reciprocal;
`smatrix._factors` makes each quotient (e - conj(ce))/(e - ce) as a row,
conj(t)/t of the row t = e - ce divided in place; `model._ordered_product`
takes the rows in order l = 0, 1, ...; `cross_section_noninteracting` sums
one row per resonance; and the static pole form `s_pole` divides one
residue row per resonance and adds the rows in order.  Each must give the
bits of the written-out per-resonance expressions below on every grid
size, including the one-element grid (where numpy's complex multiply takes
another path, and a sum over an (N, 1) array is pairwise), a grid whose
last block holds one energy, and the sizes around a block, for reduced
energies from 1e-8 to 1e8 and at the +-1e150 clip.
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
    cross_section_noninteracting,
    double_pole_fano,
    s_double_pole,
    s_pole,
    s_unitary_product,
    trace,
)
from fanolap._util import _BLOCK, _CELLS, _pointwise
from fanolap.fano import _interfering_phase
from fanolap.model import _EPS_CAP, _ordered_product
from fanolap.smatrix import _factors, _pole_residues

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


def _times(z, f):
    """z * f with z first on every grid size, as a product of the
    reference takes it: f is reused when the product has its shape, except
    for one element, where an aliased output takes another rounding path."""
    out = f if isinstance(f, np.ndarray) and z.shape in ((), f.shape) and f.size > 1 else None
    return np.multiply(z, f, out)


def _phase_reference(m, k, e):
    """cos and sin of the interfering phase, with the complex division."""
    z = np.full(e.shape, np.exp(1j * m.delta), dtype=complex)
    for i, r in enumerate(m.resonances):
        if i != k:
            eps = np.clip(2.0 * (e - r.position) / r.width, -_EPS_CAP, _EPS_CAP)
            z = _times(z, (eps - 1j) / np.sqrt(eps * eps + 1.0))
    return z.real, z.imag


def _product_reference(m, e):
    """The product form, one quotient per resonance, phase first."""
    e = np.clip(e, -1e300, 1e300)
    s = np.exp(2j * m.delta)
    for r in m.resonances:
        ce = complex_energy(r)
        s = _times(s, (e - ce.conjugate()) / (e - ce))
    return s


def _noninteracting_reference(m, e):
    """The isolated Fano terms of the resonances, added one by one."""
    z = np.exp(1j * m.delta)
    total = 0
    for r in m.resonances:
        eps = np.clip(2.0 * (e - r.position) / r.width, -_EPS_CAP, _EPS_CAP)
        total = total + 4.0 * np.square(eps * z.imag - z.real) / (eps * eps + 1.0)
    return total


def _pole_reference(m, e):
    """The static pole form, W_k*exp(2i delta)/(e - ce_k) added term by term."""
    w, phase = _pole_residues(m, "reference")[:, 0], np.exp(2j * m.delta)
    total = 0
    for wk, r in zip(w * phase if m.delta else w, m.resonances):
        total = total + wk / (e - complex_energy(r))
    return (phase if m.delta else 1.0) - 1j * total


def _width(n):
    """Energies per block of _pointwise for a kernel of n rows."""
    return min(_BLOCK, _CELLS // n)


def _cases():
    # SIZES, and a grid whose last block holds one energy unless SIZES has it
    return [(n, size) for n in range(1, 13)
            for size in SIZES + tuple({2 * _width(n) + 1} - set(SIZES))]


def _phase_in_blocks(m, k, e):
    """_interfering_phase through _pointwise's blocks, as fano_q_dynamic
    and fano_cross_section_dynamic evaluate it."""
    cs = _pointwise(lambda x: np.stack(_interfering_phase(m, k, x), axis=-1), e,
                    rows=len(m.resonances))
    return cs[:, 0], cs[:, 1]


@pytest.mark.parametrize("n, size", _cases())
def test_interfering_phase_has_the_bits_of_the_complex_division(n, size):
    rng = np.random.default_rng(1000 * n + size)
    m = _model(rng, n)
    e = _energies(rng, m, size)
    for k in {0, n // 2, n - 1}:
        c_ref, s_ref = _phase_reference(m, k, e)
        c, s = _phase_in_blocks(m, k, e)
        assert _same_bits(c, c_ref) and _same_bits(s, s_ref), (n, size, k)
        if size > 1:  # a kernel's block holds two or more energies
            c, s = _interfering_phase(m, k, e)
            assert _same_bits(c, c_ref) and _same_bits(s, s_ref), (n, size, k)


def _rows(m, e):
    """The rows e - ce_k of the poles of m."""
    return e - np.array([complex_energy(r) for r in m.resonances])[:, None]


@pytest.mark.parametrize("n, size", _cases())
def test_resonant_factors_have_the_bits_of_the_quotient(n, size):
    rng = np.random.default_rng(2000 * n + size)
    m = _model(rng, n)
    e = _energies(rng, m, size)
    got = _factors(_rows(m, e))
    assert got.shape == (n, size)
    for r, f in zip(m.resonances, got):
        ce = complex_energy(r)
        assert _same_bits(f, (e - ce.conjugate()) / (e - ce)), (n, size, r)
    if size > 1:
        s = _ordered_product(np.exp(2j * m.delta), _factors(_rows(m, e.clip(-1e300, 1e300))))
        assert _same_bits(s, _product_reference(m, e)), (n, size)


@pytest.mark.parametrize("n, size", _cases())
def test_product_form_has_the_bits_of_the_quotients(n, size):
    rng = np.random.default_rng(4000 * n + size)
    m = _model(rng, n)
    e = _energies(rng, m, size)
    assert _same_bits(s_unitary_product(m, e), _product_reference(m, e)), (n, size)


@pytest.mark.parametrize("n, size", _cases())
def test_static_pole_form_has_the_bits_of_the_terms(n, size):
    rng = np.random.default_rng(4500 * n + size)
    m = _model(rng, n)
    e = _energies(rng, m, size)
    got = s_pole(m, e, Representation.POLES_STATIC)
    assert _same_bits(got, _pole_reference(m, e)), (n, size)


@pytest.mark.parametrize("n, size", _cases())
def test_noninteracting_sum_has_the_bits_of_the_terms(n, size):
    rng = np.random.default_rng(5000 * n + size)
    m = _model(rng, n)
    e = _energies(rng, m, size)
    total = cross_section_noninteracting(m, e)
    assert _same_bits(total, _noninteracting_reference(m, e)), (n, size)


def _one_energy_cases(n, seed):
    """A model of n resonances, 64 energies, and the indices to take alone."""
    rng = np.random.default_rng(seed)
    m = _model(rng, n)
    e = _energies(rng, m, 64)
    return m, e, [0, 1, 31, 63] + rng.integers(0, 64, 8).tolist()


@pytest.mark.parametrize("n", range(1, 13))
def test_one_energy_sum_adds_the_rows_in_order(n):
    # np.add.reduce over the rows of an (N, 1) array sums pairwise, so a
    # lone energy would round unlike the same energy on a grid; _pointwise
    # evaluates it as two copies, where the rows are added in order
    m, e, picks = _one_energy_cases(n, 6000 + n)
    ref = _noninteracting_reference(m, e)
    for i in picks:
        assert _same_bits(cross_section_noninteracting(m, e[i:i + 1]), ref[i:i + 1]), (n, i)
        assert _same_bits(np.array(cross_section_noninteracting(m, float(e[i]))), ref[i]), (n, i)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_energy_product_multiplies_the_rows_in_order(n):
    # a one-element complex product, aliased or reduced, rounds another way;
    # _pointwise evaluates a lone energy as two copies, where the rows are
    # multiplied in order, phase first, as on a grid
    m, e, picks = _one_energy_cases(n, 7000 + n)
    ref = _product_reference(m, e)
    for i in picks:
        assert _same_bits(s_unitary_product(m, e[i:i + 1]), ref[i:i + 1]), (n, i)
        assert _same_bits(np.array(s_unitary_product(m, float(e[i]))), ref[i]), (n, i)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_energy_pole_sum_adds_the_rows_in_order(n):
    # a lone energy, in a one-element array or as a float, has the bits of
    # the same energy inside a 64-point grid
    m, e, picks = _one_energy_cases(n, 7500 + n)
    static = Representation.POLES_STATIC
    grid = s_pole(m, e, static)
    for i in picks:
        assert _same_bits(s_pole(m, e[i:i + 1], static), grid[i:i + 1]), (n, i)
        assert _same_bits(np.array(s_pole(m, float(e[i]), static)), grid[i]), (n, i)


def test_a_grid_whose_last_block_holds_one_energy():
    # 2 * width + 1 energies: the last block is one energy, padded to two
    m = _model(np.random.default_rng(8), 12)
    e = _energies(np.random.default_rng(9), m, 2 * _width(12) + 1)
    assert _same_bits(s_unitary_product(m, e), _product_reference(m, e))
    assert _same_bits(cross_section_noninteracting(m, e), _noninteracting_reference(m, e))
    c, s = _phase_in_blocks(m, 0, e)
    assert _same_bits(c, _phase_reference(m, 0, e)[0])


def test_nan_energy_gives_a_nan_factor():
    rng = np.random.default_rng(3)
    e = np.array([0.5, math.nan, -1.0])
    for n in (1, 2, 5):
        m = _model(rng, n)
        for k in range(n):
            c, s = _interfering_phase(m, k, e)
            if n > 1:
                assert math.isnan(c[1]) and math.isnan(s[1])
            assert not (np.isnan(c[::2]).any() or np.isnan(s[::2]).any())
        # the complex division of a nan reports an invalid value, as it always has
        with np.errstate(invalid="ignore"):
            f = _factors(_rows(m, e))
        assert f.shape == (n, 3)
        assert np.isnan(f[:, 1].real).all() and np.isnan(f[:, 1].imag).all()
        assert not np.isnan(f[:, ::2]).any()


# a pole of width 1e-10 next to one of width 1, as in test_fano's far-field checks
FAR = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1e-10)), delta=0.3)


@pytest.mark.parametrize("energy", [1e301, math.inf, -math.inf])
def test_product_form_at_far_energies_gives_the_background(energy):
    # each factor is inf/inf at +-inf; the energies are clipped to 1e300 past
    # the outer positions, so S is exp(2i delta) and sigma 4 sin^2(delta),
    # with no warning
    s = s_unitary_product(FAR, energy)
    assert s == pytest.approx(np.exp(0.6j), rel=1e-15)
    assert cross_section(s) == pytest.approx(4.0 * math.sin(0.3) ** 2, rel=1e-15)
    assert s == s_unitary_product(FAR, 1e300)


# a resonance past +-1e300, where a clip of E rather than of E - E_k hid it,
# alone, beside one near zero, and with positions spread over the float range
PAST_CLIP = (ScatteringModel((Resonance(2e300, 1.0),)),
             ScatteringModel((Resonance(2e300, 1.0), Resonance(-3.0, 0.5)), 0.4),
             ScatteringModel((Resonance(-1e308, 2.0), Resonance(0.0, 1.0),
                              Resonance(1e308, 1.0)), 0.3))
TOP = 1.7976931348623157e308  # the largest float


@pytest.mark.parametrize("m", PAST_CLIP, ids=["alone", "beside", "spread"])
def test_product_form_sees_a_resonance_past_the_energy_clip(m):
    # every energy within 1e300 of a position keeps its value, so S is
    # -exp(2i delta) at each pole's position, times factors of 1 from poles
    # far away, and no row E - ce_k overflows at any energy
    phase = np.exp(2j * m.delta)
    for r in m.resonances:
        others = [x for x in m.resonances if x is not r]
        near = [x for x in others if abs(x.position - r.position) < 1e3]
        s = s_unitary_product(m, r.position)
        expected = -phase * math.prod((r.position - complex_energy(x).conjugate())
                                      / (r.position - complex_energy(x)) for x in near)
        assert s == pytest.approx(expected, abs=1e-15)
        if len(m.resonances) < 3:  # E - ce_k of the pole forms overflows on the spread model
            static = s_pole(m, r.position, Representation.POLES_STATIC)
            assert s == pytest.approx(static, abs=1e-15)
    for energy in (math.inf, -math.inf, TOP, -TOP):
        assert s_unitary_product(m, energy) == pytest.approx(phase, abs=1e-15)


def test_an_infinite_energy_is_read_as_the_largest_float():
    # so it lies on a pole placed there, as the largest float does
    m = ScatteringModel((Resonance(-3.0, 1.0), Resonance(TOP, 1.0)), 0.3)
    assert s_unitary_product(m, math.inf) == s_unitary_product(m, TOP)
    assert s_unitary_product(m, TOP) == pytest.approx(-np.exp(0.6j), abs=1e-15)
    assert s_unitary_product(m, -math.inf) == pytest.approx(np.exp(0.6j), abs=1e-15)


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
