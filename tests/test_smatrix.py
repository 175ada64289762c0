import cmath
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import oracle

from fanolap import (
    DoublePoleSingularity,
    Representation,
    Resonance,
    ScatteringModel,
    ValidationError,
    complex_energy,
    coupling_w_dynamic,
    coupling_w_static,
    cross_section,
    cross_section_noninteracting,
    fano_cross_section_dynamic,
    s_double_pole,
    s_pole,
    s_unitary_product,
    smatrix,
)

TWO_RES = ScatteringModel((Resonance(0.0, 1.0), Resonance(2.0, 1.0)))
GRID = np.linspace(-10.0, 10.0, 2001)


def _product_s_complex(m, e):
    # product form evaluated off the real axis, written out from scratch so
    # the residue check does not go through the library's real-energy path
    s = cmath.exp(2j * m.delta)
    for r in m.resonances:
        ce = complex_energy(r)
        s *= (e - ce.conjugate()) / (e - ce)
    return s


def residue_at_first_pole(m, h=1e-5):
    """Numerical residue oracle for the pole expansion.

    Near the first complex energy, S(E) = 1 - i*W1/(E - ce1) + regular, so
    i*h*(S(ce1 + h) - 1) -> W1 as h -> 0.  One Richardson step removes the
    O(h) contribution of the regular part.
    """
    ce1 = complex_energy(m.resonances[0])

    def f(step):
        return 1j * step * (_product_s_complex(m, ce1 + step) - 1.0)

    return 2.0 * f(h / 2) - f(h)


def test_static_couplings_frozen_values():
    # {0, 1} and {2, 1}: imaginary parts of the complex energies cancel in
    # the separation, ce1 - ce2 = -2, so W1 = 1*(1 - i*1/(-2)) = 1 + 0.5i.
    pair = coupling_w_static(TWO_RES)
    assert pair.w1 == pytest.approx(1.0 + 0.5j, abs=1e-14)
    assert pair.w2 == pytest.approx(1.0 - 0.5j, abs=1e-14)


def test_static_couplings_match_residue_oracle():
    models = [
        TWO_RES,
        ScatteringModel((Resonance(-1.0, 0.5), Resonance(1.5, 2.0))),
        ScatteringModel((Resonance(0.3, 3.0), Resonance(0.0, 0.7))),
    ]
    for m in models:
        w1 = coupling_w_static(m).w1
        assert abs(w1 - residue_at_first_pole(m)) < 1e-8 * max(1.0, abs(w1))


def test_static_couplings_degenerate_rejected():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0)))
    with pytest.raises(DoublePoleSingularity):
        coupling_w_static(m)


def test_static_couplings_near_degenerate_rejected():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(1e-10, 1.0)))
    with pytest.raises(DoublePoleSingularity):
        coupling_w_static(m)


def test_static_residues_raise_on_every_call():
    # a coincident pair beside a third pole: nothing is kept from a failed call
    m = ScatteringModel((Resonance(2.0, 0.5), Resonance(0.0, 1.0), Resonance(0.0, 1.0)), 0.7)
    for _ in range(2):
        with pytest.raises(DoublePoleSingularity) as exc:
            s_pole(m, 0.0, Representation.POLES_STATIC)
        assert "pole separation 0.0 is below tolerance" in str(exc.value)


def test_static_couplings_isolated_limit():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(1e6, 2.0)))
    pair = coupling_w_static(m)
    assert abs(pair.w1 - 1.0) < 1e-5
    assert abs(pair.w2 - 2.0) < 1e-5


def test_dynamic_coupling_zero_at_midpoint():
    # 2E - ce1 - ce2 = i at E = 1, so W1 = 1*(1 - i/i) = 0 exactly
    pair = coupling_w_dynamic(TWO_RES, 1.0)
    assert pair.w1 == 0.0


def test_dynamic_coupling_isolated_limit():
    for e in (1e9, -1e9):
        pair = coupling_w_dynamic(TWO_RES, e)
        assert abs(pair.w1 - 1.0) < 1e-8
        assert abs(pair.w2 - 1.0) < 1e-8


def test_dynamic_coupling_finite_at_double_pole():
    # where the static couplings diverge the dynamic ones stay smooth
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0)))
    pair = coupling_w_dynamic(m, 0.0)
    assert pair.w1 == 0.0
    assert pair.w2 == 0.0


def test_product_on_resonance_single():
    m = ScatteringModel((Resonance(0.0, 1.0),))
    assert s_unitary_product(m, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_product_background_only_asymptote():
    m = ScatteringModel((Resonance(0.0, 1.0),), delta=math.pi / 2)
    s = s_unitary_product(m, 1e12)
    assert s == pytest.approx(cmath.exp(1j * math.pi), abs=1e-10)


def test_product_degenerate_pair_center():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0)))
    s = s_unitary_product(m, 0.0)
    assert s == pytest.approx(1.0, abs=1e-15)
    assert cross_section(s) == pytest.approx(0.0, abs=1e-15)


def test_product_vectorized_matches_scalar():
    ss = s_unitary_product(TWO_RES, GRID[:5])
    for e, s in zip(GRID[:5], ss):
        assert s == pytest.approx(s_unitary_product(TWO_RES, float(e)), abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unitarity_random_models(data):
    n = data.draw(st.integers(1, 5))
    res = tuple(
        Resonance(
            data.draw(st.floats(-10, 10)),
            data.draw(st.floats(0.05, 5)),
        )
        for _ in range(n)
    )
    delta = data.draw(st.floats(0, math.pi, exclude_max=True))
    m = ScatteringModel(res, delta=delta)
    s = s_unitary_product(m, GRID)
    assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-12


def _admissible_two_res(draw):
    p1 = draw(st.floats(-5, 5))
    p2 = draw(st.floats(-5, 5))
    w1 = draw(st.floats(0.1, 4))
    w2 = draw(st.floats(0.1, 4))
    if abs(complex(p1, -w1 / 2) - complex(p2, -w2 / 2)) < 0.05:
        p2 = p1 + 1.0
    return ScatteringModel((Resonance(p1, w1), Resonance(p2, w2)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pole_static_equals_product(data):
    m = _admissible_two_res(data.draw)
    dev = np.abs(
        s_pole(m, GRID, Representation.POLES_STATIC) - s_unitary_product(m, GRID)
    )
    assert np.max(dev) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pole_dynamic_equals_product(data):
    m = _admissible_two_res(data.draw)
    dev = np.abs(
        s_pole(m, GRID, Representation.POLES_DYNAMIC) - s_unitary_product(m, GRID)
    )
    assert np.max(dev) < 1e-10


def test_pole_vanishes_at_infinity():
    for rep in (Representation.POLES_STATIC, Representation.POLES_DYNAMIC):
        s = s_pole(TWO_RES, 1e9, rep)
        assert abs(s - 1.0) < 1e-8


def test_pole_rejects_wrong_model():
    # the dynamic couplings are two-resonance forms, at any delta
    # (test_pole_dynamic_is_the_product_form_at_any_delta); the static
    # residues take any model (test_pole_static_matches_product_for_any_model)
    one = ScatteringModel((Resonance(0.0, 1.0),))
    with pytest.raises(ValidationError) as exc:
        s_pole(one, 0.0, Representation.POLES_DYNAMIC)
    assert str(exc.value) == "s_pole needs exactly two resonances, got 1"
    with pytest.raises(ValidationError):
        s_pole(TWO_RES, 0.0, Representation.UNITARY_PRODUCT)


EPS = 2.0 ** -52


def _kappa(m):
    """Residues W_k, their sum rule's sum_k G_k, and kappa = sum|W_k|/sum G_k,
    the cancellation in that sum (kappa >= 1)."""
    w = smatrix._pole_residues(m, "test")[:, 0]
    g = sum(r.width for r in m.resonances)
    return w, g, float(np.abs(w).sum()) / g


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pole_static_matches_product_for_any_model(data):
    # the residues W_k = G_k*prod_{l!=k}(1 - i*G_l/(ce_k - ce_l)) hold for any
    # number of resonances and any delta.  The terms W_k/(E - ce_k) add up to
    # a unimodular S with magnitudes up to c(E) = sum_k |W_k/(E - ce_k)|, so
    # rounding scales with 1 + c(E) at each energy; kappa does not bound it
    # where poles cluster (8 poles, 6 of them at 0: 72 eps*kappa, kappa = 368,
    # c up to 16800).  Measured over 60000 seeded models, a quarter of them
    # clustered: at most 5.3 eps*(1 + c(E)), and the sum rule, which sums
    # the W_k themselves, to 3.9 eps*kappa*sum G_k
    n = data.draw(st.integers(1, 8))
    m = ScatteringModel(
        tuple(Resonance(data.draw(st.floats(-5, 5)), data.draw(st.floats(1e-3, 10)))
              for _ in range(n)),
        data.draw(st.floats(0, math.pi, exclude_max=True)),
    )
    try:
        w, g, kappa = _kappa(m)
    except DoublePoleSingularity:
        reject()
    e = np.concatenate([GRID, [r.position for r in m.resonances]])
    ce = np.array([complex_energy(r) for r in m.resonances])
    c = (np.abs(w)[:, None] / np.abs(e - ce[:, None])).sum(axis=0)
    dev = np.abs(s_pole(m, e, Representation.POLES_STATIC) - s_unitary_product(m, e))
    assert np.all(dev <= 8 * EPS * (1.0 + c))
    assert abs(w.sum() - g) <= 8 * EPS * kappa * g


def test_pole_static_error_against_the_exact_product():
    # 40 models of 1 to 4 resonances, widths 0.01 to 3.2, each at delta = 0
    # and at a delta drawn from [-4, 4], on a grid and at and beside each
    # pole, against exact rationals (oracle.py; at delta != 0 the float
    # exp(2j*delta) is an exact input).  Measured max at delta = 0 and at
    # delta != 0: 4.7 and 4.8 eps*kappa for the static pole form, 3.1 and 3.0
    # eps for the product form, 3.7 and 2.5 eps for the dynamic pole form of
    # the two-resonance models (over seeds 0 to 9: 9.3 and 8.2, 3.7 and 3.8,
    # 4.3 and 4.3)
    rng, delta_rng = np.random.default_rng(0), np.random.default_rng(100)
    worst = dict.fromkeys(((rep, bool(d)) for rep in ("static", "product", "dynamic")
                           for d in (0, 1)), 0.0)
    for n in range(1, 5):
        for _ in range(10):
            resonances = tuple(Resonance(p, w) for p, w in zip(
                rng.uniform(-2.0, 2.0, n), 10.0 ** rng.uniform(-2.0, 0.5, n)))
            for delta in (0.0, float(delta_rng.uniform(-4.0, 4.0))):
                m = ScatteringModel(resonances, delta)
                kappa = _kappa(m)[2]
                pos = np.array([r.position for r in m.resonances])
                half = 0.5 * np.array([r.width for r in m.resonances])
                exact = lambda x: oracle.product_s(m, x)
                near = np.concatenate([pos, pos + half / 2, pos - half])
                for e in (np.linspace(-6.0, 6.0, 41), near):
                    errors = {"static": oracle.complex_error_in_eps(
                                  s_pole(m, e, Representation.POLES_STATIC), e, exact) / kappa,
                              "product": oracle.complex_error_in_eps(
                                  s_unitary_product(m, e), e, exact)}
                    if n == 2:
                        errors["dynamic"] = oracle.complex_error_in_eps(
                            s_pole(m, e, Representation.POLES_DYNAMIC), e, exact)
                    for rep, err in errors.items():
                        worst[rep, bool(delta)] = max(worst[rep, bool(delta)], err)
    for tilted in (False, True):
        assert worst["static", tilted] <= 16.0
        assert worst["product", tilted] <= 6.0
        assert 0.0 < worst["dynamic", tilted] <= 8.0


def _bits(pair):
    return np.array([pair.w1, pair.w2]).view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pole_dynamic_is_the_product_form_at_any_delta(data):
    # exp(2i*delta) multiplies each form once, so the dynamic pole form is the
    # product form at every delta the model takes, and neither coupling kind
    # depends on delta.  The energy factor's denominator d = 2E - ce_1 - ce_2
    # is rounded from E, not from the E - ce_k the terms divide by, so where
    # the poles nearly coalesce away from E = 0 its relative error grows as
    # |2E - ce_1|/|d|; c(E) = (1 + |2E - ce_1|/|d|)*sum_k G_1*G_2/(|E - ce_k|*|d|)
    # carries that, and is below 1 unless the poles are within a few widths
    # of each other and of E.  Measured over 40000 seeded models, a quarter
    # of them near coalescence, at delta = 0 as at any other: at most
    # 5.0 eps*(1 + c(E)), and 161 eps without the factor
    m = ScatteringModel(
        tuple(Resonance(data.draw(st.floats(-5, 5)), data.draw(st.floats(1e-3, 10)))
              for _ in range(2)),
        data.draw(st.floats(-2.0 ** 1023, 2.0 ** 1023, exclude_min=True, exclude_max=True)))
    e = np.concatenate([GRID, [r.position for r in m.resonances]])
    ce = np.array([complex_energy(r) for r in m.resonances])[:, None]
    d = 2.0 * e - ce[0] - ce[1]
    g12 = m.resonances[0].width * m.resonances[1].width
    c = (1.0 + np.abs(2.0 * e - ce[0]) / np.abs(d)) * (g12 / np.abs((e - ce) * d)).sum(axis=0)
    dev = np.abs(s_pole(m, e, Representation.POLES_DYNAMIC) - s_unitary_product(m, e))
    assert np.all(dev <= 16 * EPS * (1.0 + c))

    flat = ScatteringModel(m.resonances)
    for x in (e[0], m.resonances[0].position, data.draw(st.floats(-10, 10))):
        assert _bits(coupling_w_dynamic(m, x)) == _bits(coupling_w_dynamic(flat, x))
    try:
        static = _bits(coupling_w_static(flat))
    except DoublePoleSingularity:
        with pytest.raises(DoublePoleSingularity):
            coupling_w_static(m)
    else:
        assert _bits(coupling_w_static(m)) == static


def test_double_pole_center_values():
    assert s_double_pole(0.0, 1.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert s_double_pole(0.0, 1.0, math.pi / 2, 0.0) == pytest.approx(
        -1.0, abs=1e-14
    )


def test_double_pole_asymptote_is_background():
    for delta in (0.0, 0.3, math.pi / 2):
        s = s_double_pole(0.0, 1.0, delta, 1e10)
        assert abs(s - cmath.exp(2j * delta)) < 1e-9


def test_double_pole_equals_degenerate_product():
    # the quadratic-pole bracket is exactly the squared one-pole factor
    for delta in (0.0, 0.7, 2.0):
        m = ScatteringModel(
            (Resonance(0.5, 2.0), Resonance(0.5, 2.0)), delta=delta
        )
        e = np.linspace(-8, 9, 1717)
        dev = np.abs(s_double_pole(0.5, 2.0, delta, e) - s_unitary_product(m, e))
        assert np.max(dev) < 1e-13


def test_double_pole_validation():
    with pytest.raises(ValidationError):
        s_double_pole(0.0, -1.0, 0.0, 0.0)


def test_cross_section_values():
    assert cross_section(1.0 + 0.0j) == 0.0
    assert cross_section(-1.0 + 0.0j) == 4.0
    # delta = pi/4 background: |1 - i|^2 = 2
    assert cross_section(cmath.exp(2j * math.pi / 4)) == pytest.approx(2.0, abs=1e-14)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [16383, 16384, 16385, 100003])
def test_blocked_cross_section_has_the_bits_of_one_expression(n):
    rng = np.random.default_rng(n)
    s = rng.uniform(0.0, 1.5, n) * np.exp(1j * rng.uniform(-4.0, 4.0, n))
    assert _same_bits(cross_section(s), np.square(np.abs(1.0 - s)))
    strided = s[::3]  # not contiguous
    assert _same_bits(cross_section(strided), np.square(np.abs(1.0 - strided)))


def test_blocked_cross_section_keeps_shape_and_dtype():
    rng = np.random.default_rng(5)
    s = np.exp(1j * rng.uniform(-4.0, 4.0, (5, 20001)))
    for x in (s, s[:, ::2], s.T, s.astype(np.complex64)):
        assert _same_bits(cross_section(x), np.square(np.abs(1.0 - x)))


def test_cross_section_of_a_0d_s_is_a_python_float():
    rng = np.random.default_rng(6)
    for v in rng.uniform(0.0, 1.5, 200) * np.exp(1j * rng.uniform(-4.0, 4.0, 200)):
        for s in (v, complex(v), np.asarray(v)):
            sigma = cross_section(s)
            assert type(sigma) is float
            assert sigma == np.square(np.abs(1.0 - np.asarray(s))).item()


def test_cross_section_unitarity_bound():
    s = s_unitary_product(TWO_RES, GRID)
    sig = cross_section(s)
    assert np.all(sig >= 0.0)
    assert np.all(sig <= 4.0 + 1e-12)


def test_noninteracting_degenerate_pair_doubles():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0)))
    assert cross_section_noninteracting(m, 0.0) == pytest.approx(8.0, abs=1e-13)


def test_noninteracting_single_is_breit_wigner():
    # at delta = 0 the Fano form is 4*(eps*0 - 1)^2/(eps*eps + 1), whose
    # bits are those of 4/(eps*eps + 1)
    m = ScatteringModel((Resonance(0.0, 1.0),))
    e = np.linspace(-4, 4, 101)
    eps = 2.0 * e
    np.testing.assert_array_equal(cross_section_noninteracting(m, e), 4.0 / (eps * eps + 1.0))


def _random_model(rng, n, delta):
    return ScatteringModel(
        tuple(Resonance(p, w) for p, w in zip(rng.uniform(-4.0, 4.0, n),
                                              rng.uniform(0.01, 3.2, n))),
        delta,
    )


@pytest.mark.parametrize("zero_delta", [True, False])
def test_noninteracting_error_against_the_exact_sum(zero_delta):
    # 20 models of 1 to 6 resonances, 101 energies each, against exact
    # rationals (oracle.py); measured max: 1.5 eps at delta = 0 and 2.1 eps
    # at delta != 0, against 7.4 and 12.9 for 4*sin^2(delta + arctan(eps) - pi/2)
    # (which works from delta, not from the float cos and sin taken as exact)
    rng = np.random.default_rng(0)
    e = np.linspace(-6.0, 6.0, 101)
    worst = 0.0
    for i in range(20):
        m = _random_model(rng, 1 + i % 6, 0.0 if zero_delta else rng.uniform(-3.0, 3.0))
        worst = max(worst, oracle.error_in_eps(cross_section_noninteracting(m, e), e,
                                               lambda x: oracle.noninteracting(m, x)))
    assert worst <= 3.0


@pytest.mark.parametrize("n_res", [1, 2, 12])
def test_noninteracting_is_the_ordered_sum_of_one_resonance_sections(n_res):
    # one kernel: each term is fano_cross_section_dynamic of the resonance
    # on its own, and one resonance is that section itself, bit for bit
    rng = np.random.default_rng(n_res)
    m = _random_model(rng, n_res, rng.uniform(-3.0, 3.0))
    e = np.linspace(-6.0, 6.0, 3 * (1 << 14) + 5)
    total = 0.0
    for r in m.resonances:
        total = total + fano_cross_section_dynamic(ScatteringModel((r,), m.delta), 0, e)
    assert _same_bits(cross_section_noninteracting(m, e), total)


def test_noninteracting_vanishes_off_resonance():
    assert cross_section_noninteracting(TWO_RES, 1e9) < 1e-15


def test_double_pole_limit_convergence_and_coupling_growth():
    # degenerate limit: dynamic pole form converges to the quadratic-pole
    # S while the static couplings blow up like 1/separation
    gamma = 1.0
    e = np.linspace(-5, 5, 4001)
    target = s_double_pole(0.0, gamma, 0.0, e)
    errs = []
    w1s = []
    for half_sep in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        m = ScatteringModel(
            (Resonance(-half_sep, gamma), Resonance(half_sep, gamma))
        )
        errs.append(
            np.max(np.abs(s_pole(m, e, Representation.POLES_DYNAMIC) - target))
        )
        w1s.append(abs(coupling_w_static(m).w1))
    for a, b in zip(errs, errs[1:]):
        assert b < 0.6 * a  # better than halving per halved separation
    for a, b in zip(w1s, w1s[1:]):
        assert b > 1.8 * a  # ~1/separation divergence


def test_representation_enum_values():
    assert Representation("product") is Representation.UNITARY_PRODUCT
    assert Representation("poles-static") is Representation.POLES_STATIC
    assert Representation("poles-dynamic") is Representation.POLES_DYNAMIC
    assert Representation("double-pole") is Representation.DOUBLE_POLE


def test_module_constants():
    assert smatrix.DOUBLE_POLE_RTOL == 1e-9
