import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanolap import (
    ComplexFanoParams,
    DoublePoleSingularity,
    EnergyGrid,
    EqualWidthsSingularity,
    FanoProfileModel,
    FanoStaticParams,
    NegativeAkError,
    Representation,
    Resonance,
    ScatteringModel,
    ValidationError,
    breit_wigner_energy,
    compare_representations,
    contour,
    cross_section,
    cross_section_noninteracting,
    double_pole_fano,
    epsilon,
    fano,
    fano_complex_params,
    fano_cross_section_complex,
    fano_cross_section_dynamic,
    fano_cross_section_static,
    fano_q_dynamic,
    fano_static_params,
    predict,
    resonance_phase,
    s_double_pole,
    s_pole,
    s_unitary_product,
    trace,
    window_energy,
)
from fanolap import _util
from fanolap._util import _BLOCK

# widths 1 and 3 at positions 0 and 1: every parameter comes out rational
REF_MODEL = ScatteringModel((Resonance(0.0, 1.0), Resonance(1.0, 3.0)))
FIG2A = ScatteringModel(
    (Resonance(0.0, 0.1), Resonance(0.5, 1.0)), delta=math.pi / 4
)
GRID = np.linspace(-6.0, 6.0, 4001)


def _model_for(m, rep):
    """The model a representation takes: the pole forms the first two
    resonances at zero background, the double pole the first resonance."""
    if rep is Representation.UNITARY_PRODUCT:
        return m
    if rep is Representation.DOUBLE_POLE:
        return ScatteringModel(m.resonances[:1], m.delta)
    return ScatteringModel(m.resonances[:2])


def _s_of(m, rep, x):
    m = _model_for(m, rep)
    if rep is Representation.UNITARY_PRODUCT:
        return s_unitary_product(m, x)
    if rep is Representation.DOUBLE_POLE:
        r = m.resonances[0]
        return s_double_pole(r.position, r.width, m.delta, x)
    return s_pole(m, x, rep)


def _pointwise_case(f):
    return (lambda m, g: f(m, g.points())), f


def _trace_case(rep):
    return ((lambda m, g: trace(_model_for(m, rep), g, rep).sigma),
            (lambda m, x: cross_section(_s_of(m, rep, x))))


# name -> (value on an EnergyGrid, value at an energy or array of energies)
GRID_CASES = {
    "s_unitary_product": _pointwise_case(s_unitary_product),
    "fano_q_dynamic": _pointwise_case(lambda m, e: fano_q_dynamic(m, 0, e)),
    "fano_cross_section_dynamic": _pointwise_case(
        lambda m, e: fano_cross_section_dynamic(m, 0, e)),
    "s_double_pole": _pointwise_case(
        lambda m, e: _s_of(m, Representation.DOUBLE_POLE, e)),
    "s_pole_static": _pointwise_case(
        lambda m, e: _s_of(m, Representation.POLES_STATIC, e)),
    "s_pole_dynamic": _pointwise_case(
        lambda m, e: _s_of(m, Representation.POLES_DYNAMIC, e)),
    "cross_section_noninteracting": _pointwise_case(cross_section_noninteracting),
    **{"trace_" + rep.value: _trace_case(rep) for rep in Representation},
}


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_energy_value_independent_of_grid_size(name):
    # numpy's complex multiply is not bitwise commutative, rounds a 0-d or an
    # aliased one-element product differently, and evaluation runs in
    # blocks; an energy must get the same bits on a grid, a prefix, a
    # slice of one or two, and on its own, on both sides of block seams
    on_grid, at = GRID_CASES[name]
    rng = np.random.default_rng(11)
    g = EnergyGrid(-6.0, 6.0, 3 * _BLOCK + 5)
    e = g.points()
    seams = [j * _BLOCK + d for j in (1, 2, 3) for d in (-1, 0)]
    for _ in range(5):
        n = int(rng.integers(2, 13))
        m = ScatteringModel(
            tuple(Resonance(p, w) for p, w in zip(rng.uniform(-4.0, 4.0, n),
                                                  rng.uniform(0.1, 3.0, n))),
            float(rng.uniform(-2.0, 2.0)),
        )
        full = on_grid(m, g)
        assert full.shape == e.shape
        assert full[:1000].tobytes() == at(m, e[:1000]).tobytes()
        assert full[16383:16385].tobytes() == at(m, e[16383:16385]).tobytes()
        picks = seams + [e.size - 1] + rng.integers(0, e.size, 20).tolist()
        for i in picks:
            assert at(m, e[i:i + 1]).tobytes() == full[i:i + 1].tobytes(), i
            assert np.array(at(m, float(e[i]))).tobytes() == full[i:i + 1].tobytes(), i


# name -> bytes of its value on an EnergyGrid, for every grid evaluator that
# goes through _pointwise
THREAD_CASES = {
    **{name: (lambda m, g, f=on_grid: f(m, g).tobytes()) for name, (on_grid, _) in GRID_CASES.items()},
    "compare_representations": lambda m, g: json.dumps(
        compare_representations(_model_for(m, Representation.POLES_STATIC), g)).encode(),
    "contour": lambda m, g: contour(m, g, -1.0, 2.0, 3).sigma.tobytes(),
}


@pytest.mark.parametrize("name", sorted(THREAD_CASES))
def test_grid_bits_independent_of_thread_count(name, monkeypatch):
    # blocks are independent and _times fixes every product's operand
    # order, so how many threads share a grid's blocks changes no bit
    rng = np.random.default_rng(12)
    g = EnergyGrid(-6.0, 6.0, 3 * _BLOCK + 5)
    for _ in range(3):
        n = int(rng.integers(2, 13))
        m = ScatteringModel(
            tuple(Resonance(p, w) for p, w in zip(rng.uniform(-4.0, 4.0, n),
                                                  rng.uniform(0.1, 3.0, n))),
            float(rng.uniform(-2.0, 2.0)),
        )
        values = []
        monkeypatch.setattr(_util, "_THREADED_SECONDS", 0.0)
        for cpus in (1, 2, 4):
            monkeypatch.setattr(_util, "_cpus", lambda cpus=cpus: cpus)
            values.append(THREAD_CASES[name](m, g))
        assert values[0] == values[1] == values[2]


def test_worker_threads_keep_the_callers_error_state(monkeypatch):
    # fano_q_dynamic divides by a vanishing sin(phi) under
    # errstate(divide="ignore"); numpy 2 keeps that state in a context
    # variable that a new thread does not inherit, and pytest turns the
    # warning a worker would then emit into an error
    monkeypatch.setattr(_util, "_THREADED_SECONDS", 0.0)
    monkeypatch.setattr(_util, "_cpus", lambda: 4)
    m = ScatteringModel((Resonance(5.0, 1.0), Resonance(0.0, 2.0)), math.pi / 2)
    e = np.linspace(-3.0, 1.0, 3 * _BLOCK + 5)
    i = int(np.argmin(np.abs(e)))
    assert i >= 2 * _BLOCK
    # eps_2 = E here equals cos(delta) in floats, so phi is exactly 0
    e[i] = np.exp(1j * m.delta).real
    q = fano_q_dynamic(m, 0, e)
    assert np.flatnonzero(~np.isfinite(q)).tolist() == [i]
    assert np.isinf(q[i]) and q[i - 1] * q[i + 1] < 0.0


def _pair(rng, delta=0.0):
    p, w = rng.uniform(-3.0, 3.0, 2), rng.uniform(0.1, 3.0, 2)
    return ScatteringModel((Resonance(p[0], w[0]), Resonance(p[1], w[1])), delta)


def _dynamic_form(rng):
    m = _pair(rng, rng.uniform(-2.0, 2.0))
    return lambda e: fano_cross_section_dynamic(m, 1, e)


def _static_form(rng):
    m = _pair(rng)
    p = fano_static_params(m)
    return lambda e: fano_cross_section_static(p, m, e)


def _complex_form(rng):
    while True:  # the complex parameters need A_1, A_2 >= 0
        m = _pair(rng)
        p = fano_static_params(m)
        if min(p.a1, p.a2) >= 0.0:
            return lambda e: fano_cross_section_complex(p, fano_complex_params(p), m, e)


def _double_pole_form(rng):
    e_d, gamma_d, delta = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0)
    return lambda e: double_pole_fano(e_d, gamma_d, delta, e)[1]


def _noninteracting_form(rng):
    m = _pair(rng, rng.uniform(-2.0, 2.0))
    return lambda e: cross_section_noninteracting(m, e)


def _product_form(rng):
    m = _pair(rng, rng.uniform(-2.0, 2.0))
    return lambda e: cross_section(s_unitary_product(m, e))


SIGMA_FORMS = {
    "fano_cross_section_dynamic": _dynamic_form,
    "fano_cross_section_static": _static_form,
    "fano_cross_section_complex": _complex_form,
    "double_pole_fano": _double_pole_form,
    "cross_section_noninteracting": _noninteracting_form,
    "cross_section": _product_form,
}


@pytest.mark.parametrize("name", sorted(SIGMA_FORMS))
def test_scalar_energy_matches_grid_bitwise(name):
    # a square written x ** 2 goes through pow on a 0-d operand but is
    # squared on an array, and the two can round differently
    rng = np.random.default_rng(5)
    e = np.linspace(-6.0, 6.0, 101)
    mismatches = []
    for _ in range(100):
        sigma = SIGMA_FORMS[name](rng)
        grid = sigma(e)
        mismatches += [(x, y) for x, y in zip(e.tolist(), grid.tolist()) if sigma(x) != y]
    assert mismatches == []


def test_static_params_frozen_values():
    p = fano_static_params(REF_MODEL)
    assert p.q == pytest.approx(1.0, abs=1e-15)
    assert p.a1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert p.a2 == pytest.approx(6.0, abs=1e-14)
    assert p.sigma_a1 == pytest.approx(-3.0, abs=1e-14)
    assert p.sigma_a2 == pytest.approx(1.0, abs=1e-15)
    assert p.sigma_b == pytest.approx(2.0, abs=1e-15)


def test_static_params_sum_rule_and_sign():
    p = fano_static_params(REF_MODEL)
    assert abs(p.sigma_a1 + p.sigma_a2 + p.sigma_b) < 1e-12
    assert min(p.sigma_a1, p.sigma_a2) < 0.0
    assert max(p.sigma_a1, p.sigma_a2) > 0.0


@pytest.mark.parametrize("fields, message", [
    ((0.5, 1.0, 2.0, -1.0, 0.5, 0.6), "partial weights must sum to zero, got %r" % (
        -1.0 + 0.5 + 0.6)),
    ((0.5, 1.0, 2.0, 0.5, 0.5, -1.0), "one of sigma_a1, sigma_a2 must be negative"),
    ((0.5, 1.0, 2.0, 0.0, 0.0, 0.0), "one of sigma_a1, sigma_a2 must be negative"),
])
def test_static_params_enforce_sum_rule_and_sign(fields, message):
    with pytest.raises(ValidationError) as exc:
        FanoStaticParams(*fields)
    assert str(exc.value) == message


def test_static_params_equal_positions_give_q_zero():
    m = ScatteringModel((Resonance(1.0, 1.0), Resonance(1.0, 3.0)))
    assert fano_static_params(m).q == 0.0


def test_static_params_equal_widths_rejected():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(1.0, 1.0)))
    with pytest.raises(EqualWidthsSingularity):
        fano_static_params(m)


def test_static_params_double_pole_takes_precedence():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0)))
    with pytest.raises(DoublePoleSingularity):
        fano_static_params(m)


def test_static_params_need_zero_delta():
    m = ScatteringModel(REF_MODEL.resonances, delta=0.2)
    with pytest.raises(ValidationError):
        fano_static_params(m)


def test_static_cross_section_frozen_value():
    # at E = 0: eps1 = 0, eps2 = -2/3; terms are -5, 55/13 and 2
    p = fano_static_params(REF_MODEL)
    assert fano_cross_section_static(p, REF_MODEL, 0.0) == pytest.approx(
        16.0 / 13.0, abs=1e-13
    )


def test_static_cross_section_equals_product_form():
    p = fano_static_params(REF_MODEL)
    sig = fano_cross_section_static(p, REF_MODEL, GRID)
    ref = cross_section(s_unitary_product(REF_MODEL, GRID))
    assert np.max(np.abs(sig - ref)) < 1e-10


def test_static_cross_section_vanishes_far_away():
    p = fano_static_params(REF_MODEL)
    assert abs(fano_cross_section_static(p, REF_MODEL, 1e9)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_static_route_random_models(data):
    p1 = data.draw(st.floats(-3, 3))
    p2 = data.draw(st.floats(-3, 3))
    w1 = data.draw(st.floats(0.1, 1.5))
    w2 = data.draw(st.floats(1.8, 4.0))  # widths well apart, q stays tame
    m = ScatteringModel((Resonance(p1, w1), Resonance(p2, w2)))
    p = fano_static_params(m)
    assert abs(p.sigma_a1 + p.sigma_a2 + p.sigma_b) < 1e-12
    assert min(p.sigma_a1, p.sigma_a2) < 0.0
    sig = fano_cross_section_static(p, m, GRID)
    ref = cross_section(s_unitary_product(m, GRID))
    assert np.max(np.abs(sig - ref)) < 1e-10


def test_singularity_cancellation_near_equal_widths():
    # q, A_k and sigma_ak all diverge as the widths approach each other but
    # the assembled cross section stays glued to the product form
    tol = {1: 1e-13, 2: 1e-12, 3: 1e-11, 4: 1e-10}
    for m_exp, bound in tol.items():
        for sgn in (1.0, -1.0):
            w1 = 3.0 * (1.0 + sgn * 10.0 ** -m_exp)
            m = ScatteringModel((Resonance(0.0, w1), Resonance(1.0, 3.0)))
            p = fano_static_params(m)
            sig = fano_cross_section_static(p, m, GRID)
            ref = cross_section(s_unitary_product(m, GRID))
            assert np.max(np.abs(sig - ref)) < bound, (m_exp, sgn)


def test_complex_params_frozen_values():
    cp = fano_complex_params(fano_static_params(REF_MODEL))
    assert cp.q1 == pytest.approx(1.0 + 1j * math.sqrt(2.0 / 3.0), abs=1e-14)
    assert cp.q2 == pytest.approx(1.0 + 1j * math.sqrt(6.0), abs=1e-14)


def test_complex_params_purely_imaginary_at_equal_positions():
    m = ScatteringModel((Resonance(1.0, 1.0), Resonance(1.0, 3.0)))
    cp = fano_complex_params(fano_static_params(m))
    assert cp.q1.real == 0.0
    assert cp.q2.real == 0.0


@pytest.mark.parametrize("q1, q2, message", [
    (0.5 + 1.0j, 0.6 + 1.0j, "q1 and q2 must share their real part"),
    (0.5 - 1.0j, 0.5 + 1.0j, "imaginary parts must be non-negative"),
    (0.5 + 1.0j, 0.5 - 1e-300j, "imaginary parts must be non-negative"),
])
def test_complex_params_enforce_shared_real_part_and_sign(q1, q2, message):
    with pytest.raises(ValidationError) as exc:
        ComplexFanoParams(q1, q2)
    assert str(exc.value) == message


def test_complex_params_negative_ak():
    # far apart with similar widths: q is large, A_k = (G_k/G_l - 2)q^2 + ...
    # goes negative
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(5.0, 1.2)))
    p = fano_static_params(m)
    assert min(p.a1, p.a2) < 0.0
    with pytest.raises(NegativeAkError) as exc:
        fano_complex_params(p)
    assert exc.value.a1 == p.a1
    assert exc.value.a2 == p.a2


def test_complex_route_agrees_with_static_route():
    p = fano_static_params(REF_MODEL)
    cp = fano_complex_params(p)
    sig_c = fano_cross_section_complex(p, cp, REF_MODEL, GRID)
    sig_s = fano_cross_section_static(p, REF_MODEL, GRID)
    assert np.max(np.abs(sig_c - sig_s)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_complex_route_random_models(data):
    p2 = data.draw(st.floats(-0.5, 0.5))
    w1 = data.draw(st.floats(0.5, 1.5))
    w2 = data.draw(st.floats(2.5, 4.0))
    m = ScatteringModel((Resonance(0.0, w1), Resonance(p2, w2)))
    p = fano_static_params(m)
    if p.a1 < 0 or p.a2 < 0:
        with pytest.raises(NegativeAkError):
            fano_complex_params(p)
        return
    cp = fano_complex_params(p)
    dev = np.abs(
        fano_cross_section_complex(p, cp, m, GRID)
        - fano_cross_section_static(p, m, GRID)
    )
    assert np.max(dev) < 1e-12


def test_q_dynamic_equals_eps2_at_zero_delta():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.5, 1.0)))
    e = np.linspace(-5, 5, 10001)
    dev = np.abs(fano_q_dynamic(m, 0, e) - epsilon(m.resonances[1], e))
    assert np.max(dev) < 1e-12


def test_q_dynamic_index_validation():
    for k, message in [
        (2, "k must be < 2, got 2"),
        (np.int64(2), "k must be < 2, got 2"),
        (-1, "k must be >= 0, got -1"),
        (True, "k must be an integer, got True"),
        (1.0, "k must be an integer, got 1.0"),
    ]:
        for entry in (fano_q_dynamic, fano_cross_section_dynamic):
            with pytest.raises(ValidationError) as exc:
                entry(REF_MODEL, k, 0.0)
            assert str(exc.value) == message


@pytest.mark.parametrize("entry", [fano_q_dynamic, fano_cross_section_dynamic])
def test_resonance_index_takes_numpy_integers(entry):
    e = np.linspace(-3.0, 3.0, 61)
    expected = entry(REF_MODEL, 1, e).tobytes()
    for k in (np.int64(1), np.int32(1), np.uint8(1)):
        assert entry(REF_MODEL, k, e).tobytes() == expected


def _probe_model(eps2_at_zero, delta):
    # second resonance placed so eps2(E=0) equals the requested value
    return ScatteringModel(
        (Resonance(0.0, 1.0), Resonance(-eps2_at_zero, 2.0)), delta=delta
    )


def test_q_dynamic_cot_limit():
    # non-overlapping perturber: q -> -cot(delta), error falls off as 1/eps2
    for eps2 in (1e7, 1e9):
        for d in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
            q = fano_q_dynamic(_probe_model(eps2, d), 0, 0.0)
            assert abs(q + 1.0 / math.tan(d)) < 1e-6


def test_q_dynamic_tan_limit():
    # very broad perturber: q -> tan(delta)
    for eps2 in (1e-7, 1e-8):
        for d in (math.pi / 6, math.pi / 4, 1.0):
            q = fano_q_dynamic(_probe_model(eps2, d), 0, 0.0)
            assert abs(q - math.tan(d)) < 1e-6


def test_q_dynamic_infinite_where_phase_vanishes():
    # single resonance, delta = 0: the interfering phase is identically zero
    # and q is a signed infinity rather than nan
    m = ScatteringModel((Resonance(0.0, 1.0),))
    q = fano_q_dynamic(m, 0, 0.0)
    assert math.isinf(q)


def test_q_reversal_across_window_energy():
    ew = window_energy(FIG2A)
    q_lo = fano_q_dynamic(FIG2A, 0, ew - 1e-3)
    q_hi = fano_q_dynamic(FIG2A, 0, ew + 1e-3)
    assert q_lo * q_hi < 0.0


def test_cross_section_dynamic_is_phase_rule():
    # stable closed form equals 4*sin^2(delta + sum of resonance phases)
    m = ScatteringModel(
        (Resonance(0.0, 0.5), Resonance(1.0, 2.0), Resonance(-2.0, 1.0)),
        delta=0.9,
    )
    phases = sum(resonance_phase(r, GRID) for r in m.resonances)
    ref = 4.0 * np.sin(m.delta + phases) ** 2
    for k in range(3):
        sig = fano_cross_section_dynamic(m, k, GRID)
        assert np.max(np.abs(sig - ref)) < 1e-12


def test_cross_section_dynamic_matches_product_everywhere():
    dev = np.abs(
        fano_cross_section_dynamic(FIG2A, 0, GRID)
        - cross_section(s_unitary_product(FIG2A, GRID))
    )
    assert np.max(dev) < 1e-12


def test_cross_section_dynamic_finite_at_infinite_q():
    # the rewrite stays exact at the symmetric-peak energy where q blows up
    e_bw = breit_wigner_energy(
        ScatteringModel(FIG2A.resonances, delta=3 * math.pi / 4)
    )
    m = ScatteringModel(FIG2A.resonances, delta=3 * math.pi / 4)
    sig = fano_cross_section_dynamic(m, 0, e_bw)
    ref = cross_section(s_unitary_product(m, e_bw))
    assert sig == pytest.approx(ref, abs=1e-12)
    assert math.isfinite(sig)


def test_cross_section_dynamic_single_resonance_peak():
    m = ScatteringModel((Resonance(0.0, 1.0),))
    assert fano_cross_section_dynamic(m, 0, 0.0) == pytest.approx(4.0, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0, math.pi, exclude_max=True),
    st.floats(-3, 3),
    st.floats(0.2, 2),
    st.floats(-3, 3),
    st.floats(0.2, 2),
)
def test_periodicity_in_delta(delta, p1, w1, p2, w2):
    m1 = ScatteringModel((Resonance(p1, w1), Resonance(p2, w2)), delta=delta)
    m2 = ScatteringModel(m1.resonances, delta=delta + math.pi)
    e = np.linspace(-4, 4, 301)
    s1 = fano_cross_section_dynamic(m1, 0, e)
    s2 = fano_cross_section_dynamic(m2, 0, e)
    assert np.max(np.abs(s1 - s2)) < 1e-11
    q1 = fano_q_dynamic(m1, 0, 1.234)
    q2 = fano_q_dynamic(m2, 0, 1.234)
    if math.isfinite(q1) and math.isfinite(q2):
        assert q1 == pytest.approx(q2, abs=1e-9, rel=1e-9)


def test_window_energy_values():
    assert window_energy(FIG2A) == pytest.approx(0.0, abs=1e-15)
    m0 = ScatteringModel(FIG2A.resonances, delta=0.0)
    assert window_energy(m0) == 0.5
    with pytest.raises(fano.NoFiniteSolution):
        window_energy(ScatteringModel(FIG2A.resonances, delta=math.pi / 2))


def test_window_energy_is_q_zero():
    for d in (0.1, math.pi / 4, 1.2):
        m = ScatteringModel(FIG2A.resonances, delta=d)
        assert abs(fano_q_dynamic(m, 0, window_energy(m))) < 1e-12


def test_breit_wigner_energy_values():
    m = ScatteringModel(FIG2A.resonances, delta=3 * math.pi / 4)
    assert breit_wigner_energy(m) == pytest.approx(0.0, abs=1e-15)
    m90 = ScatteringModel(FIG2A.resonances, delta=math.pi / 2)
    assert breit_wigner_energy(m90) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(fano.NoFiniteSolution):
        breit_wigner_energy(ScatteringModel(FIG2A.resonances, delta=0.0))


def test_breit_wigner_energy_is_q_infinite():
    for d in (0.4, math.pi / 2, 2.5):
        m = ScatteringModel(FIG2A.resonances, delta=d)
        q = fano_q_dynamic(m, 0, breit_wigner_energy(m))
        assert abs(1.0 / q) < 1e-12


def test_double_pole_fano_frozen_values():
    q, sig = double_pole_fano(0.0, 1.0, math.pi / 4, 0.0)
    assert q == pytest.approx(0.5, abs=1e-15)
    assert sig == pytest.approx(2.0, abs=1e-14)
    q0, sig0 = double_pole_fano(0.0, 1.0, 0.0, 0.0)
    assert q0 == 0.0
    assert sig0 == 0.0


def test_double_pole_fano_huge_q_still_finite_sigma():
    # cos(float(pi/2)) is ~6e-17, so q blows up to ~1e16 while the stable
    # sigma form keeps tracking |1 - S|^2
    q, sig = double_pole_fano(0.0, 1.0, math.pi / 2, 0.25)
    assert abs(q) > 1e15
    ref = cross_section(s_double_pole(0.0, 1.0, math.pi / 2, 0.25))
    assert sig == pytest.approx(ref, abs=1e-12)
    assert math.isfinite(sig)


def test_double_pole_fano_matches_smatrix_everywhere():
    e = np.linspace(-7, 7, 2001)
    for delta in (0.0, math.pi / 4, 1.0, math.pi / 2, 2.5):
        _, sig = double_pole_fano(0.3, 1.7, delta, e)
        ref = cross_section(s_double_pole(0.3, 1.7, delta, e))
        assert np.max(np.abs(sig - ref)) < 1e-12


def test_module_constants():
    assert fano.EQUAL_WIDTHS_RTOL == 1e-9


# a pole of width 1e-10 next to one of width 1: past E = 6.7e143 its eps*eps
# would overflow, and every form must still give the far-field limit
FAR = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1e-10)), delta=0.3)
# zero-delta models for the static forms: the same widths (q = -0.5, a1 = 1.25e10),
# and widths 4e-9 apart, whose weights sigma_ak reach 1e9
FAR_STATIC = (ScatteringModel((Resonance(0.0, 1.0), Resonance(0.25, 1e-10))),
              ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0 + 4e-9))))


@pytest.mark.parametrize("energy", [1e144, 1e200, math.inf, -math.inf])
def test_far_energies_give_the_limit(energy):
    sigma = cross_section(s_unitary_product(FAR, 1e144))
    assert sigma == 0.34932877018064334
    for k in (0, 1):
        assert fano_cross_section_dynamic(FAR, k, energy) == pytest.approx(sigma, rel=1e-15)
        assert fano_q_dynamic(FAR, k, energy) == pytest.approx(-1.0 / math.tan(0.3), rel=1e-15)
    assert cross_section_noninteracting(FAR, energy) == pytest.approx(2.0 * sigma, rel=1e-15)
    for m in FAR_STATIC:
        # sum_k sigma_ak + sigma_b: zero by the sum rule, up to rounding of the weights
        p = fano_static_params(m)
        limit = p.sigma_a1 + p.sigma_a2 + p.sigma_b
        rounding = 8 * np.finfo(float).eps * max(map(abs, (p.sigma_a1, p.sigma_a2, p.sigma_b)))
        assert fano_cross_section_static(p, m, energy) == pytest.approx(limit, abs=rounding)
        cp = fano_complex_params(p)
        assert fano_cross_section_complex(p, cp, m, energy) == pytest.approx(limit, abs=rounding)
    profile = FanoProfileModel(q=-3.0, e0=0.5, gamma=1e-10, amplitude=2.0, offset=0.25)
    assert predict(profile, energy) == pytest.approx(2.25, rel=1e-15)


def test_nan_energy_gives_nan():
    # the phase factors are built without a complex division, so a nan
    # energy gives nan with no invalid-value warning
    for k in (0, 1):
        assert math.isnan(fano_cross_section_dynamic(FAR, k, math.nan))
        assert math.isnan(fano_q_dynamic(FAR, k, math.nan))
    assert math.isnan(cross_section_noninteracting(FAR, math.nan))
