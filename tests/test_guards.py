"""The shared domain guards, seen from every public entry point that uses
them: the two-resonance count, the degenerate-pole width gamma_d, the
degenerate-pole separation, and the one check of every scalar a caller
passes in."""

import math

import numpy as np
import pytest

from fanolap import (
    ComplexFanoParams,
    CrossSectionTrace,
    DoublePoleSingularity,
    EnergyGrid,
    FanoProfileModel,
    FanoStaticParams,
    Representation,
    Resonance,
    ScatteringModel,
    TraceMeta,
    ValidationError,
    breit_wigner_energy,
    compare_representations,
    contour,
    coupling_w_dynamic,
    coupling_w_static,
    double_pole_fano,
    fano_cross_section_complex,
    fano_cross_section_static,
    fano_static_params,
    figure1,
    fit_fano,
    s_double_pole,
    s_pole,
    s_unitary_product,
    trace,
    window_energy,
)

THREE_RES = ScatteringModel((Resonance(0.0, 1.0), Resonance(1.0, 3.0), Resonance(2.0, 0.5)))
DEGENERATE = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0)))
STATIC = FanoStaticParams(0.5, 1.0, 2.0, -1.0, 0.5, 0.5)
COMPLEX = ComplexFanoParams(0.5 + 1.0j, 0.5 + 2.0j)

TWO_RESONANCE_ENTRY_POINTS = {
    "coupling_w_static": coupling_w_static,
    "coupling_w_dynamic": lambda m: coupling_w_dynamic(m, 0.0),
    "s_pole": lambda m: s_pole(m, 0.0, Representation.POLES_DYNAMIC),
    "fano_static_params": fano_static_params,
    "fano_cross_section_static": lambda m: fano_cross_section_static(STATIC, m, 0.0),
    "fano_cross_section_complex": lambda m: fano_cross_section_complex(STATIC, COMPLEX, m, 0.0),
    "window_energy": window_energy,
    "breit_wigner_energy": breit_wigner_energy,
    "compare_representations": lambda m: compare_representations(m, EnergyGrid(-1, 1, 5)),
}

DOUBLE_POLE_ENTRY_POINTS = {
    "s_double_pole": lambda g: s_double_pole(0.0, g, 0.0, 0.0),
    "double_pole_fano": lambda g: double_pole_fano(0.0, g, 0.0, 0.0),
    "figure1": figure1,
}


@pytest.mark.parametrize("name", sorted(TWO_RESONANCE_ENTRY_POINTS))
def test_two_resonance_entry_points_reject_three(name):
    with pytest.raises(ValidationError) as exc:
        TWO_RESONANCE_ENTRY_POINTS[name](THREE_RES)
    assert str(exc.value) == "%s needs exactly two resonances, got 3" % name


@pytest.mark.parametrize("gamma_d", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(DOUBLE_POLE_ENTRY_POINTS))
def test_double_pole_entry_points_reject_bad_width(name, gamma_d):
    with pytest.raises(ValidationError) as exc:
        DOUBLE_POLE_ENTRY_POINTS[name](gamma_d)
    assert str(exc.value) == "gamma_d must be finite and > 0, got %r" % gamma_d


STATIC_ENTRY_POINTS = {
    "coupling_w_static": coupling_w_static,
    "fano_static_params": fano_static_params,
    "s_pole": lambda m: s_pole(m, 0.0, Representation.POLES_STATIC),
}


@pytest.mark.parametrize("name", sorted(STATIC_ENTRY_POINTS))
def test_static_forms_reject_degenerate_pair(name):
    # each names itself, not the function that holds the guard
    with pytest.raises(DoublePoleSingularity) as exc:
        STATIC_ENTRY_POINTS[name](DEGENERATE)
    assert str(exc.value) == (
        "%s: pole separation 0.0 is below tolerance, couplings diverge" % name
    )


def test_static_params_alone_refuse_a_background_phase():
    # their parametrization is defined at delta = 0; every other two-resonance
    # entry point, the pole forms, both couplings and compare among them,
    # takes any delta
    tilted = ScatteringModel(THREE_RES.resonances[:2], 0.1)
    with pytest.raises(ValidationError) as exc:
        fano_static_params(tilted)
    assert str(exc.value) == ("fano_static_params is defined for zero background phase, "
                              "got delta=0.1")
    for name, entry in TWO_RESONANCE_ENTRY_POINTS.items():
        if name != "fano_static_params":
            entry(tilted)


E = np.linspace(-3.0, 3.0, 41)
TRACE = CrossSectionTrace(E, 1.0 / (1.0 + E * E), TraceMeta("test"))
STATIC_FIELDS = dict(zip(("q", "a1", "a2", "sigma_a1", "sigma_a2", "sigma_b"),
                         (0.5, 1.0, 2.0, -1.0, 0.5, 0.5)))
PROFILE_FIELDS = dict(q=1.0, e0=0.0, gamma=1.0, amplitude=1.0, offset=0.0)

# (field, must be positive, entry point taking the value)
SCALAR_ENTRY_POINTS = [
    ("position", False, lambda v: Resonance(v, 1.0)),
    ("width", True, lambda v: Resonance(0.0, v)),
    ("delta", False, lambda v: ScatteringModel((Resonance(0.0, 1.0),), v)),
    ("e_min", False, lambda v: EnergyGrid(v, 1.0, 5)),
    ("e_max", False, lambda v: EnergyGrid(-1.0, v, 5)),
    ("delta_min", False, lambda v: contour(DEGENERATE, EnergyGrid(-1, 1, 5), v, 1.0, 3)),
    ("delta_max", False, lambda v: contour(DEGENERATE, EnergyGrid(-1, 1, 5), 0.0, v, 3)),
    ("gamma_d", True, lambda v: s_double_pole(0.0, v, 0.0, 0.0)),
    ("e_d", False, lambda v: s_double_pole(v, 1.0, 0.0, 0.0)),
    ("delta", False, lambda v: s_double_pole(0.0, 1.0, v, 0.0)),
    ("e_d", False, lambda v: double_pole_fano(v, 1.0, 0.0, 0.0)),
    ("delta", False, lambda v: double_pole_fano(0.0, 1.0, v, 0.0)),
    ("energy", False, lambda v: coupling_w_dynamic(DEGENERATE, v)),
    ("tol_step", True, lambda v: fit_fano(TRACE, tol_step=v)),
    ("tol_grad", True, lambda v: fit_fano(TRACE, tol_grad=v)),
    ("damping_init", True, lambda v: fit_fano(TRACE, damping_init=v)),
]
SCALAR_ENTRY_POINTS += [
    (name, False, lambda v, name=name: FanoStaticParams(**dict(STATIC_FIELDS, **{name: v})))
    for name in STATIC_FIELDS
]
SCALAR_ENTRY_POINTS += [
    (name, name == "gamma",
     lambda v, name=name: FanoProfileModel(**dict(PROFILE_FIELDS, **{name: v})))
    for name in PROFILE_FIELDS
]


def _scalar_cases():
    for i, (field, positive, entry) in enumerate(SCALAR_ENTRY_POINTS):
        for value in (math.nan, math.inf, -math.inf) + ((0.0, -1) if positive else ()):
            yield pytest.param(field, positive, entry, value, id="%d-%s-%r" % (i, field, value))


@pytest.mark.parametrize("field, positive, entry, value", _scalar_cases())
def test_scalar_entry_points_reject_bad_values(field, positive, entry, value):
    with pytest.raises(ValidationError) as exc:
        entry(value)
    rule = "finite and > 0" if positive else "finite"
    assert str(exc.value) == "%s must be %s, got %r" % (field, rule, float(value))


# a bool is an int to Python but never a number here; nothing is parsed
NOT_REAL = (True, np.bool_(False), None, "1.5", 1 + 0j, np.array([1.0]), np.array(1.0))


def _type_cases():
    for i, (field, _, entry) in enumerate(SCALAR_ENTRY_POINTS):
        for value in NOT_REAL:
            yield pytest.param(field, entry, value, id="%d-%s-%r" % (i, field, value))


@pytest.mark.parametrize("field, entry, value", _type_cases())
def test_scalar_entry_points_reject_non_reals(field, entry, value):
    with pytest.raises(ValidationError) as exc:
        entry(value)
    assert str(exc.value) == "%s must be a real number, got %r" % (field, value)


@pytest.mark.parametrize("value", [5, -3.0, np.int64(5), np.float32(0.5), np.uint8(7)])
def test_scalar_entry_points_take_python_and_numpy_reals(value):
    r = Resonance(value, 1.0)
    assert r.position == float(value) and type(r.position) is float


def test_int_beyond_float_range_is_not_finite():
    with pytest.raises(ValidationError) as exc:
        Resonance(10 ** 400, 1.0)
    assert str(exc.value) == "position must be finite, got inf"


@pytest.mark.parametrize("max_iter, message", [
    (2.5, "max_iter must be an integer, got 2.5"),
    (True, "max_iter must be an integer, got True"),
    (0, "max_iter must be >= 1, got 0"),
    (-3, "max_iter must be >= 1, got -3"),
])
def test_fit_rejects_bad_max_iter(max_iter, message):
    with pytest.raises(ValidationError) as exc:
        fit_fano(TRACE, max_iter=max_iter)
    assert str(exc.value) == message


def test_fit_takes_one_iteration():
    assert fit_fano(TRACE, max_iter=np.int64(1)).iterations == 1


SMALLEST_NORMAL = 2.2250738585072014e-308  # sys.float_info.min

# (field, entry point taking a width)
WIDTH_ENTRY_POINTS = [("width", lambda v: Resonance(0.0, v))] + [
    ("gamma_d", DOUBLE_POLE_ENTRY_POINTS[name]) for name in sorted(DOUBLE_POLE_ENTRY_POINTS)
]


@pytest.mark.parametrize("value", [1e-310, 5e-324, float(np.nextafter(SMALLEST_NORMAL, 0.0))])
@pytest.mark.parametrize("field, entry", WIDTH_ENTRY_POINTS,
                         ids=["Resonance"] + sorted(DOUBLE_POLE_ENTRY_POINTS))
def test_widths_below_the_smallest_normal_double_are_refused(field, entry, value):
    # a subnormal width's pole overflows numpy's complex division: S was nan
    with pytest.raises(ValidationError) as exc:
        entry(value)
    assert str(exc.value) == (
        "%s must be >= 2.2250738585072014e-308, the smallest normal double, got %r"
        % (field, value))


@pytest.mark.parametrize("energy", [0.0, SMALLEST_NORMAL, -SMALLEST_NORMAL, 1e-300, 1.0])
def test_the_smallest_normal_width_keeps_every_form_finite(energy):
    one = ScatteringModel((Resonance(0.0, SMALLEST_NORMAL),))
    two = ScatteringModel((Resonance(0.0, SMALLEST_NORMAL), Resonance(1.0, 1.0)))
    values = [s_unitary_product(m, energy) for m in (one, two)]
    values += [s_pole(m, energy, Representation.POLES_STATIC) for m in (one, two)]
    values += [s_pole(two, energy, Representation.POLES_DYNAMIC),
               s_double_pole(0.0, SMALLEST_NORMAL, 0.0, energy)]
    for s in values:
        assert math.isfinite(abs(s)) and abs(abs(s) - 1.0) < 1e-15


# the largest double below 2**1023, and three beyond it
PHASE_MAX = float(np.nextafter(2.0 ** 1023, 0.0))
PAST_PHASES = [2.0 ** 1023, 1e308, 1.7976931348623157e308]
G = EnergyGrid(-1.0, 1.0, 5)

# (field, entry point taking a background phase, the signs it is given)
PHASE_ENTRY_POINTS = {
    "ScatteringModel": ("delta", lambda v: ScatteringModel((Resonance(0.0, 1.0),), v), (1, -1)),
    "s_double_pole": ("delta", lambda v: s_double_pole(0.0, 1.0, v, 0.0), (1, -1)),
    "double_pole_fano": ("delta", lambda v: double_pole_fano(0.0, 1.0, v, 0.0), (1, -1)),
    "contour_min": ("delta_min", lambda v: contour(DEGENERATE, G, v, 1.0, 3), (-1,)),
    "contour_max": ("delta_max", lambda v: contour(DEGENERATE, G, 0.0, v, 3), (1,)),
}


@pytest.mark.parametrize("value", PAST_PHASES)
@pytest.mark.parametrize("name", sorted(PHASE_ENTRY_POINTS))
def test_phases_from_2_to_the_1023_are_refused(name, value):
    # numpy's exp(2j*delta) is nan once 2*delta overflows
    field, entry, signs = PHASE_ENTRY_POINTS[name]
    for given in (sign * value for sign in signs):
        with pytest.raises(ValidationError) as exc:
            entry(given)
        assert str(exc.value) == "|%s| must be < 2**1023, got %r" % (field, given)


def test_the_largest_phase_keeps_every_form_finite():
    m = ScatteringModel((Resonance(0.0, 1.0),), PHASE_MAX)
    sigma = [trace(m, G, rep).sigma for rep in (Representation.UNITARY_PRODUCT,
                                                Representation.POLES_STATIC)]
    sigma.append(contour(m, G, -PHASE_MAX, PHASE_MAX, 3).sigma)
    for s in sigma:
        assert np.isfinite(s).all()
    for delta in (PHASE_MAX, -PHASE_MAX):
        assert math.isfinite(abs(s_double_pole(0.0, 1.0, delta, 0.0)))
        assert np.isfinite(double_pole_fano(0.0, 1.0, delta, G.points())).all()
