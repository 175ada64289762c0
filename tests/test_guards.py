"""The shared domain guards, seen from every public entry point that uses
them: the two-resonance count, the degenerate-pole width gamma_d, and the
degenerate-pole separation."""

import math

import pytest

from fanolap import (
    ComplexFanoParams,
    DoublePoleSingularity,
    EnergyGrid,
    FanoStaticParams,
    Representation,
    Resonance,
    ScatteringModel,
    ValidationError,
    breit_wigner_energy,
    compare_representations,
    coupling_w_dynamic,
    coupling_w_static,
    double_pole_fano,
    fano_cross_section_complex,
    fano_cross_section_static,
    fano_static_params,
    figure1,
    s_double_pole,
    s_pole,
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


@pytest.mark.parametrize("entry", [coupling_w_static, fano_static_params])
def test_static_forms_reject_degenerate_pair(entry):
    with pytest.raises(DoublePoleSingularity) as exc:
        entry(DEGENERATE)
    assert str(exc.value) == (
        "%s: pole separation 0.0 is below tolerance, couplings diverge" % entry.__name__
    )
