import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fanolap import (
    EnergyGrid,
    Resonance,
    ScatteringModel,
    ValidationError,
    complex_energy,
    epsilon,
    load_model,
    model_from_dict,
    model_to_dict,
    resonance_phase,
    save_model,
)


def test_narrow_resonance_allowed():
    # the narrow state used throughout the two-resonance figures
    r = Resonance(0.0, 0.1)
    assert r.width == 0.1


@pytest.mark.parametrize("width", [-1.0, 0.0, math.nan, math.inf])
def test_bad_width_rejected(width):
    with pytest.raises(ValidationError) as exc:
        Resonance(0.0, width)
    assert "width" in str(exc.value)


def test_bad_position_rejected():
    with pytest.raises(ValidationError) as exc:
        Resonance(math.nan, 1.0)
    assert "position" in str(exc.value)


def test_position_width_coerced_to_float():
    r = Resonance(1, 2)
    assert isinstance(r.position, float)
    assert isinstance(r.width, float)


def test_complex_energy_values():
    assert complex_energy(Resonance(0.0, 1.0)) == -0.5j
    assert complex_energy(Resonance(2.0, 1.0)) == 2.0 - 0.5j
    assert complex_energy(Resonance(0.5, 1.0)) == 0.5 - 0.5j


def test_epsilon_scalar():
    assert epsilon(Resonance(0.0, 2.0), 1.0) == 1.0
    assert epsilon(Resonance(0.0, 2.0), 0.0) == 0.0
    assert epsilon(Resonance(0.5, 1.0), 0.0) == -1.0
    assert isinstance(epsilon(Resonance(0.0, 2.0), 1.0), float)


def test_epsilon_array():
    e = epsilon(Resonance(0.0, 2.0), np.array([0.0, 1.0, 2.0]))
    assert isinstance(e, np.ndarray)
    np.testing.assert_allclose(e, [0.0, 1.0, 2.0])


def test_resonance_phase_at_center():
    assert resonance_phase(Resonance(0.0, 1.0), 0.0) == pytest.approx(
        -math.pi / 2, abs=1e-15
    )


def test_resonance_phase_at_half_width():
    # eps = 1 there, so the phase is -pi/4
    assert resonance_phase(Resonance(0.0, 1.0), 0.5) == pytest.approx(
        -math.pi / 4, abs=1e-15
    )


def test_resonance_phase_asymptotes():
    r = Resonance(0.0, 1.0)
    high = resonance_phase(r, 1e9)
    low = resonance_phase(r, -1e9)
    assert -1e-8 < high < 0.0
    assert -math.pi < low < -math.pi + 1e-8


@given(
    st.floats(-10, 10),
    st.floats(0.05, 5),
    st.floats(-50, 50),
)
def test_resonance_phase_range_and_monotonicity(pos, width, e):
    r = Resonance(pos, width)
    p = resonance_phase(r, e)
    assert -math.pi < p < 0.0
    assert resonance_phase(r, e + 0.1) > p


def test_phase_array_shape():
    p = resonance_phase(Resonance(0.0, 1.0), np.linspace(-3, 3, 7))
    assert p.shape == (7,)


def test_model_requires_resonances():
    with pytest.raises(ValidationError):
        ScatteringModel(resonances=())


def test_model_delta_default_zero():
    m = ScatteringModel((Resonance(0.0, 1.0),))
    assert m.delta == 0.0


def test_model_rejects_nonfinite_delta():
    with pytest.raises(ValidationError):
        ScatteringModel((Resonance(0.0, 1.0),), delta=math.inf)


def test_model_rejects_non_resonance_entries():
    with pytest.raises(ValidationError):
        ScatteringModel(((0.0, 1.0),))


def test_model_resonances_stored_as_tuple():
    m = ScatteringModel([Resonance(0.0, 1.0), Resonance(2.0, 1.0)])
    assert isinstance(m.resonances, tuple)


def test_grid_points_inclusive():
    g = EnergyGrid(-5.0, 5.0, 11)
    pts = g.points()
    assert pts[0] == -5.0
    assert pts[-1] == 5.0
    assert len(pts) == 11


def test_grid_validation():
    with pytest.raises(ValidationError):
        EnergyGrid(1.0, 0.0, 10)
    with pytest.raises(ValidationError):
        EnergyGrid(0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        EnergyGrid(0.0, math.inf, 10)


def test_dict_round_trip():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(2.0, 1.0)), delta=0.3)
    m2 = model_from_dict(model_to_dict(m))
    assert m2 == m


@pytest.mark.parametrize(
    "mangle,field",
    [
        (lambda d: d.pop("resonances"), "resonances"),
        (lambda d: d.pop("delta"), "delta"),
        (lambda d: d["resonances"][0].pop("position"), "position"),
        (lambda d: d["resonances"][1].pop("width"), "width"),
    ],
)
def test_dict_missing_field_named(mangle, field):
    d = model_to_dict(
        ScatteringModel((Resonance(0.0, 1.0), Resonance(2.0, 1.0)), delta=0.0)
    )
    mangle(d)
    with pytest.raises(ValidationError) as exc:
        model_from_dict(d)
    assert field in str(exc.value)


def test_dict_rejects_bool_numbers():
    d = model_to_dict(ScatteringModel((Resonance(0.0, 1.0),)))
    d["delta"] = True
    with pytest.raises(ValidationError):
        model_from_dict(d)


def test_file_round_trip(tmp_path):
    m = ScatteringModel((Resonance(0.5, 1.0), Resonance(0.0, 0.1)), delta=0.25)
    path = tmp_path / "model.json"
    save_model(m, path)
    assert load_model(path) == m
    # the file is plain JSON
    data = json.loads(path.read_text())
    assert data["delta"] == 0.25


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_model(path)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.json")
