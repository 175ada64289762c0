import math

import numpy as np
import pytest

from fanolap import (
    ContourGrid,
    CrossSectionTrace,
    DoublePoleSingularity,
    EnergyGrid,
    Representation,
    Resonance,
    ScatteringModel,
    TraceMeta,
    ValidationError,
    compare_representations,
    contour,
    figure1,
    figure2,
    figure2_model,
    format_contour_csv,
    format_trace_csv,
    resonance_phase,
    trace,
    write_contour_csv,
    write_trace_csv,
)
from fanolap.scan import _format_columns

TWO_RES = ScatteringModel((Resonance(0.0, 1.0), Resonance(2.0, 1.0)))


def test_trace_single_resonance_peak():
    m = ScatteringModel((Resonance(0.0, 1.0),))
    tr = trace(m, EnergyGrid(-5.0, 5.0, 1001), Representation.UNITARY_PRODUCT)
    i = int(np.argmax(tr.sigma))
    assert tr.sigma[i] == pytest.approx(4.0, abs=1e-3)
    assert abs(tr.energies[i]) <= (tr.energies[1] - tr.energies[0])


def test_trace_representations_agree():
    g = EnergyGrid(-8.0, 10.0, 2001)
    t_prod = trace(TWO_RES, g, Representation.UNITARY_PRODUCT)
    for rep in (Representation.POLES_STATIC, Representation.POLES_DYNAMIC):
        t = trace(TWO_RES, g, rep)
        assert np.max(np.abs(t.sigma - t_prod.sigma)) < 1e-10
        assert t.meta.representation == rep.value


def test_trace_window_model_dips_at_narrow_position():
    m = figure2_model(math.pi / 4)
    tr = trace(m, EnergyGrid(-1.0, 1.5, 1001), Representation.UNITARY_PRODUCT)
    i = int(np.argmin(np.abs(tr.energies)))
    lo, hi = i - 40, i + 41
    j = lo + int(np.argmin(tr.sigma[lo:hi]))
    assert abs(tr.energies[j]) < 0.01


def test_trace_double_pole_rep_takes_single_resonance():
    m = ScatteringModel((Resonance(0.5, 2.0),))
    tr = trace(m, EnergyGrid(-5.0, 6.0, 501), Representation.DOUBLE_POLE)
    assert tr.sigma[np.argmin(np.abs(tr.energies - 0.5))] == pytest.approx(
        0.0, abs=1e-4
    )
    with pytest.raises(ValidationError):
        trace(TWO_RES, EnergyGrid(-1.0, 1.0, 11), Representation.DOUBLE_POLE)


def test_trace_propagates_singularity():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0)))
    with pytest.raises(DoublePoleSingularity):
        trace(m, EnergyGrid(-1.0, 1.0, 11), Representation.POLES_STATIC)


def test_trace_invariants_enforced():
    e = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        CrossSectionTrace(e, np.array([1.0, 2.0]), TraceMeta("x"))
    with pytest.raises(ValidationError):
        CrossSectionTrace(e[::-1].copy(), np.ones(3), TraceMeta("x"))
    with pytest.raises(ValidationError):
        CrossSectionTrace(e, np.array([1.0, -0.5, 0.0]), TraceMeta("x"))


def test_trace_arrays_are_frozen():
    tr = trace(TWO_RES, EnergyGrid(-1.0, 1.0, 11), Representation.UNITARY_PRODUCT)
    with pytest.raises(ValueError):
        tr.sigma[0] = 99.0


def test_contour_shape_and_rows():
    g = EnergyGrid(-1.0, 1.5, 101)
    cg = contour(figure2_model(0.0), g, 0.0, math.pi, 5)
    assert cg.sigma.shape == (5, 101)
    # each row is the product-form trace at that delta
    for d, row in zip(cg.deltas, cg.sigma):
        m = ScatteringModel(figure2_model(0.0).resonances, delta=d)
        ref = trace(m, g, Representation.UNITARY_PRODUCT)
        assert np.max(np.abs(row - ref.sigma)) < 1e-14


def test_contour_periodicity_in_delta():
    g = EnergyGrid(-1.0, 1.5, 201)
    cg = contour(figure2_model(0.0), g, 0.0, math.pi, 9)
    assert np.max(np.abs(cg.sigma[0] - cg.sigma[-1])) < 1e-12


def test_contour_far_column_is_sinusoidal_in_delta():
    g = EnergyGrid(900.0, 1000.0, 3)
    m = figure2_model(0.0)
    cg = contour(m, g, 0.0, math.pi, 37)
    e_far = cg.energies[-1]
    const = sum(resonance_phase(r, e_far) for r in m.resonances)
    expected = 4.0 * np.sin(np.asarray(cg.deltas) + const) ** 2
    assert np.max(np.abs(cg.sigma[:, -1] - expected)) < 1e-12


def test_contour_entries_within_unitarity_bound():
    cg = contour(TWO_RES, EnergyGrid(-5.0, 7.0, 301), 0.0, math.pi, 41)
    assert np.min(cg.sigma) >= 0.0
    assert np.max(cg.sigma) <= 4.0 + 1e-12


def test_contour_grid_validation():
    with pytest.raises(ValidationError):
        ContourGrid(
            np.array([0.0, 1.0]),
            np.array([0.0]),
            np.array([[0.0], [1.0]]),
        )
    with pytest.raises(ValidationError):
        contour(TWO_RES, EnergyGrid(-1.0, 1.0, 5), 0.0, math.pi, 1)


def test_figure1_panels():
    panels = figure1(1.0)
    assert len(panels) == 4
    deltas = [p.delta for p in panels]
    assert deltas == pytest.approx([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    centers = []
    for p in panels:
        i = int(np.argmin(np.abs(p.full.energies)))
        assert abs(p.full.energies[i]) < 1e-12  # grid contains the pole energy
        centers.append(p.full.sigma[i])
    assert centers == pytest.approx([0.0, 2.0, 4.0, 2.0], abs=1e-10)


def test_figure1_dashed_center_doubles():
    panels = figure1(1.0)
    i = int(np.argmin(np.abs(panels[0].dashed.energies)))
    assert panels[0].dashed.sigma[i] == pytest.approx(8.0, abs=1e-10)
    # incoherent sum may exceed the unitary bound
    assert np.max(panels[0].dashed.sigma) > 4.0


def test_figure1_symmetry_of_even_panels():
    for idx in (0, 2):  # delta = 0 and pi/2
        sig = figure1(1.0)[idx].full.sigma
        assert np.max(np.abs(sig - sig[::-1])) < 1e-12


def test_figure1_two_equal_maxima_at_zero_delta():
    full = figure1(1.0)[0].full
    sig = full.sigma
    interior = (sig[1:-1] > sig[:-2]) & (sig[1:-1] > sig[2:])
    peaks = np.flatnonzero(interior) + 1
    assert len(peaks) == 2
    assert sig[peaks[0]] == pytest.approx(sig[peaks[1]], rel=1e-12)
    assert full.energies[peaks[0]] == pytest.approx(-full.energies[peaks[1]], abs=1e-12)


def test_figure1_default_grid_spans_five_widths():
    panels = figure1(2.0)
    assert panels[0].full.energies[0] == pytest.approx(-10.0)
    assert panels[0].full.energies[-1] == pytest.approx(10.0)
    assert len(panels[0].full.energies) == 1001


def test_figure2_delta0_values():
    result = figure2()
    assert result.window.delta0 == pytest.approx(math.pi / 4, abs=1e-15)
    assert result.breit_wigner.delta0 == pytest.approx(3 * math.pi / 4, abs=1e-15)


def _extremum_energy(tr, sign):
    # location of the sharpest local extremum near the narrow resonance
    sig = sign * tr.sigma
    mask = np.abs(tr.energies) <= 0.25
    idx = np.flatnonzero(mask)
    j = idx[int(np.argmax(sig[idx]))]
    return tr.energies[j]


def test_figure2_window_dip_and_bw_peak_at_narrow_position():
    result = figure2()
    assert abs(_extremum_energy(result.window.at_delta0, -1.0)) < 0.01
    assert abs(_extremum_energy(result.breit_wigner.at_delta0, +1.0)) < 0.01


def _asymmetry(tr):
    # signed area difference around E = 0 over one narrow width each side
    e = tr.energies
    s = tr.sigma
    right = s[(e > 0.0) & (e <= 0.1)]
    left = s[(e < 0.0) & (e >= -0.1)]
    n = min(len(left), len(right))
    return float(np.sum(right[:n]) - np.sum(left[::-1][:n]))


def test_figure2_asymmetry_flips_across_delta0():
    result = figure2()
    for variant in (result.window, result.breit_wigner):
        a_minus = _asymmetry(variant.minus)
        a_plus = _asymmetry(variant.plus)
        assert a_minus * a_plus < 0.0
        assert variant.minus.meta.delta == pytest.approx(variant.delta0 - 0.5)
        assert variant.plus.meta.delta == pytest.approx(variant.delta0 + 0.5)


def test_figure2_contour_defaults():
    result = figure2()
    cg = result.contour
    assert cg.sigma.shape == (181, 1001)
    assert cg.deltas[0] == 0.0
    assert cg.deltas[-1] < math.pi  # half-open sweep
    assert cg.energies[0] == pytest.approx(-1.0)
    assert cg.energies[-1] == pytest.approx(1.5)


def test_compare_generic_model():
    report = compare_representations(TWO_RES, EnergyGrid(-8.0, 10.0, 2001))
    assert report["poles_static_applicable"] is True
    assert report["poles_static_note"] is None
    assert set(report["pairs"]) == {
        "product_vs_poles_dynamic",
        "product_vs_poles_static",
        "poles_static_vs_poles_dynamic",
    }
    for stats in report["pairs"].values():
        assert stats["max_abs_dev"] < 1e-10
        assert math.isfinite(stats["argmax_energy"])


def test_compare_near_degenerate_model():
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(1e-10, 1.0)))
    report = compare_representations(m, EnergyGrid(-5.0, 5.0, 1001))
    assert report["poles_static_applicable"] is False
    assert "separation" in report["poles_static_note"]
    assert set(report["pairs"]) == {"product_vs_poles_dynamic"}
    assert report["pairs"]["product_vs_poles_dynamic"]["max_abs_dev"] < 1e-10


def test_compare_widely_separated_model():
    m = ScatteringModel((Resonance(-50.0, 1.0), Resonance(50.0, 2.0)))
    report = compare_representations(m, EnergyGrid(-60.0, 60.0, 2001))
    for stats in report["pairs"].values():
        assert stats["max_abs_dev"] < 1e-12


def test_trace_csv_format(tmp_path):
    tr = trace(TWO_RES, EnergyGrid(-1.0, 1.0, 3), Representation.UNITARY_PRODUCT)
    text = format_trace_csv(tr)
    lines = text.splitlines()
    assert lines[0] == "energy,sigma"
    assert len(lines) == 4
    # 17 significant digits round-trip exactly
    e_back = float(lines[1].split(",")[0])
    assert e_back == tr.energies[0]
    path = tmp_path / "t.csv"
    write_trace_csv(tr, path)
    assert path.read_text() == text


def test_column_writer_matches_line_by_line_format():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1e3, 1e3, 500))
    y = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
    y[:6] = (np.inf, -np.inf, np.nan, -0.0, 5e-324, 0.1)
    lines = ["energy,q"] + ["%.17g,%.17g" % (a, b) for a, b in zip(x, y)]
    assert _format_columns("energy,q", x, y) == "\n".join(lines) + "\n"
    assert _format_columns("energy,q", x[:0], y[:0]) == "energy,q\n"
    # a 2-d block adds one field per block column, as in the contour rows
    block = y[:60].reshape(6, 10)
    rows = ["h"] + [",".join("%.17g" % v for v in (a, *r)) for a, r in zip(x, block)]
    assert _format_columns("h", x[:6], block) == "\n".join(rows) + "\n"


def test_contour_csv_format(tmp_path):
    cg = contour(TWO_RES, EnergyGrid(-1.0, 1.0, 4), 0.0, math.pi, 3)
    text = format_contour_csv(cg)
    lines = text.splitlines()
    assert lines[0].startswith(",")
    assert len(lines) == 4
    assert len(lines[0].split(",")) == 5  # corner + 4 energies
    first_row = lines[1].split(",")
    assert float(first_row[0]) == 0.0
    back = [float(v) for v in first_row[1:]]
    np.testing.assert_array_equal(back, cg.sigma[0])
    path = tmp_path / "c.csv"
    write_contour_csv(cg, path)
    assert path.read_text() == text


def test_figure_outputs_deterministic():
    a = figure2()
    b = figure2()
    assert format_trace_csv(a.window.at_delta0) == format_trace_csv(
        b.window.at_delta0
    )
    assert format_contour_csv(a.contour) == format_contour_csv(b.contour)
