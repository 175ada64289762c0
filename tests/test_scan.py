import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import float_classes, traced_peak

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
    breit_wigner_energy,
    compare_representations,
    contour,
    cross_section,
    figure1,
    figure2,
    figure2_model,
    format_contour_csv,
    format_trace_csv,
    resonance_phase,
    s_unitary_product,
    trace,
    window_energy,
    write_contour_csv,
    write_trace_csv,
)
from fanolap._g17 import _BLOCK_VALUES
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


@pytest.mark.parametrize("rep", ["product", None])
def test_trace_takes_a_representation_not_its_name(rep):
    with pytest.raises(ValidationError) as exc:
        trace(TWO_RES, EnergyGrid(-1.0, 1.0, 11), rep)
    assert str(exc.value) == "unknown representation %r" % (rep,)


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


_NOT_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("where, bad, message", [
    ("sigma", 0.0, None), ("sigma", -0.0, None), ("sigma", 4.0, None),
    ("sigma", -5e-324, "cross sections are non-negative"),
] + [(where, bad, "trace values must be finite")
     for where in ("energies", "sigma") for bad in _NOT_FINITE])
def test_trace_checks_each_value(where, bad, message):
    arrays = {"energies": np.array([0.0, 1.0, 2.0]), "sigma": np.array([1.0, 2.0, 3.0])}
    arrays[where][1] = bad
    if message is None:
        assert CrossSectionTrace(meta=TraceMeta("x"), **arrays).sigma[1] == bad
    else:
        with pytest.raises(ValidationError) as exc:
            CrossSectionTrace(meta=TraceMeta("x"), **arrays)
        assert str(exc.value) == message


@pytest.mark.parametrize("energies, message", [
    ([0.0, math.nan, 2.0], "trace values must be finite"),
    ([0.0, 1.0, math.nan], "trace values must be finite"),
    ([-math.inf, 1.0, 2.0], "trace values must be finite"),
    ([0.0, 1.0, math.inf], "trace values must be finite"),
    ([math.inf, 1.0, 2.0], "trace values must be finite"),
    ([0.0, 1.0, -math.inf], "trace values must be finite"),
    ([-math.inf], "trace values must be finite"),
    ([0.0, 1.0, 1.0], "energies must be strictly increasing"),
    ([0.0, 0.0, 2.0], "energies must be strictly increasing"),
    ([2.0, 1.0, 3.0], "energies must be strictly increasing"),
])
def test_trace_energy_messages(energies, message):
    # the finiteness check reads only the two ends of increasing energies;
    # each input still gets the message it got from a full min and max
    e = np.array(energies)
    with pytest.raises(ValidationError) as exc:
        CrossSectionTrace(e, np.ones(e.size), TraceMeta("x"))
    assert str(exc.value) == message


@pytest.mark.parametrize("where, bad, message", [
    ("sigma", 0.0, None), ("sigma", -0.0, None), ("sigma", 4.0 + 1e-12, None),
    ("sigma", -5e-324, "contour entries must lie in [0, 4]"),
    ("sigma", 4.0 + 2e-12, "contour entries must lie in [0, 4]"),
] + [(where, bad, "contour values must be finite")
     for where in ("energies", "deltas", "sigma") for bad in _NOT_FINITE])
def test_contour_grid_checks_each_value(where, bad, message):
    arrays = {"energies": np.array([0.0, 1.0]), "deltas": np.array([0.0, 1.0, 2.0]),
              "sigma": np.ones((3, 2))}
    arrays[where].flat[1] = bad
    if message is None:
        assert ContourGrid(**arrays).sigma.flat[1] == bad
    else:
        with pytest.raises(ValidationError) as exc:
            ContourGrid(**arrays)
        assert str(exc.value) == message


@pytest.mark.parametrize("n_energies, n_deltas", [(0, 0), (0, 3), (3, 0)])
def test_empty_contour_grid_is_accepted(n_energies, n_deltas):
    cg = ContourGrid(np.zeros(n_energies), np.zeros(n_deltas), np.zeros((n_deltas, n_energies)))
    assert cg.sigma.shape == (n_deltas, n_energies)


def test_results_own_their_arrays_and_callers_keep_theirs():
    e, s = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    d, rows = np.array([0.0, 1.0]), np.ones((2, 3))
    tr = CrossSectionTrace(e, s, TraceMeta("x"))
    cg = ContourGrid(e, d, rows)
    for a in (e, s, d, rows):
        assert a.flags.writeable
        a[...] = 2.5
    assert tr.energies.tolist() == [0.0, 1.0, 2.0] and tr.sigma.tolist() == [1.0, 2.0, 3.0]
    assert cg.energies.tolist() == [0.0, 1.0, 2.0] and cg.deltas.tolist() == [0.0, 1.0]
    assert np.all(cg.sigma == 1.0)
    # trace and contour hand over arrays of their own, frozen without a copy
    g = EnergyGrid(-1.0, 1.0, 20001)
    tr = trace(TWO_RES, g, Representation.UNITARY_PRODUCT)
    cg = contour(TWO_RES, g, 0.0, 1.0, 2)
    for a in (tr.energies, tr.sigma, cg.energies, cg.deltas, cg.sigma):
        assert not a.flags.writeable


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


@pytest.mark.parametrize("lo, hi", [(1e299, 5e300), (-8e307, 8e307), (-1e301, -1e300)])
def test_contour_rows_are_the_product_trace_bit_for_bit_past_the_clip(lo, hi):
    # contour goes through the product form's kernel, energy clip included:
    # past +-1e300 its unclipped factors once gave sigma 4.9e-32 where the
    # product form gives 0
    g = EnergyGrid(lo, hi, 7)
    for m in (TWO_RES, figure2_model(0.3)):
        cg = contour(m, g, 0.0, math.pi, 5)
        for d, row in zip(cg.deltas, cg.sigma):
            ref = trace(ScatteringModel(m.resonances, d), g, Representation.UNITARY_PRODUCT)
            assert row.tobytes() == ref.sigma.tobytes()


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
    for n_delta in (2.9, True):
        with pytest.raises(ValidationError, match="n_delta must be an integer"):
            contour(TWO_RES, EnergyGrid(-1.0, 1.0, 5), 0.0, math.pi, n_delta)
    with pytest.raises(ValidationError) as exc:
        contour(TWO_RES, EnergyGrid(-1.0, 1.0, 5), 1.0, 0.5, 3)
    assert str(exc.value) == "delta_min must be < delta_max, got 1.0 >= 0.5"
    with pytest.raises(ValidationError) as exc:
        contour(TWO_RES, EnergyGrid(-1.0, 1.0, 5), -1e308, 1e308, 3)
    assert str(exc.value) == "delta_max - delta_min overflows, got 1e+308 - -1e+308"


@pytest.mark.parametrize("n_res", [2, 12])
@pytest.mark.parametrize("endpoint", [True, False])
def test_contour_rows_bitwise_equal_product_form(n_res, endpoint):
    rng = np.random.default_rng(n_res)
    m = ScatteringModel(
        tuple(Resonance(p, w) for p, w in zip(rng.uniform(-4.0, 4.0, n_res),
                                              rng.uniform(0.1, 3.0, n_res)))
    )
    g = EnergyGrid(-6.0, 6.0, 257)
    cg = contour(m, g, -2.0, 2.5, 23, endpoint=endpoint)
    for d, row in zip(cg.deltas, cg.sigma):
        swept = ScatteringModel(m.resonances, float(d))
        ref = cross_section(s_unitary_product(swept, g.points()))
        assert row.tobytes() == ref.tobytes()


def test_contour_rows_match_product_form_on_wide_grids():
    rng = np.random.default_rng(7)
    m = ScatteringModel(
        tuple(Resonance(p, w) for p, w in zip(rng.uniform(-4.0, 4.0, 12),
                                              rng.uniform(0.1, 3.0, 12)))
    )
    g = EnergyGrid(-6.0, 6.0, 20001)
    cg = contour(m, g, 0.0, math.pi, 3)
    for d, row in zip(cg.deltas, cg.sigma):
        ref = cross_section(s_unitary_product(ScatteringModel(m.resonances, d), g.points()))
        assert row.tobytes() == ref.tobytes()


def test_figure1_panels():
    panels = figure1(1.0)
    assert len(panels) == 4
    deltas = [p.delta for p in panels]
    assert deltas == pytest.approx([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    centers = []
    for p in panels:
        # the full curve is the double-pole trace of the one-resonance pole
        assert p.full.meta.model == ScatteringModel((Resonance(0.0, 1.0),), p.delta)
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


def test_figure2_phases_put_the_landmarks_on_the_narrow_resonance():
    # figure2 derives its two phases by hand; fano's landmark formulas, the
    # inverse condition, must place q~'s zero and pole back at the narrow
    # resonance (position 0) to rounding, in units of the broad width G_2 = 1
    result = figure2(EnergyGrid(-1.0, 1.5, 11), 3)
    g2 = figure2_model(0.0).resonances[1].width
    for landmark, variant in ((window_energy, result.window),
                              (breit_wigner_energy, result.breit_wigner)):
        assert abs(landmark(figure2_model(variant.delta0))) <= 4 * 2.0 ** -52 * g2


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


@pytest.mark.parametrize("evaluate, bound", [
    # the grid, sigma and one block's temporaries (21.3 bytes per point)
    (lambda g: trace(TWO_RES, g, Representation.UNITARY_PRODUCT), 23.0),
    (lambda g: compare_representations(TWO_RES, g), 48.0),
    # S and sigma, one block of 1 - S at a time (29.9 bytes per point)
    (lambda g: cross_section(s_unitary_product(TWO_RES, g.points())), 31.0),
], ids=["trace", "compare_representations", "cross_section"])
def test_grid_evaluation_peak_memory(evaluate, bound):
    # traced peak bytes per point: the grid, the result arrays and one
    # block's temporaries, with no further grid-sized array
    n = 200000
    assert traced_peak(lambda: evaluate(EnergyGrid(-8.0, 10.0, n))) / n <= bound


# traced peak bytes per energy, or per cell, against their bound
@pytest.mark.parametrize("n, rows, units, bound", [
    # the factors of the whole grid would take 192 bytes per energy; only
    # those of one block of at most 16384 energies are held (49.9 measured)
    (200000, 3, 200000, 55.0),
    # the benchmark's grid: the rows, which ContourGrid takes without a
    # copy, and one row block's temporaries (9.5 bytes per cell measured)
    (2001, 361, 2001 * 361, 11.0),
], ids=["wide", "grid_sweep"])
def test_wide_contour_peak_memory(n, rows, units, bound):
    m = ScatteringModel(tuple(Resonance(p, 0.5 + 0.1 * k)
                              for k, p in enumerate(np.linspace(-6.0, 6.0, 12))), 0.4)
    peak = traced_peak(lambda: contour(m, EnergyGrid(-8.0, 10.0, n), -1.0, 1.0, rows))
    assert peak / units <= bound


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
    # row counts around the formatting block size, for 2 and for 7 fields a row
    for ncols in (2, 7):
        step = _BLOCK_VALUES // ncols
        for n in (step - 1, step, step + 1):
            x = rng.uniform(-1.0, 1.0, n)
            block = rng.standard_normal((n, ncols - 1)) * 10.0 ** rng.integers(-30, 30, n)[:, None]
            columns = (x, block[:, 0]) if ncols == 2 else (x, block)
            rows = ["h"] + [",".join("%.17g" % v for v in (a, *r)) for a, r in zip(x, block)]
            assert _format_columns("h", *columns) == "\n".join(rows) + "\n"


def _percent_rows(block):
    """The reference: one Python '%.17g' per value."""
    line = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (line * len(block)) % tuple(block.ravel().tolist())


def test_column_writer_matches_percent_on_every_class_of_double():
    rng = np.random.default_rng(11)
    v = float_classes(rng.random(1_450_000))
    assert v.size >= 1_000_000
    a = np.abs(v)
    # values outside the fixed-notation fast path, in blocks of nothing else
    only_slow = v[~((a >= 1e-4) & (a < 1e15))]
    assert only_slow.size > 4 * _BLOCK_VALUES
    # in class order, shuffled so every block mixes both kinds, only slow
    for values, width in ((v, 2), (rng.permutation(v)[:300_000], 7), (only_slow, 3)):
        block = values[: values.size // width * width].reshape(-1, width)
        columns = (block[:, 0], block[:, 1]) if width == 2 else (block[:, 0], block[:, 1:])
        assert _format_columns("h", *columns) == "h\n" + _percent_rows(block)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 4))
def test_column_writer_matches_percent_on_any_doubles(values, width):
    block = np.array(values * width).reshape(len(values), width)
    assert _format_columns("h", block) == "h\n" + _percent_rows(block)


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


def test_library_writers_create_parents_and_replace_atomically(tmp_path):
    tr = trace(TWO_RES, EnergyGrid(-1.0, 1.0, 3), Representation.UNITARY_PRODUCT)
    path = tmp_path / "new" / "dir" / "t.csv"
    write_trace_csv(tr, str(path))
    assert path.read_text() == format_trace_csv(tr)
    # a path that is a directory fails before anything is staged
    with pytest.raises(IsADirectoryError):
        write_trace_csv(tr, path.parent)
    assert sorted(p.name for p in path.parent.iterdir()) == ["t.csv"]
    cg = contour(TWO_RES, EnergyGrid(-1.0, 1.0, 4), 0.0, math.pi, 3)
    write_contour_csv(cg, path)
    assert path.read_text() == format_contour_csv(cg)
    assert sorted(p.name for p in path.parent.iterdir()) == ["t.csv"]


def test_figure_outputs_deterministic():
    a = figure2()
    b = figure2()
    assert format_trace_csv(a.window.at_delta0) == format_trace_csv(
        b.window.at_delta0
    )
    assert format_contour_csv(a.contour) == format_contour_csv(b.contour)
