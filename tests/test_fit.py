import csv
import json
import math

import numpy as np
import pytest

from conftest import lcg_noise

from fanolap import (
    BadInitialGuess,
    FanoProfileModel,
    InsufficientData,
    Representation,
    ValidationError,
    figure2_model,
    fit_fano,
    fit_result_to_dict,
    format_fit_json,
    initial_guess,
    predict,
    read_trace_csv,
    trace,
)
from fanolap.cli import run
from fanolap.fit import _jacobian_internal, _lines, _pack, _profile_internal
from fanolap.model import EnergyGrid
from fanolap.scan import CrossSectionTrace, TraceMeta, format_trace_csv


def synth(p, e_span=5.0, n=201, noise_seed=None, noise_amp=0.0):
    e = np.linspace(p.e0 - e_span, p.e0 + e_span, n)
    y = predict(p, e)
    if noise_seed is not None:
        y = y + noise_amp * np.max(np.abs(y)) * lcg_noise(noise_seed, n)
    return CrossSectionTrace(e, y, TraceMeta("synthetic"))


def test_predict_window_dip_center():
    p = FanoProfileModel(0.0, 0.0, 1.0, 1.0, 0.0)
    assert predict(p, 0.0) == 0.0


def test_predict_simple_value():
    # eps = 1 at E = 0.5, (1 + 1)^2/2 = 2
    p = FanoProfileModel(1.0, 0.0, 1.0, 1.0, 0.0)
    assert predict(p, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_predict_breit_wigner_rescaling():
    # q -> inf with a*q^2 = 4 pinned: unit-height symmetric peak
    p = FanoProfileModel(1e3, 0.0, 1.0, 4e-6, 0.0)
    assert predict(p, 0.0) == pytest.approx(4.0, abs=1e-12)
    assert predict(p, 0.5) == pytest.approx(predict(p, -0.5), rel=1e-2)


def test_predict_array():
    p = FanoProfileModel(2.0, 0.5, 1.5, 0.7, 0.1)
    e = np.linspace(-3, 3, 11)
    y = predict(p, e)
    assert y.shape == (11,)
    assert y[3] == predict(p, float(e[3]))


def test_profile_model_validation():
    with pytest.raises(ValidationError):
        FanoProfileModel(1.0, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        FanoProfileModel(math.nan, 0.0, 1.0, 1.0, 0.0)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(42)
    step = 1e-6
    e = np.linspace(-4.0, 6.0, 37)
    for _ in range(100):
        p = FanoProfileModel(
            rng.uniform(-8, 8),
            rng.uniform(-1, 1),
            rng.uniform(0.5, 2.5),
            rng.uniform(0.3, 3.0),
            rng.uniform(-0.5, 0.5),
        )
        x = _pack(p)
        jac = _jacobian_internal(x, e)
        for j in range(5):
            xp = x.copy()
            xm = x.copy()
            xp[j] += step
            xm[j] -= step
            fd = (_profile_internal(xp, e) - _profile_internal(xm, e)) / (2 * step)
            scale = np.maximum(1.0, np.abs(jac[:, j]))
            assert np.max(np.abs(jac[:, j] - fd) / scale) < 1e-5


def _reference_jacobian(vec, e):
    """The closed-form columns, written out one array per derivative."""
    q, e0, u, a, b = vec
    gamma = math.exp(u)
    eps = 2.0 * (e - e0) / gamma
    denom = eps * eps + 1.0
    qe = q + eps
    dfdq = 2.0 * a * qe / denom
    dfdeps = 2.0 * a * qe * (1.0 - q * eps) / (denom * denom)
    dfde0 = dfdeps * (-2.0 / gamma)
    dfdu = dfdeps * (-eps)
    dfda = qe * qe / denom
    dfdb = np.ones_like(e)
    return np.column_stack([dfdq, dfde0, dfdu, dfda, dfdb])


def _same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "p",
    [
        FanoProfileModel(2.0, 0.0, 1.0, 1.0, 0.1),
        FanoProfileModel(-3.7, 0.25, 0.013, 2.5, 0.0),
        FanoProfileModel(0.0, -1.5, 40.0, 0.2, 3.0),
        FanoProfileModel(1e3, 0.0, 1.0, 4e-6, 0.0),
        FanoProfileModel(-0.4, 7.0, 2.0, 1e-9, -0.5),
    ],
)
def test_jacobian_bitwise_equals_closed_form_columns(p):
    e = np.linspace(-10.0, 12.0, 1001)
    x = _pack(p)
    jac = _jacobian_internal(x, e)
    assert jac.flags.c_contiguous
    assert _same_bits(jac, _reference_jacobian(x, e))


def _reference_initial_guess(trace):
    """initial_guess with the half-width crossings found by scanning outward
    from e0 point by point."""
    e = trace.energies
    y = trace.sigma
    offset = float(np.median(y))
    dev = y - offset
    i0 = int(np.argmax(np.abs(dev)))
    e0 = float(e[i0])
    peak = float(dev[i0])
    span = float(e[-1] - e[0])
    step = span / (e.size - 1)
    if abs(peak) <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        return FanoProfileModel(0.0, e0, span / 10.0, 0.0, offset)
    half = 0.5 * abs(peak)
    left = None
    for i in range(i0 - 1, -1, -1):
        if abs(dev[i]) < half:
            left = float(e[i])
            break
    right = None
    for i in range(i0 + 1, e.size):
        if abs(dev[i]) < half:
            right = float(e[i])
            break
    if left is not None and right is not None:
        gamma = right - left
    elif left is not None:
        gamma = 2.0 * (e0 - left)
    elif right is not None:
        gamma = 2.0 * (right - e0)
    else:
        gamma = span / 10.0
    gamma = max(gamma, step)
    window = 2.0 * gamma
    reach = min(e0 - float(e[0]), float(e[-1]) - e0)
    if reach > step:
        window = min(window, reach)
    right_sum = float(np.sum(dev[(e > e0) & (e <= e0 + window)]))
    left_sum = float(np.sum(dev[(e < e0) & (e >= e0 - window)]))
    if peak < 0.0:
        return FanoProfileModel(0.0, e0, gamma, -peak, offset + peak)
    sign = 1.0 if right_sum - left_sum >= 0.0 else -1.0
    amplitude = peak / 3.0
    return FanoProfileModel(2.0 * sign, e0, gamma, amplitude, offset - amplitude)


def _initial_guess_cases():
    rng = np.random.default_rng(11)
    cases = []
    for i in range(12):
        n = int(rng.integers(5, 400))
        e = np.sort(rng.uniform(-5.0, 5.0, n))
        cases.append(("random%d" % i, e, rng.uniform(0.0, 3.0, n)))
    for i in range(6):
        p = FanoProfileModel(
            rng.uniform(-5, 5), rng.uniform(-1, 1), rng.uniform(0.05, 2.0),
            rng.uniform(0.5, 3.0), rng.uniform(0.0, 1.0),
        )
        tr = synth(p, e_span=6.0, n=301, noise_seed=i, noise_amp=0.02)
        cases.append(("fano%d" % i, tr.energies, tr.sigma))
    e = np.linspace(-4.0, 4.0, 201)
    for i, (e0, width) in enumerate(((0.0, 1.0), (0.3, 0.05), (-3.9, 0.5))):
        p = FanoProfileModel(0.0, e0, width, 2.0, 2.5)
        cases.append(("dip%d" % i, e, predict(p, e)))
    # the extremum at an edge leaves no half-crossing on that side
    cases.append(("no_left", e, np.exp(-(e + 4.0))))
    cases.append(("no_right", e, np.exp(e - 4.0)))
    # a broad bump that never falls below half on either side
    cases.append(("no_side", e, 3.0 - 0.01 * e * e))
    cases.append(("flat", e, np.full(e.size, 1.7)))
    # deviations landing exactly on half the peak do not count as crossings
    grid = np.linspace(-4.0, 4.0, 9)
    cases.append(("on_half", grid, np.array([0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0])))
    return cases


@pytest.mark.parametrize(
    "name,e,y", _initial_guess_cases(), ids=[c[0] for c in _initial_guess_cases()]
)
def test_initial_guess_matches_pointwise_scan(name, e, y):
    tr = CrossSectionTrace(e, y, TraceMeta(name))
    assert initial_guess(tr) == _reference_initial_guess(tr)


def test_initial_guess_needs_five_points():
    e = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(InsufficientData):
        initial_guess(CrossSectionTrace(e, np.ones(4), TraceMeta("x")))


def test_initial_guess_e0_within_one_step():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = FanoProfileModel(
            rng.uniform(-5, 5),
            rng.uniform(-1, 1),
            rng.uniform(0.5, 2.0),
            rng.uniform(0.5, 3.0),
            rng.uniform(0.0, 1.0),
        )
        tr = synth(p, e_span=6.0, n=241)
        step = tr.energies[1] - tr.energies[0]
        g = initial_guess(tr)
        # the deviation extremum sits within |q|*gamma/2 of e0 for a Fano
        # shape; demand the guess lands inside the structure
        assert abs(g.e0 - p.e0) <= max(step, abs(p.q) * p.gamma / 2 + step)


def test_initial_guess_pure_dip_gives_q_zero():
    p = FanoProfileModel(0.0, 0.3, 1.0, 2.0, 2.5)
    g = initial_guess(synth(p))
    assert abs(g.q) < 0.5


def test_initial_guess_constant_trace_flagged_by_zero_amplitude():
    e = np.linspace(-5, 5, 51)
    g = initial_guess(CrossSectionTrace(e, np.full(51, 1.7), TraceMeta("flat")))
    assert g.amplitude == 0.0
    assert g.offset == pytest.approx(1.7)


def test_fit_frozen_round_trip():
    truth = FanoProfileModel(2.0, 0.0, 1.0, 1.0, 0.1)
    res = fit_fano(synth(truth, e_span=5.0, n=201))
    assert res.converged
    assert res.residual_norm < 1e-8
    for name in ("q", "e0", "gamma", "amplitude", "offset"):
        got = getattr(res.model, name)
        want = getattr(truth, name)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9), name


def test_fit_uses_supplied_guess():
    truth = FanoProfileModel(-1.5, 0.2, 0.8, 1.2, 0.3)
    guess = FanoProfileModel(-1.0, 0.0, 1.0, 1.0, 0.2)
    res = fit_fano(synth(truth), guess=guess)
    assert res.converged
    assert res.model.q == pytest.approx(-1.5, rel=1e-6)


def test_fit_noisy_q_within_five_percent():
    truth = FanoProfileModel(2.0, 0.0, 1.0, 1.0, 2.0)
    tr = synth(truth, noise_seed=1234, noise_amp=0.01)
    res = fit_fano(tr)
    assert abs(res.model.q - truth.q) / abs(truth.q) < 0.05


def test_fit_round_trips_across_parameter_space():
    rng = np.random.default_rng(20260814)
    for _ in range(25):
        q = rng.uniform(0.1, 10.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        truth = FanoProfileModel(
            q,
            rng.uniform(-2, 2),
            rng.uniform(0.3, 3.0),
            rng.uniform(0.2, 5.0),
            rng.uniform(0.1, 1.0),
        )
        tr = synth(truth, e_span=10.0 * truth.gamma, n=301)
        res = fit_fano(tr)
        assert res.residual_norm < 1e-8
        for name in ("q", "e0", "gamma", "amplitude", "offset"):
            got = getattr(res.model, name)
            want = getattr(truth, name)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8), name


def test_fit_accepted_iterates_monotone():
    # running the solver with every max_iter prefix replays the same
    # deterministic path, so the best cost so far must be non-increasing
    truth = FanoProfileModel(3.0, 0.4, 0.7, 1.5, 0.6)
    guess = FanoProfileModel(1.0, -0.5, 2.0, 0.5, 0.0)
    tr = synth(truth)
    norms = [
        fit_fano(tr, guess=guess, max_iter=i).residual_norm for i in range(1, 12)
    ]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-15


def test_fit_shift_invariance():
    truth = FanoProfileModel(1.3, 0.0, 1.1, 0.9, 0.4)
    tr = synth(truth)
    shift = 17.25
    tr2 = CrossSectionTrace(tr.energies + shift, tr.sigma, TraceMeta("shifted"))
    r1 = fit_fano(tr)
    r2 = fit_fano(tr2)
    assert r2.model.e0 - r1.model.e0 == pytest.approx(shift, abs=1e-9)
    for name in ("q", "gamma", "amplitude", "offset"):
        assert getattr(r2.model, name) == pytest.approx(
            getattr(r1.model, name), abs=1e-9, rel=1e-9
        )


def test_fit_windowed_narrow_resonance_is_breit_wigner_like():
    # narrow state under the symmetric-peak condition: fitted profile is a
    # symmetric peak (large |q|) centered on the narrow position
    m = figure2_model(3 * math.pi / 4)
    tr_full = trace(m, EnergyGrid(-1.0, 1.5, 1001), Representation.UNITARY_PRODUCT)
    mask = np.abs(tr_full.energies) <= 0.3  # three narrow widths
    tr = CrossSectionTrace(
        tr_full.energies[mask], tr_full.sigma[mask], TraceMeta("windowed")
    )
    res = fit_fano(tr)
    assert abs(res.model.e0) < 0.01
    assert abs(res.model.q) > 5.0


def test_fit_insufficient_data():
    e = np.linspace(0, 1, 5)
    with pytest.raises(InsufficientData):
        fit_fano(CrossSectionTrace(e, np.ones(5), TraceMeta("tiny")))


def test_fit_bad_initial_guess():
    truth = FanoProfileModel(2.0, 0.0, 1.0, 1.0, 0.1)
    absurd = FanoProfileModel(1e200, 0.0, 1.0, 1e200, 0.0)
    with pytest.raises(BadInitialGuess):
        fit_fano(synth(truth), guess=absurd)


def test_fit_gamma_stays_positive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        truth = FanoProfileModel(
            rng.uniform(-4, 4), 0.0, rng.uniform(0.2, 0.6), 1.0, 0.2
        )
        res = fit_fano(synth(truth, e_span=8.0))
        assert res.model.gamma > 0.0


def test_fit_uncertainties_shape_and_scale():
    truth = FanoProfileModel(2.0, 0.0, 1.0, 1.0, 2.0)
    res = fit_fano(synth(truth, noise_seed=99, noise_amp=0.01))
    unc = res.parameter_uncertainties
    assert len(unc) == 5
    assert all(u >= 0.0 and math.isfinite(u) for u in unc)
    # 1% noise cannot produce percent-exact parameters with zero spread
    assert unc[0] > 0.0
    # and the quoted q uncertainty should cover the actual miss
    assert abs(res.model.q - truth.q) < 10.0 * unc[0] + 1e-3


def test_trace_csv_round_trip(tmp_path):
    truth = FanoProfileModel(1.0, 0.2, 0.9, 1.1, 0.3)
    tr = synth(truth, n=41)
    path = tmp_path / "trace.csv"
    path.write_text(format_trace_csv(tr))
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back.energies, tr.energies)
    np.testing.assert_array_equal(back.sigma, tr.sigma)


def test_read_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("e,s\n0,1\n")
    with pytest.raises(ValidationError) as exc:
        read_trace_csv(path)
    assert "header" in str(exc.value)


def test_read_trace_csv_rejects_bad_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("energy,sigma\n0.0,1.0\n0.5,oops\n")
    with pytest.raises(ValidationError) as exc:
        read_trace_csv(path)
    assert "line 3" in str(exc.value)


def test_read_trace_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_trace_csv(tmp_path / "absent.csv")


def _reference_read(text):
    """The dialect spelled out with the csv module and float(), one row at
    a time."""
    rows = list(csv.reader(text.splitlines()))
    assert [c.strip() for c in rows[0]] == ["energy", "sigma"]
    pairs = [[float(v) for v in row] for row in rows[1:] if row]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


_ACCEPTED = {
    "crlf": "energy,sigma\r\n0,1\r\n0.5,2.25\r\n1e0,3\r\n",
    "lone_cr": "energy,sigma\r0,1\r0.5,2.25\r",
    "blank_lines": "energy,sigma\n\n0,1\n\n\n0.5,2.25\n\n",
    "whitespace": "  energy , sigma\n 0 ,\t1 \n0.5\t, 2.25\n",
    "quoted": '"energy","sigma"\n"0","1"\n"0.5",2.25\n" 1 " ,"4"\n',
    "no_final_newline": "energy,sigma\n0,1\n0.5,2.25",
    "signs_and_exponents": "energy,sigma\n-1.5E+2,+.5\n-0.,1e-310\n3,0\n",
}


@pytest.mark.parametrize("name", sorted(_ACCEPTED))
def test_read_trace_csv_accepted_dialect(tmp_path, name):
    text = _ACCEPTED[name]
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode("utf-8"))
    tr = read_trace_csv(path)
    energies, sigma = _reference_read(text)
    assert _same_bits(tr.energies, energies)
    assert _same_bits(tr.sigma, sigma)


# (file body, line the message must name; None when no line is at fault)
_REJECTED = {
    "comment_line": ("energy,sigma\n0,1\n# note\n0.5,2\n", 3),
    "trailing_comment": ("energy,sigma\n0,1\n0.5,2 # note\n", 3),
    "one_column": ("energy,sigma\n0,1\n0.5\n", 3),
    "three_columns": ("energy,sigma\n0,1,2\n0.5,2,3\n", 2),
    "column_count_changes": ("energy,sigma\n0,1\n0.5,2\n1,2,3\n", 4),
    "whitespace_only_line": ("energy,sigma\n0,1\n  \n0.5,2\n", 3),
    "non_number": ("energy,sigma\n0,1\n0.5,oops\n", 3),
    "empty_field": ("energy,sigma\n0,1\n0.5,\n", 3),
    "digit_separator": ("energy,sigma\n0,1\n1_000,2\n", 3),
    "non_ascii_digit": ("energy,sigma\n0,1\n\u0661,2\n", 3),
    "information_separator": ("energy,sigma\n0,1\n0.5,2\x1c\n", 3),
    "header_only": ("energy,sigma\n", None),
    "header_only_no_newline": ("energy,sigma", None),
    "blank_body": ("energy,sigma\n\n\n", None),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_read_trace_csv_rejected_dialect(tmp_path, name):
    text, line = _REJECTED[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValidationError) as exc:
        read_trace_csv(path)
    msg = str(exc.value)
    assert msg.startswith("trace file %s" % path)
    if line is not None:
        assert "line %d:" % line in msg


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_cli_fit_rejected_dialect_one_line_diagnostic(tmp_path, capsys, name):
    path = tmp_path / "bad.csv"
    path.write_bytes(_REJECTED[name][0].encode("utf-8"))
    out = tmp_path / "fit.json"
    assert run(["fit", "--data", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n", "a", "a\n", "ab\ncd", "ab\n\ncd\n", "\n\na\nbc\n\n"])
def test_lines_is_split_at_every_chunk_size(text):
    for chunk in range(1, len(text) + 3):
        assert list(_lines(text, chunk)) == text.split("\n")


def test_read_trace_csv_names_late_bad_line(tmp_path):
    lines = ["energy,sigma"] + ["%d,1" % i for i in range(10000)] + ["10000,1,2"]
    path = tmp_path / "late.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as exc:
        read_trace_csv(path)
    assert "line 10002: expected 2 columns" in str(exc.value)


def test_read_trace_csv_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"energy,sigma\n0,1\n0.5,\xff\n")
    with pytest.raises(ValidationError):
        read_trace_csv(path)


def test_read_trace_csv_bitwise_equals_float(tmp_path):
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 0x7FF0000000000000, 4000, dtype=np.int64)
    vals = bits.view(np.float64)  # every finite non-negative double is reachable
    energies = np.unique(np.concatenate([vals, -vals]))[:3000]
    sigma = rng.permutation(vals)[: energies.size]
    sigma[:4] = (5e-324, 2.2250738585072011e-308, 1.7976931348623157e308, 0.0)
    lines = ["energy,sigma"]
    for i, (a, b) in enumerate(zip(energies.tolist(), sigma.tolist())):
        lines.append("%.17g,%r" % (a, b) if i % 2 else "%r,%.17g" % (a, b))
    text = "\n".join(lines) + "\n"
    path = tmp_path / "bits.csv"
    path.write_text(text)
    tr = read_trace_csv(path)
    ref_e, ref_s = _reference_read(text)
    assert _same_bits(tr.energies, ref_e) and _same_bits(tr.energies, energies)
    assert _same_bits(tr.sigma, ref_s) and _same_bits(tr.sigma, sigma)


def test_fit_result_serialization():
    truth = FanoProfileModel(2.0, 0.0, 1.0, 1.0, 0.1)
    res = fit_fano(synth(truth))
    d = fit_result_to_dict(res)
    assert set(d) == {
        "model",
        "residual_norm",
        "iterations",
        "converged",
        "parameter_uncertainties",
    }
    assert set(d["model"]) == {"q", "e0", "gamma", "amplitude", "offset"}
    parsed = json.loads(format_fit_json(res))
    assert parsed["converged"] is True
