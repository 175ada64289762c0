import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fanolap
from fanolap import (
    CrossSectionTrace,
    EnergyGrid,
    FanoProfileModel,
    Resonance,
    ScatteringModel,
    TraceMeta,
    fano_q_dynamic,
    format_trace_csv,
    predict,
    save_model,
    write_trace_csv,
)
from fanolap.cli import _build_parser, run
from fanolap.scan import _format_columns

TWO_RES = ScatteringModel((Resonance(0.0, 1.0), Resonance(1.0, 3.0)))


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(TWO_RES, path)
    return str(path)


def test_trace_subcommand(tmp_path, model_file):
    out = tmp_path / "trace.csv"
    code = run(
        [
            "trace",
            "--model",
            model_file,
            "--emin",
            "-5",
            "--emax",
            "5",
            "--n",
            "101",
            "--repr",
            "product",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "energy,sigma"
    assert len(lines) == 102


def test_trace_rerun_byte_identical(tmp_path, model_file):
    out = tmp_path / "trace.csv"
    argv = [
        "trace", "--model", model_file,
        "--emin", "-5", "--emax", "5", "--n", "51",
        "--out", str(out),
    ]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_trace_all_representations(tmp_path, model_file):
    ref = None
    for rep in ("product", "poles-static", "poles-dynamic"):
        out = tmp_path / (rep + ".csv")
        code = run(
            [
                "trace", "--model", model_file,
                "--emin", "-5", "--emax", "5", "--n", "21",
                "--repr", rep, "--out", str(out),
            ]
        )
        assert code == 0
        sig = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        if ref is None:
            ref = sig
        else:
            assert sig == pytest.approx(ref, abs=1e-10)


def test_trace_degenerate_static_fails_cleanly(tmp_path, capsys):
    # a coincident pair, alone or beside a third resonance at nonzero delta,
    # makes the static residues diverge: exit 1, one line, no output file
    pair = (Resonance(0.0, 1.0), Resonance(0.0, 1.0))
    for i, m in enumerate((ScatteringModel(pair),
                           ScatteringModel((Resonance(2.0, 0.5),) + pair, 0.7))):
        path = tmp_path / ("deg%d.json" % i)
        save_model(m, path)
        out = tmp_path / ("x%d.csv" % i)
        code = run(
            [
                "trace", "--model", str(path),
                "--emin", "-1", "--emax", "1", "--n", "11",
                "--repr", "poles-static", "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("DoublePoleSingularity: "), err
        assert not out.exists()


def test_qscan_serializes_infinities(tmp_path):
    # a lone resonance with zero background phase has q = -inf everywhere
    m = ScatteringModel((Resonance(0.0, 1.0),))
    path = tmp_path / "one.json"
    save_model(m, path)
    out = tmp_path / "q.csv"
    code = run(
        [
            "qscan", "--model", str(path), "--k", "0",
            "--emin", "-1", "--emax", "1", "--n", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "energy,q"
    assert all(l.split(",")[1] in ("inf", "-inf") for l in lines[1:])


def test_qscan_regular_values(tmp_path, model_file):
    out = tmp_path / "q.csv"
    code = run(
        [
            "qscan", "--model", model_file,
            "--emin", "-2", "--emax", "2", "--n", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    vals = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
    assert all(math.isfinite(v) for v in vals)


def test_qscan_output_is_the_shared_column_writer(tmp_path, model_file):
    out = tmp_path / "q.csv"
    code = run(
        [
            "qscan", "--model", model_file, "--k", "1",
            "--emin", "-3", "--emax", "4", "--n", "257",
            "--out", str(out),
        ]
    )
    assert code == 0
    e = EnergyGrid(-3.0, 4.0, 257).points()
    expected = _format_columns("energy,q", e, fano_q_dynamic(TWO_RES, 1, e))
    assert out.read_bytes() == expected.encode("utf-8")


def test_qscan_bad_index(tmp_path, model_file, capsys):
    out = tmp_path / "q.csv"
    code = run(
        [
            "qscan", "--model", model_file, "--k", "7",
            "--emin", "-2", "--emax", "2", "--n", "9",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "ValidationError: k must be < 2, got 7\n"
    assert not out.exists()


def test_params_subcommand(tmp_path, model_file):
    out = tmp_path / "params.json"
    assert run(["params", "--model", model_file, "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["static"]["q"] == pytest.approx(1.0)
    assert body["static"]["sigma_b"] == pytest.approx(2.0)
    assert body["complex_error"] is None
    assert body["complex"]["q1"]["im"] == pytest.approx(math.sqrt(2.0 / 3.0))


def test_params_negative_ak_is_data_not_crash(tmp_path):
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(5.0, 1.2)))
    path = tmp_path / "sep.json"
    save_model(m, path)
    out = tmp_path / "params.json"
    assert run(["params", "--model", str(path), "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["complex"] is None
    assert body["complex_error"]["type"] == "NegativeAkError"
    assert min(body["complex_error"]["a1"], body["complex_error"]["a2"]) < 0.0


def test_params_equal_widths_diagnostic(tmp_path, capsys):
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(1.0, 1.0)))
    path = tmp_path / "eq.json"
    save_model(m, path)
    out = tmp_path / "params.json"
    code = run(["params", "--model", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "EqualWidthsSingularity" in err
    assert err.count("\n") == 1  # single-line diagnostic
    assert not out.exists()


def test_contour_subcommand(tmp_path, model_file):
    out = tmp_path / "contour.csv"
    code = run(
        [
            "contour", "--model", model_file,
            "--emin", "-1", "--emax", "1", "--n", "11",
            "--delta-min", "0", "--delta-max", str(math.pi), "--ndelta", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith(",")
    assert len(lines[1].split(",")) == 12


def test_fig1_emits_eight_files(tmp_path):
    outdir = tmp_path / "fig1"
    assert run(["fig1", "--gamma", "1", "--out", str(outdir)]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "fig1a_dashed.csv", "fig1a_full.csv",
        "fig1b_dashed.csv", "fig1b_full.csv",
        "fig1c_dashed.csv", "fig1c_full.csv",
        "fig1d_dashed.csv", "fig1d_full.csv",
    ]


def test_fig1_respects_custom_grid(tmp_path):
    outdir = tmp_path / "fig1"
    code = run(
        [
            "fig1", "--gamma", "1",
            "--emin", "-2", "--emax", "2", "--n", "41",
            "--out", str(outdir),
        ]
    )
    assert code == 0
    lines = (outdir / "fig1a_full.csv").read_text().splitlines()
    assert len(lines) == 42


def test_fig1_grid_flags_all_or_none(tmp_path, capsys):
    code = run(["fig1", "--gamma", "1", "--emin", "-2", "--out", str(tmp_path)])
    assert code == 1
    assert "together" in capsys.readouterr().err


def test_fig2_emits_seven_files(tmp_path):
    outdir = tmp_path / "fig2"
    assert run(["fig2", "--ndelta", "13", "--out", str(outdir)]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "fig2_contour.csv",
        "fig2a_delta0.csv", "fig2a_minus.csv", "fig2a_plus.csv",
        "fig2b_delta0.csv", "fig2b_minus.csv", "fig2b_plus.csv",
    ]
    contour_lines = (outdir / "fig2_contour.csv").read_text().splitlines()
    assert len(contour_lines) == 14


def test_fit_subcommand_round_trip(tmp_path):
    truth = FanoProfileModel(2.0, 0.0, 1.0, 1.0, 0.1)
    e = np.linspace(-5, 5, 201)
    lines = ["energy,sigma"] + [
        "%.17g,%.17g" % (ei, si) for ei, si in zip(e, predict(truth, e))
    ]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit.json"
    assert run(["fit", "--data", str(data), "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["converged"] is True
    assert body["model"]["q"] == pytest.approx(2.0, rel=1e-6)
    assert body["model"]["gamma"] == pytest.approx(1.0, rel=1e-6)


def test_fit_solver_flags(tmp_path, capsys):
    data = tmp_path / "data.csv"
    truth = FanoProfileModel(1.0, 0.0, 1.0, 1.0, 0.5)
    e = np.linspace(-4, 4, 101)
    data.write_text(
        "\n".join(
            ["energy,sigma"]
            + ["%.17g,%.17g" % (ei, si) for ei, si in zip(e, predict(truth, e))]
        )
        + "\n"
    )
    out = tmp_path / "fit.json"
    code = run(
        [
            "fit", "--data", str(data), "--max-iter", "3",
            "--tol-step", "1e-14", "--tol-grad", "1e-16",
            "--out", str(out),
        ]
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert body["iterations"] <= 3


def test_fit_flags_survive_a_wrapped_fit_fano(tmp_path, monkeypatch):
    # perfbench's tracer puts a plain (*args, **kwargs) wrapper in fit_fano's
    # place, which has no signature defaults of its own
    import fanolap.cli

    seen = []
    original = fanolap.cli.fit_fano

    def wrapper(*args, **kwargs):
        seen.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(fanolap.cli, "fit_fano", wrapper)
    e = np.linspace(-4, 4, 41)
    truth = FanoProfileModel(1.0, 0.0, 1.0, 1.0, 0.5)
    data = tmp_path / "data.csv"
    data.write_text(format_trace_csv(CrossSectionTrace(e, predict(truth, e), TraceMeta("t"))))
    out = tmp_path / "fit.json"
    assert run(["fit", "--data", str(data), "--max-iter", "2", "--tol-grad", "1e-3",
                "--out", str(out)]) == 0
    assert seen == [{"max_iter": 2, "tol_grad": 1e-3}]
    assert json.loads(out.read_text())["iterations"] <= 2


@pytest.mark.parametrize("flag, value, message", [
    ("--damping-init", "nan", "damping_init must be finite and > 0, got nan"),
    ("--tol-grad", "inf", "tol_grad must be finite and > 0, got inf"),
    ("--tol-step", "-1e-10", "tol_step must be finite and > 0, got -1e-10"),
    ("--tol-step", "-inf", "tol_step must be finite and > 0, got -inf"),
    ("--max-iter", "0", "max_iter must be >= 1, got 0"),
])
def test_fit_rejects_bad_solver_flags(tmp_path, capsys, flag, value, message):
    data = tmp_path / "data.csv"
    e = np.linspace(-4, 4, 41)
    truth = FanoProfileModel(1.0, 0.0, 1.0, 1.0, 0.5)
    data.write_text(format_trace_csv(CrossSectionTrace(e, predict(truth, e), TraceMeta("t"))))
    out = tmp_path / "fit.json"
    # the value joined to its flag, and as the next argument
    for given in (["%s=%s" % (flag, value)], [flag, value]):
        code = run(["fit", "--data", str(data)] + given + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "ValidationError: %s\n" % message
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["trace", "--emin", "-1e3", "--emax", "1e3", "--n", "11"],
    ["trace", "--emin", "-2.5E+2", "--emax", "1", "--n", "11"],
    ["contour", "--emin", "-1", "--emax", "1", "--n", "5", "--delta-min", "-1e-1",
     "--ndelta", "3"],
], ids=["trace", "trace_upper", "contour"])
def test_negative_numbers_in_exponent_form_are_values(tmp_path, model_file, argv):
    # argparse on Python 3.11 took "-1e3" for an option, so its flag seemed
    # to lack a value; as the next argument it must mean what "--emin=-1e3" does
    joined = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    outs = [tmp_path / "apart.csv", tmp_path / "joined.csv"]
    for args, out in zip((argv, joined), outs):
        assert run(args[:1] + ["--model", model_file] + args[1:] + ["--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


_PAST_FLOATS = ["--emin=-1e308", "--emax=1e308", "--n=5"]


@pytest.mark.parametrize("argv, axis", [
    (["trace", "--model", "{m}"] + _PAST_FLOATS, "e"),
    (["qscan", "--model", "{m}"] + _PAST_FLOATS, "e"),
    (["contour", "--model", "{m}"] + _PAST_FLOATS, "e"),
    (["contour", "--model", "{m}", "--emin=-1", "--emax=1", "--n=5",
      "--delta-min=-1e308", "--delta-max=1e308"], "delta"),
    (["fig1", "--gamma", "1"] + _PAST_FLOATS, "e"),
    (["fig2"] + _PAST_FLOATS, "e"),
    (["compare", "--model", "{m}"] + _PAST_FLOATS, "e"),
], ids=["trace", "qscan", "contour", "contour_delta", "fig1", "fig2", "compare"])
def test_axis_span_past_the_float_range_is_validation_error(tmp_path, model_file, capsys,
                                                            argv, axis):
    # both ends are finite but max - min overflows: the first sample would be
    # nan, so a run wrote nan rows, or failed later after numpy's warnings
    out = tmp_path / "out"
    code = run([a.replace("{m}", model_file) for a in argv] + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "ValidationError: %s_max - %s_min overflows, got 1e+308 - -1e+308\n" % (axis, axis))
    assert not out.exists()


def test_fit_malformed_data(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("wrong,header\n0,1\n")
    code = run(["fit", "--data", str(data), "--out", str(tmp_path / "f.json")])
    assert code == 1
    assert "ValidationError" in capsys.readouterr().err


def test_compare_subcommand(tmp_path, model_file):
    out = tmp_path / "compare.json"
    code = run(
        [
            "compare", "--model", model_file,
            "--emin", "-8", "--emax", "10", "--n", "1001",
            "--out", str(out),
        ]
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert body["poles_static_applicable"] is True
    for stats in body["pairs"].values():
        assert stats["max_abs_dev"] < 1e-10


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "usage:" in err


def test_unknown_flag(capsys, tmp_path):
    assert run(["fig1", "--gamma", "1", "--frob", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_missing_model_file_is_io_error(tmp_path, capsys):
    code = run(
        [
            "trace", "--model", str(tmp_path / "absent.json"),
            "--emin", "-1", "--emax", "1", "--n", "5",
            "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 2
    assert "io error" in capsys.readouterr().err


def test_corrupt_model_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{]")
    code = run(
        [
            "trace", "--model", str(path),
            "--emin", "-1", "--emax", "1", "--n", "5",
            "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 1
    assert "ValidationError" in capsys.readouterr().err


@pytest.mark.parametrize("position, message", [
    ('"1.5"', "position must be a real number, got '1.5'"),
    ("true", "position must be a real number, got True"),
    ("1" + "0" * 400, "position must be finite, got inf"),
])
def test_model_file_number_must_be_real(tmp_path, capsys, position, message):
    path = tmp_path / "model.json"
    path.write_text('{"resonances": [{"position": %s, "width": 1}], "delta": 0}' % position)
    out = tmp_path / "t.csv"
    code = run(["trace", "--model", str(path), "--emin", "-1", "--emax", "1", "--n", "5",
                "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "ValidationError: %s\n" % message
    assert not out.exists()


_WIDTH_FLOOR = "must be >= 2.2250738585072014e-308, the smallest normal double, got"


@pytest.mark.parametrize("model, argv, message", [
    ({"resonances": [{"position": 0, "width": 1e-310}], "delta": 0}, ["trace"],
     "width %s 1e-310" % _WIDTH_FLOOR),
    (None, ["fig1", "--gamma", "1e-320"], "gamma_d %s 1e-320" % _WIDTH_FLOOR),
    ({"resonances": [{"position": 0, "width": 1}], "delta": 1e308}, ["trace"],
     "|delta| must be < 2**1023, got 1e+308"),
    ({"resonances": [{"position": 0, "width": 1}], "delta": -1e308},
     ["trace", "--repr", "poles-static"], "|delta| must be < 2**1023, got -1e+308"),
    ({"resonances": [{"position": 0, "width": 1}], "delta": 1e308}, ["qscan"],
     "|delta| must be < 2**1023, got 1e+308"),
    ({"resonances": [{"position": 0, "width": 1}], "delta": 0},
     ["contour", "--delta-max", "1.5e308"], "|delta_max| must be < 2**1023, got 1.5e+308"),
    # the checks of a model's entries, in the order model_from_dict makes them
    ([], ["trace"], "model data must be a JSON object, got 'list'"),
    ({"resonances": {}, "delta": 0}, ["trace"], "field 'resonances' must be a list"),
    ({"resonances": [1], "delta": 0}, ["trace"], "resonance 0 must be an object, got 1"),
], ids=["subnormal_width", "subnormal_gamma", "phase_product", "phase_static", "phase_qscan",
        "phase_contour", "model_list", "resonances_object", "resonance_number"])
def test_out_of_range_input_is_one_line(tmp_path, capsys, model, argv, message):
    # numpy printed warnings here and S was nan, or a check no test reached
    if model is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        argv = argv[:1] + ["--model", str(path)] + argv[1:]
    grid = [] if argv[0] == "fig1" else ["--emin", "-1", "--emax", "1", "--n", "5"]
    out = tmp_path / "out"
    assert run(argv + grid + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "ValidationError: %s\n" % message
    assert not out.exists()


def test_model_file_with_an_overlong_integer_is_validation_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"resonances": [], "delta": 1%s}' % ("0" * 5000))
    out = tmp_path / "t.csv"
    code = run(["trace", "--model", str(path), "--emin", "-1", "--emax", "1", "--n", "5",
                "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: model file ") and err.count("\n") == 1
    assert not out.exists()


def test_model_file_not_utf8_is_validation_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff{}")
    out = tmp_path / "o.json"
    assert run(["params", "--model", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "ValidationError: model file %s: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte\n" % path
    )
    assert not out.exists()


def test_out_of_memory_is_a_one_line_diagnostic(tmp_path, model_file, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    # stands in for an oversized grid without allocating one
    monkeypatch.setattr(fanolap.cli, "trace", exhausted)
    out = tmp_path / "t.csv"
    code = run(
        [
            "trace", "--model", model_file,
            "--emin", "-1", "--emax", "1", "--n", "5", "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1
    assert not out.exists()


_MAX_CELLS = np.iinfo(np.intp).max // 16


@pytest.mark.parametrize("argv, message", [
    (["trace", "--n", "4000000000000000000"],
     "n_points must be <= %d cells, got 4000000000000000000" % _MAX_CELLS),
    (["trace", "--n", "10000000000000000000"],
     "n_points must be <= %d cells, got 10000000000000000000" % _MAX_CELLS),
    (["contour", "--n", "5", "--ndelta", "10000000000000000000"],
     "n_delta * n_points must be <= %d cells, got 50000000000000000000" % _MAX_CELLS),
], ids=["trace", "trace_past_int64", "contour"])
def test_grid_beyond_any_array_is_validation_error(tmp_path, model_file, capsys, argv,
                                                   message):
    # numpy would refuse these sizes with a ValueError and a traceback; they
    # are refused before anything is allocated
    out = tmp_path / "o.csv"
    code = run(argv[:1] + ["--model", model_file, "--emin", "-1", "--emax", "1"]
               + argv[1:] + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "ValidationError: %s\n" % message
    assert not out.exists()


def test_output_path_collision_is_io_error(tmp_path, model_file, capsys):
    blocked = tmp_path / "blocked.csv"
    blocked.mkdir()
    code = run(
        [
            "trace", "--model", model_file,
            "--emin", "-1", "--emax", "1", "--n", "5",
            "--out", str(blocked),
        ]
    )
    assert code == 2
    assert "io error" in capsys.readouterr().err
    # the staged temporary is cleaned up
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith("blocked.csv.")]
    assert leftovers == []


def test_failed_write_leaves_no_temporary(tmp_path, model_file, monkeypatch, capsys):
    real_fdopen = os.fdopen

    class Full:
        def __init__(self, fd, *args, **kwargs):
            self.fh = real_fdopen(fd, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fdopen", Full)
    out = tmp_path / "out" / "trace.csv"
    code = run(["trace", "--model", model_file, "--emin", "-1", "--emax", "1",
                "--n", "5", "--out", str(out)])
    assert code == 2
    assert "No space left" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []


def test_fig2_failure_leaves_no_partial_files(tmp_path):
    outdir = tmp_path / "fig2"
    outdir.mkdir()
    (outdir / "fig2_contour.csv").mkdir()  # forces the last rename to fail
    code = run(["fig2", "--ndelta", "5", "--out", str(outdir)])
    assert code == 2
    # nothing but the blocking directory is left behind
    assert sorted(p.name for p in outdir.iterdir()) == ["fig2_contour.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_new_output_files_get_the_umask_mode(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        model = tmp_path / "model.json"
        save_model(TWO_RES, model)
        out = tmp_path / "trace.csv"
        assert run(["trace", "--model", str(model), "--emin", "-1", "--emax", "1",
                    "--n", "5", "--out", str(out)]) == 0
        tr = fanolap.read_trace_csv(out)
        write_trace_csv(tr, tmp_path / "copy.csv")
    finally:
        os.umask(previous)
    for name in ("model.json", "trace.csv", "copy.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


def test_output_mode_without_reading_the_umask(tmp_path, model_file, monkeypatch):
    # the umask is process-wide; the writer leaves it to the kernel
    def umask(_):
        raise AssertionError("os.umask called")

    previous = os.umask(0o022)
    try:
        monkeypatch.setattr(os, "umask", umask)
        out = tmp_path / "trace.csv"
        assert run(["trace", "--model", model_file, "--emin", "-1", "--emax", "1",
                    "--n", "5", "--out", str(out)]) == 0
    finally:
        monkeypatch.undo()
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "trace.csv"]


def _run_module(module, *argv):
    src = str(Path(fanolap.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("module", ["fanolap", "fanolap.cli"])
def test_python_m_runs_the_cli(tmp_path, model_file, module):
    out = tmp_path / "params.json"
    proc = _run_module(module, "params", "--model", model_file, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["static"]["q"] == pytest.approx(1.0)


@pytest.mark.parametrize("module", ["fanolap", "fanolap.cli"])
def test_python_m_reports_bad_input(tmp_path, module):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    out = tmp_path / "x.json"
    proc = _run_module(module, "params", "--model", str(empty), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("ValidationError: ")
    assert not out.exists()


# every subcommand's flags: option strings -> (type, default, required, choices)
_GRID = {"--emin": (float, None, True, None), "--emax": (float, None, True, None),
         "--n": (int, None, True, None)}
_OPTIONAL_GRID = {flag: (kind, None, False, None) for flag, (kind, *_) in _GRID.items()}
_MODEL = {"--model": (None, None, True, None)}
_OUT = {"--out": (None, None, True, None)}
_REPRS = ["product", "poles-static", "poles-dynamic", "double-pole"]
_SUPPRESS = argparse.SUPPRESS  # the fit flags: fit_fano's own defaults apply
_INTERFACE = {
    "trace": {**_MODEL, **_GRID, "--repr": (None, "product", False, _REPRS), **_OUT},
    "qscan": {**_MODEL, "--k": (int, 0, False, None), **_GRID, **_OUT},
    "params": {**_MODEL, **_OUT},
    "contour": {**_MODEL, **_GRID, "--delta-min": (float, 0.0, False, None),
                "--delta-max": (float, 3.141592653589793, False, None),
                "--ndelta": (int, 181, False, None), **_OUT},
    "fig1": {"--gamma": (float, None, True, None), **_OPTIONAL_GRID, **_OUT},
    "fig2": {**_OPTIONAL_GRID, "--ndelta": (int, 181, False, None), **_OUT},
    "fit": {"--data": (None, None, True, None), "--max-iter": (int, _SUPPRESS, False, None),
            "--tol-step": (float, _SUPPRESS, False, None),
            "--tol-grad": (float, _SUPPRESS, False, None),
            "--damping-init": (float, _SUPPRESS, False, None), **_OUT},
    "compare": {**_MODEL, **_GRID, **_OUT},
}


def _subcommands():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _flags(subparser):
    return {a.option_strings[0]: a for a in subparser._actions if a.option_strings
            and a.option_strings[0] != "-h"}


def test_cli_interface_is_pinned():
    # the eight subcommands, their handlers, and each flag as argparse holds it
    subs = _subcommands()
    assert list(subs) == list(_INTERFACE)
    for name, subparser in subs.items():
        assert subparser.get_default("func").__name__ == "_cmd_" + name
        got = {flag: (tuple(a.option_strings), a.type, a.default, a.required, a.choices)
               for flag, a in _flags(subparser).items()}
        want = {flag: ((flag,),) + spec for flag, spec in _INTERFACE[name].items()}
        assert got == want, name


def test_model_and_out_have_help_on_every_subcommand():
    for name, subparser in _subcommands().items():
        for flag, action in _flags(subparser).items():
            if flag in ("--model", "--out"):
                assert action.help, (name, flag)
