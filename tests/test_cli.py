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
    EnergyGrid,
    FanoProfileModel,
    Resonance,
    ScatteringModel,
    fano_q_dynamic,
    predict,
    save_model,
)
from fanolap.cli import run
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
    m = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0)))
    path = tmp_path / "deg.json"
    save_model(m, path)
    out = tmp_path / "x.csv"
    code = run(
        [
            "trace", "--model", str(path),
            "--emin", "-1", "--emax", "1", "--n", "11",
            "--repr", "poles-static", "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "DoublePoleSingularity" in err
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
    assert "ValidationError" in capsys.readouterr().err


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


def test_fig2_failure_leaves_no_partial_files(tmp_path):
    outdir = tmp_path / "fig2"
    outdir.mkdir()
    (outdir / "fig2_contour.csv").mkdir()  # forces the last rename to fail
    code = run(["fig2", "--ndelta", "5", "--out", str(outdir)])
    assert code == 2
    # nothing but the blocking directory is left behind
    assert sorted(p.name for p in outdir.iterdir()) == ["fig2_contour.csv"]


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
