"""Golden SHA-256 digests of every file the CLI writes at small fixed sizes.

Each case runs one subcommand in-process and hashes every file it leaves
in its output directory.  The digests pin the exact bytes: %.17g float
formatting, JSON layout, operation order inside every formula, and the
fitter's iteration path.  They were recorded with numpy 2.4.6 on Python
3.11.7 (x86-64, glibc libm); another numpy, libm or BLAS may round a last
digit differently.  A change to any digest must come with a CHANGES.md
entry that says why the bytes moved.
"""

import hashlib

import numpy as np
import pytest

from fanolap import Resonance, ScatteringModel, save_model
from fanolap.cli import run

from conftest import lcg_noise

MODELS = {
    "two": ScatteringModel((Resonance(0.0, 1.0), Resonance(1.0, 3.0))),
    "three": ScatteringModel(
        (Resonance(-1.0, 0.5), Resonance(0.25, 2.0), Resonance(1.5, 0.3)), 0.7
    ),
    "one": ScatteringModel((Resonance(0.2, 0.8),), 0.3),
    # zero background phase: q = -inf at every energy
    "lone": ScatteringModel((Resonance(0.0, 1.0),)),
    # negative A_1, so the complex parameters are reported as an error
    "sep": ScatteringModel((Resonance(0.0, 1.0), Resonance(5.0, 1.2))),
    # coincident poles: the static pole form is inapplicable
    "deg": ScatteringModel((Resonance(0.0, 1.0), Resonance(0.0, 1.0))),
}

GRID = ["--emin", "-3", "--emax", "4", "--n", "41"]

# name -> argv; "{m:NAME}" is a model file, "{data}" the fit input,
# "{out}" the case's output directory
CASES = {
    "trace_product": ["trace", "--model", "{m:three}", *GRID, "--repr", "product",
                      "--out", "{out}/t.csv"],
    "trace_static": ["trace", "--model", "{m:two}", *GRID, "--repr", "poles-static",
                     "--out", "{out}/t.csv"],
    "trace_dynamic": ["trace", "--model", "{m:two}", *GRID, "--repr", "poles-dynamic",
                      "--out", "{out}/t.csv"],
    "trace_double": ["trace", "--model", "{m:one}", *GRID, "--repr", "double-pole",
                     "--out", "{out}/t.csv"],
    "qscan": ["qscan", "--model", "{m:three}", "--k", "1", *GRID, "--out", "{out}/q.csv"],
    "qscan_inf": ["qscan", "--model", "{m:lone}", "--k", "0", *GRID, "--out", "{out}/q.csv"],
    "params": ["params", "--model", "{m:two}", "--out", "{out}/p.json"],
    "params_negative_a": ["params", "--model", "{m:sep}", "--out", "{out}/p.json"],
    "contour": ["contour", "--model", "{m:three}", "--emin", "-2", "--emax", "2",
                "--n", "31", "--delta-min", "-0.5", "--delta-max", "2.5",
                "--ndelta", "7", "--out", "{out}/c.csv"],
    "fig1": ["fig1", "--gamma", "0.7", "--emin", "-3", "--emax", "3", "--n", "41",
             "--out", "{out}"],
    "fig2": ["fig2", "--emin", "-1", "--emax", "1.5", "--n", "51", "--ndelta", "13",
             "--out", "{out}"],
    "fit": ["fit", "--data", "{data}", "--out", "{out}/f.json"],
    "compare": ["compare", "--model", "{m:two}", *GRID, "--out", "{out}/r.json"],
    "compare_degenerate": ["compare", "--model", "{m:deg}", *GRID, "--out", "{out}/r.json"],
}

GOLDEN = {
    "compare:r.json": "e8a22ac8ba7b2043cb479b4639f6243d41014fc817bf0da23a59a45a8cfa385f",
    "compare_degenerate:r.json": "2203f110e29e12666d5261ada896798bc294bf04dddd39f5df98e34e94ddab63",
    "contour:c.csv": "12c3b00a3549c59ba414814dc9017970736711ddcd9c67d3fbf5d50deb8421b2",
    "fig1:fig1a_dashed.csv": "04e0036b7cd2ba52033810b441e2c722bc480256cbf1c1c8d751bd0e03da9f0e",
    "fig1:fig1a_full.csv": "be2cbaa2886f9663337ed99f906ec632f118d8482a2d2b7f7e7aa5cb7b3f7eeb",
    "fig1:fig1b_dashed.csv": "eaebdc673cb5ec2cad8915f4820723776fe4a9172c5001e161560d235389d667",
    "fig1:fig1b_full.csv": "577157e5c8f9bf303308783324966a4674703f422480affa6d834ed94b2815a9",
    "fig1:fig1c_dashed.csv": "6f612ee23ca3f96b0d3e8f97c449cbdd528b897241367ff85434fbceb4c46197",
    "fig1:fig1c_full.csv": "a8a96e8494757da7bc3a48bbdd66ac671777f0f04f41d6ebc140c8669e782c8a",
    "fig1:fig1d_dashed.csv": "bb2dd14a71ebd4664a190f254673a23c354263b607d1fde7aef4b4ed37f425e3",
    "fig1:fig1d_full.csv": "517d093f59d3b93f5021282d17776429495d6a21537b1339fe104dffd9beb920",
    "fig2:fig2_contour.csv": "186af62d25d72f22a4073be75f6b4f36b83abea4dac24dafa68f0f949b523500",
    "fig2:fig2a_delta0.csv": "92c77fa342d819f38b656b2bd2d619cf52c5b3de40bb3c36ae06f8e4a001a1a7",
    "fig2:fig2a_minus.csv": "2d46405c9f449dac826e8bd1553ad82223f9e92cfe14cd611f71ca715d5c4d1f",
    "fig2:fig2a_plus.csv": "157b340d4a072bbb0b36ce624a7a4047eee2d08bd6a3b65903eabee83a7682c2",
    "fig2:fig2b_delta0.csv": "1cf3d8a1b78350cc0a9b46b70ccd09f774f95e816eacfbe5e6e96b0bfbe2a1f9",
    "fig2:fig2b_minus.csv": "e78468679012673f3542f33386bc3de5e91196bbeee6cc7305b6397820486557",
    "fig2:fig2b_plus.csv": "582c9c0afa7da0a02b32f10e1510b0050850c5a631373d5f2603f4bb017a70ad",
    "fit:f.json": "32373059d3dbff57681326593ff998fee2352c184675defb2b105a83a7570446",
    "params:p.json": "d9d326703b8892ab9dffec00a8531fea67694e4700a7cb9b96d9da9be7a443b5",
    "params_negative_a:p.json": "785484a5a43fadf02292b88cb4bdb5c6577023d62af96762f2cf291d5989e626",
    "qscan:q.csv": "ee137d14fb3aca872b6649f0d39f5d23881c027827c3dd9e88eee8c0612180eb",
    "qscan_inf:q.csv": "88d24dd3ef49a8ffe5d4648a5cea86fbb4fe8292e711dec6856e7a13dab476fc",
    "trace_double:t.csv": "6efed7e17d8671a05e9f10793b781b603bac953c2310ff72b78892f4a13cf52a",
    "trace_dynamic:t.csv": "b0184205b16fd119d8a08a7fbabdedc26b7f622c874dce83e1642f51b31344d0",
    "trace_product:t.csv": "a6755b8c036b9b742cc6f5ddeaf85b50ea6bf0be18a2c263abc284a1efda35c0",
    "trace_static:t.csv": "b25ed185839230e58b0c668f9bd366a7fa067bb161cf2e5e8bb2322f3595d5d3",
}


def _fit_data(path):
    """A noisy Fano profile written without any fanolap code."""
    e = np.linspace(-4.0, 4.0, 81)
    eps = 2.0 * (e - 0.3) / 0.8
    sigma = 1.5 * (2.0 + eps) ** 2 / (eps * eps + 1.0) + 0.2 + 0.01 * lcg_noise(7, e.size)
    lines = ["energy,sigma"] + ["%.17g,%.17g" % pair for pair in zip(e, sigma)]
    path.write_text("\n".join(lines) + "\n")


def _argv(case, tmp_path):
    out = tmp_path / "out"
    data = tmp_path / "data.csv"
    _fit_data(data)
    argv = []
    for arg in CASES[case]:
        if arg.startswith("{m:"):
            name = arg[3:-1]
            path = tmp_path / ("%s.json" % name)
            save_model(MODELS[name], path)
            arg = str(path)
        argv.append(arg.replace("{out}", str(out)).replace("{data}", str(data)))
    return argv, out


def _digests(out):
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    argv, out = _argv(case, tmp_path)
    assert run(argv) == 0
    expected = {k.split(":", 1)[1]: v for k, v in GOLDEN.items() if k.split(":", 1)[0] == case}
    assert expected, "no golden digests recorded for %s" % case
    assert _digests(out) == expected


def test_golden_covers_every_subcommand():
    commands = {argv[0] for argv in CASES.values()}
    assert commands == {"trace", "qscan", "params", "contour", "fig1", "fig2", "fit", "compare"}
    reprs = {argv[argv.index("--repr") + 1] for argv in CASES.values() if "--repr" in argv}
    assert reprs == {"product", "poles-static", "poles-dynamic", "double-pole"}
