"""Golden SHA-256 digests of every file the CLI writes at small fixed sizes,
and of every per-energy evaluator on large grids.

Each case runs one subcommand in-process and hashes every file it leaves
in its output directory.  The digests pin the exact bytes: %.17g float
formatting, JSON layout, operation order inside every formula, and the
fitter's iteration path.  The 41-point grids are smaller than any block
of energies an evaluator works in, so the large-grid digests pin the
arrays of each evaluator and of ``trace`` at sizes around and past powers
of two and, with a second thread, around the seams of today's blocks, and
CLI outputs at the sizes the benchmark writes (a 100003-point
trace, a 100001-point qscan, a 1001 x 181 contour and the default fig2),
and the compare report and the figures on grids that cross block seams.
One more digest pins every CSV writer on doubles of every formatting
class.  They were recorded with numpy 2.4.6 on Python
3.11.7 (x86-64, glibc libm); another numpy, libm or BLAS may round a last
digit differently.  A change to any digest must come with a CHANGES.md
entry that says why the bytes moved.
"""

import hashlib

import numpy as np
import pytest

from fanolap import (
    EnergyGrid,
    FanoProfileModel,
    Representation,
    Resonance,
    ScatteringModel,
    contour,
    cross_section_noninteracting,
    double_pole_fano,
    epsilon,
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
    save_model,
    trace,
)
from fanolap import _util
from fanolap.cli import run
from fanolap.scan import (
    ContourGrid,
    CrossSectionTrace,
    TraceMeta,
    _format_columns,
    format_contour_csv,
    format_trace_csv,
)

from conftest import float_classes, lcg_noise, lcg_stream

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
    # "two" at a nonzero background phase, for the dynamic pole form and compare
    "two_tilted": ScatteringModel((Resonance(0.0, 1.0), Resonance(1.0, 3.0)), 0.7),
}

GRID = ["--emin", "-3", "--emax", "4", "--n", "41"]

# name -> argv; "{m:NAME}" is a model file, "{data}" the fit input,
# "{out}" the case's output directory
CASES = {
    "trace_product": ["trace", "--model", "{m:three}", *GRID, "--repr", "product",
                      "--out", "{out}/t.csv"],
    "trace_static": ["trace", "--model", "{m:two}", *GRID, "--repr", "poles-static",
                     "--out", "{out}/t.csv"],
    # the static pole form of three resonances at delta = 0.7
    "trace_static_three": ["trace", "--model", "{m:three}", *GRID, "--repr", "poles-static",
                           "--out", "{out}/t.csv"],
    "trace_dynamic": ["trace", "--model", "{m:two}", *GRID, "--repr", "poles-dynamic",
                      "--out", "{out}/t.csv"],
    "trace_dynamic_tilted": ["trace", "--model", "{m:two_tilted}", *GRID, "--repr",
                             "poles-dynamic", "--out", "{out}/t.csv"],
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
    "compare_tilted": ["compare", "--model", "{m:two_tilted}", *GRID, "--out", "{out}/r.json"],
    "compare_degenerate": ["compare", "--model", "{m:deg}", *GRID, "--out", "{out}/r.json"],
    "trace_large": ["trace", "--model", "{m:three}", "--emin", "-6", "--emax", "6",
                    "--n", "100003", "--repr", "product", "--out", "{out}/t.csv"],
    "qscan_large": ["qscan", "--model", "{m:three}", "--k", "1", "--emin", "-6", "--emax", "6",
                    "--n", "100001", "--out", "{out}/q.csv"],
    "contour_large": ["contour", "--model", "{m:two}", "--emin", "-3", "--emax", "4",
                      "--n", "1001", "--ndelta", "181", "--out", "{out}/c.csv"],
    "fig2_default": ["fig2", "--out", "{out}"],
    "compare_large": ["compare", "--model", "{m:two}", "--emin", "-3", "--emax", "4",
                      "--n", "100003", "--out", "{out}/r.json"],
    "compare_degenerate_large": ["compare", "--model", "{m:deg}", "--emin", "-3", "--emax", "4",
                                 "--n", "100003", "--out", "{out}/r.json"],
    "fig1_large": ["fig1", "--gamma", "0.7", "--emin", "-3", "--emax", "3", "--n", "20001",
                   "--out", "{out}"],
    "fig2_large": ["fig2", "--emin", "-1", "--emax", "1.5", "--n", "20001", "--ndelta", "3",
                   "--out", "{out}"],
}

GOLDEN = {
    "compare:r.json": "e8a22ac8ba7b2043cb479b4639f6243d41014fc817bf0da23a59a45a8cfa385f",
    "compare_tilted:r.json": "0df11bffa4cf7c5383116b7a737c339a8d1d080e121d12c564eca984d95634c1",
    "compare_degenerate:r.json": "1ccadb200515c96c93deebb967daf0aca2563997515084d3036cb73554bc9303",
    "compare_large:r.json": "8230aaca7e04557890a2033b608143bc63197fdadcff8a6a186171efbda6497c",
    "compare_degenerate_large:r.json": "f5b470c9ac9e469fafd7b566b5b447e192abc5b081c5df2a3897060b9674c2f5",
    "contour:c.csv": "12c3b00a3549c59ba414814dc9017970736711ddcd9c67d3fbf5d50deb8421b2",
    "contour_large:c.csv": "43a38466695fc5b0e11657b06b49414fa05bc260f73c0333f566cc1a25baad4b",
    "fig2_default:fig2_contour.csv": "2673c14b6acf018a605efd98a5de29f4288d14bb97c8ba99ce827af5fad07b19",
    "fig2_default:fig2a_delta0.csv": "adb82147ff6d14868afc3bdcd981c85ce08e6799be86db8544db859e126704e8",
    "fig2_default:fig2a_minus.csv": "118f2aec5cf8d2c8b44c89cd4e6cdf308b2b6b514f32cfa5ad0ef4400a9af8b5",
    "fig2_default:fig2a_plus.csv": "0771349bc5110a9a98b318ce2de4635394d1f3378cfa5b07acb9e10d8a8cc24d",
    "fig2_default:fig2b_delta0.csv": "74b95598ab6a2fcc557c020c61b951f652ed903aaaea8348c56bc42373fa362e",
    "fig2_default:fig2b_minus.csv": "bc3b1382c5f5278dcfa64452b8b9f789487335e059591bb83a2d95f2982d3e46",
    "fig2_default:fig2b_plus.csv": "5392a21ed91e83d722f213631c4958aa5da73f0822e850c0e57d42ed91178ac1",
    "qscan_large:q.csv": "ad8d8f2f96241e7176199751bb3580e59d7ce4a3a46e50729831e7c7b614516a",
    "fig1:fig1a_dashed.csv": "dc10e0824c902609644cbc5523f86bf636ec02b5c74c14ab827ae4e6ac7f7be2",
    "fig1:fig1a_full.csv": "be2cbaa2886f9663337ed99f906ec632f118d8482a2d2b7f7e7aa5cb7b3f7eeb",
    "fig1:fig1b_dashed.csv": "a1347332430f4af83000740d8dad5a7b9471c5f8a4cb21b481253ba32cf4e783",
    "fig1:fig1b_full.csv": "577157e5c8f9bf303308783324966a4674703f422480affa6d834ed94b2815a9",
    "fig1:fig1c_dashed.csv": "4148f2f648a63455919290f3f8092ba9a22ceefb3d09fa7449a84a457dd33874",
    "fig1:fig1c_full.csv": "a8a96e8494757da7bc3a48bbdd66ac671777f0f04f41d6ebc140c8669e782c8a",
    "fig1:fig1d_dashed.csv": "249909e76ef5288810d126fab66dea3cf578fa044a57f73237d8477d5234749b",
    "fig1:fig1d_full.csv": "517d093f59d3b93f5021282d17776429495d6a21537b1339fe104dffd9beb920",
    "fig1_large:fig1a_dashed.csv": "886524976b8162d3ff5f20e966f616067ac3b6d7b739dcc0863bc97f589db259",
    "fig1_large:fig1a_full.csv": "539d007814cb99ab931e765daa075ad95d71b9ad9def2b26ebd6da2abf9de3fb",
    "fig1_large:fig1b_dashed.csv": "98da7a2c5f086554121fa1c667dea53472d960b10942ea90c30371d9f61a98ad",
    "fig1_large:fig1b_full.csv": "31cd3bffd7911609a5f28405d51a7fa4f18403c3aeca8399a36100aecb0c3761",
    "fig1_large:fig1c_dashed.csv": "887dacb051c2c56dcdbf1d1d4ca1935c2872d17e05896a919b15d19b4f067eab",
    "fig1_large:fig1c_full.csv": "a7e577986a41da14563aa72cd3808c17999a2921cc63254274e0ba03b9602b3b",
    "fig1_large:fig1d_dashed.csv": "5a1e56aef6362f3a02e8356b41655b9ce0536e72674e94ee5a6d656d19c710c4",
    "fig1_large:fig1d_full.csv": "04eaaa62f8025cc5a06babcf2239dbb81319d8530134f466355acfa457967d5d",
    "fig2:fig2_contour.csv": "186af62d25d72f22a4073be75f6b4f36b83abea4dac24dafa68f0f949b523500",
    "fig2:fig2a_delta0.csv": "92c77fa342d819f38b656b2bd2d619cf52c5b3de40bb3c36ae06f8e4a001a1a7",
    "fig2:fig2a_minus.csv": "2d46405c9f449dac826e8bd1553ad82223f9e92cfe14cd611f71ca715d5c4d1f",
    "fig2:fig2a_plus.csv": "157b340d4a072bbb0b36ce624a7a4047eee2d08bd6a3b65903eabee83a7682c2",
    "fig2:fig2b_delta0.csv": "1cf3d8a1b78350cc0a9b46b70ccd09f774f95e816eacfbe5e6e96b0bfbe2a1f9",
    "fig2:fig2b_minus.csv": "e78468679012673f3542f33386bc3de5e91196bbeee6cc7305b6397820486557",
    "fig2:fig2b_plus.csv": "582c9c0afa7da0a02b32f10e1510b0050850c5a631373d5f2603f4bb017a70ad",
    "fig2_large:fig2_contour.csv": "0547c67d268606cbad289507f5272a161351d9039bdcad105bd121b82d8c6252",
    "fig2_large:fig2a_delta0.csv": "21ce3804f549bd0f309a5f966759db8ea876ec2037590ae4f259bb780a8cca47",
    "fig2_large:fig2a_minus.csv": "c2a94029a65a0ce6aa9138029b203499e82048f099f4c239a66c38d431656e28",
    "fig2_large:fig2a_plus.csv": "1297c1a14636a85c547117d1ca238c6b24357c8b0b424be7ca3fdade8d4fe5b3",
    "fig2_large:fig2b_delta0.csv": "4a08b14c19dd3e2c0131627cbb537446ee03c55fb308b49c7008bc716adf0f07",
    "fig2_large:fig2b_minus.csv": "422fefa2733eee1529b725990bb953e174861d04e83621840e1db0beae61a91c",
    "fig2_large:fig2b_plus.csv": "69e2a0d2f1e7e9aaf61f513cf905e7deed8f8a87933c44bf0ba2b78854ebd4ca",
    "fit:f.json": "32373059d3dbff57681326593ff998fee2352c184675defb2b105a83a7570446",
    "params:p.json": "d9d326703b8892ab9dffec00a8531fea67694e4700a7cb9b96d9da9be7a443b5",
    "params_negative_a:p.json": "785484a5a43fadf02292b88cb4bdb5c6577023d62af96762f2cf291d5989e626",
    "qscan:q.csv": "ee137d14fb3aca872b6649f0d39f5d23881c027827c3dd9e88eee8c0612180eb",
    "qscan_inf:q.csv": "88d24dd3ef49a8ffe5d4648a5cea86fbb4fe8292e711dec6856e7a13dab476fc",
    "trace_double:t.csv": "6efed7e17d8671a05e9f10793b781b603bac953c2310ff72b78892f4a13cf52a",
    "trace_dynamic:t.csv": "b0184205b16fd119d8a08a7fbabdedc26b7f622c874dce83e1642f51b31344d0",
    "trace_dynamic_tilted:t.csv": "45b216f7d9019561d9f6cc4c04d50f3e078b8103d08a1b889caf54f5e1d00be6",
    "trace_large:t.csv": "3e6617d1156371f13b326faa37b616b5f3819e5f0c274f6ab91fd10e7139df25",
    "trace_product:t.csv": "a6755b8c036b9b742cc6f5ddeaf85b50ea6bf0be18a2c263abc284a1efda35c0",
    "trace_static:t.csv": "b25ed185839230e58b0c668f9bd366a7fa067bb161cf2e5e8bb2322f3595d5d3",
    "trace_static_three:t.csv": "5757fd331074311ad38dc40dfb250b5fb0ce564690c5023daee36e164a545f69",
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


TWO, THREE, ONE = MODELS["two"], MODELS["three"], MODELS["one"]
TWELVE = ScatteringModel(
    tuple(Resonance(p, w) for p, w in zip(np.linspace(-5.0, 5.0, 12).tolist(),
                                          np.linspace(0.2, 3.0, 12).tolist())),
    1.1,
)
P_TWO = fano_static_params(TWO)
PROFILE = FanoProfileModel(q=2.0, e0=0.3, gamma=0.8, amplitude=1.5, offset=0.2)

# sizes around and past powers of two, fixed whatever block size the
# evaluators use
LARGE_SIZES = (8191, 8192, 8193, 24577, 100003)


def _trace_sigma(m, rep):
    return lambda n: trace(m, EnergyGrid(-6.0, 6.0, n), rep).sigma


def _on_grid(f):
    return lambda n: f(np.linspace(-6.0, 6.0, n))


# name -> n -> array; each digest covers the arrays of every size in turn
LARGE = {
    "epsilon": _on_grid(lambda e: epsilon(THREE.resonances[1], e)),
    "resonance_phase": _on_grid(lambda e: resonance_phase(THREE.resonances[1], e)),
    "s_unitary_product": _on_grid(lambda e: s_unitary_product(THREE, e)),
    "s_unitary_product_12": _on_grid(lambda e: s_unitary_product(TWELVE, e)),
    "s_pole_static": _on_grid(lambda e: s_pole(TWO, e, Representation.POLES_STATIC)),
    "s_pole_dynamic": _on_grid(lambda e: s_pole(TWO, e, Representation.POLES_DYNAMIC)),
    "s_double_pole": _on_grid(lambda e: s_double_pole(0.2, 0.8, 0.3, e)),
    "cross_section_noninteracting": _on_grid(lambda e: cross_section_noninteracting(THREE, e)),
    "fano_q_dynamic": _on_grid(lambda e: fano_q_dynamic(THREE, 1, e)),
    "fano_q_dynamic_12": _on_grid(lambda e: fano_q_dynamic(TWELVE, 4, e)),
    "fano_cross_section_dynamic": _on_grid(lambda e: fano_cross_section_dynamic(THREE, 1, e)),
    "fano_cross_section_dynamic_12": _on_grid(
        lambda e: fano_cross_section_dynamic(TWELVE, 4, e)),
    "fano_cross_section_static": _on_grid(lambda e: fano_cross_section_static(P_TWO, TWO, e)),
    "fano_cross_section_complex": _on_grid(
        lambda e: fano_cross_section_complex(P_TWO, fano_complex_params(P_TWO), TWO, e)),
    "double_pole_fano_q": _on_grid(lambda e: double_pole_fano(0.2, 0.8, 0.3, e)[0]),
    "double_pole_fano_sigma": _on_grid(lambda e: double_pole_fano(0.2, 0.8, 0.3, e)[1]),
    "predict": _on_grid(lambda e: predict(PROFILE, e)),
    "trace_product": _trace_sigma(TWELVE, Representation.UNITARY_PRODUCT),
    "trace_poles_static": _trace_sigma(TWO, Representation.POLES_STATIC),
    "trace_poles_dynamic": _trace_sigma(TWO, Representation.POLES_DYNAMIC),
    "trace_double_pole": _trace_sigma(ONE, Representation.DOUBLE_POLE),
}

LARGE_GOLDEN = {
    "cross_section_noninteracting": "cf8bdbc9623bab2f396b5f711df82cb99c87c528423a03edff03b046f0a1a655",
    "double_pole_fano_q": "da3368fa9e671e6fe728ee21ecd87fb8568d0072654f0f17a9dfe01cd275e385",
    "double_pole_fano_sigma": "8482e240aec05708be203c5e1e1696fdba417a950e9de4e905ebfc45e7da1102",
    "epsilon": "6aaca63ca91d72f0d05c2aaf4b39791c7a1bd15192a941d698786114cd67d7f2",
    "fano_cross_section_complex": "b5f90e75a9c858dc06e9d17907ac661c00fe2170ffe277c9ac878c5fa5401a81",
    "fano_cross_section_dynamic": "ff18fd72eb0e736e10beea067465f9630f16640ec120e3cdbae49426195243eb",
    "fano_cross_section_dynamic_12": "2e8f820a5759f6ae833fe6ebb918cf3a920c14efa13e6a394d6135eaaa3e02a6",
    "fano_cross_section_static": "28988e937e271a0f94fa9dee5126b8a437918fe21ef4765340dd3a74e6fd3e79",
    "fano_q_dynamic": "e428f302ca0954d477aca432291bb4bce5f32eb1a75c06100d817eef56e5546e",
    "fano_q_dynamic_12": "1fb85220322f414d92e3f7adf4958b60a890e502fdf55ad6bdc78d1068cc8357",
    "predict": "b379296cda0d2df3c9e0e79b80c64a50708fc9073679953662100becd20a9bf8",
    "resonance_phase": "62ec36a791ef85141abd0ee0d9d2f1dc11f8a6ed8b8d8deff680b3aa41c980b2",
    "s_double_pole": "d0fc54a5b5a1d48d697e8591299beaa37012a5538d5f6e1f615ae3a9f6994444",
    "s_pole_dynamic": "661d250439c1eafee7db7d1f3b05c9803758f2c5142bd36ff6215d6c8056056b",
    "s_pole_static": "f5478115b88048682478a52bb3ae434a4ffbaea4c689e8dcad9315ee781f9beb",
    "s_unitary_product": "fe33e246b71a8272cbe9c2e3658c97855e94c17ff94290581e26adb16c252f3f",
    "s_unitary_product_12": "177e3858914338bd3d2a7413884a17ffb0fd3b004aa62e9f3abea3a98fb73626",
    "trace_double_pole": "79482f7404bf93da04d95aaabd7d719a6e2346cf247917cfac177a4b7da8d59b",
    "trace_poles_dynamic": "8d6e39a2732278b77f6198c9fe349b8f5b8ebee05420b2bacca2abaa5c36d1ee",
    "trace_poles_static": "b9fb929a3075735a4d819303233fece0c9259b76ac9699a806de2ec5cdc08cec",
    "trace_product": "b4c2b0b73535b2c7fbcad1d03b8d97e91746fa0248d8ba53efc37a6bf9223b1b",
}


# one block of 16384 energies less one, one full block, one more (a last
# block of one energy), and two blocks and one energy; recorded with
# blocks of 8192 evaluated one after another
SEAM_SIZES = (16383, 16384, 16385, 32769)

SEAM_GOLDEN = {
    "cross_section_noninteracting": "efc5b7895e01a29f18c81eaf9789e3acabc0cc9f43990b2cc6f7c9de6f82803f",
    "double_pole_fano_q": "4fb2221c5b92619d717eac3f26ec5d39a25014238186ec36f88d5c8f4f4c7f0b",
    "double_pole_fano_sigma": "7858233c9d26fad22356d9c48bde9adc7458f3aab4b72da94508d2c46d9de685",
    "epsilon": "84d522500a19b767ad2c966a525aec69b5d90e89610eff7194edc885ddcc4708",
    "fano_cross_section_complex": "905bbafa1575039296684e8a37fd4458cd4fa3f6939d3358bc8f61d0abd839bf",
    "fano_cross_section_dynamic": "b53cf02622147f8ef41f2194fc7cb9c3c00ca1da4440b24f350450ff9040503a",
    "fano_cross_section_dynamic_12": "5aa9e6b4d68c8fa0c7a3342adf2d617bce1115f1333d196ca074f356e566d119",
    "fano_cross_section_static": "4ee4959f0b11431647e7803be64352847abb0363073e0d6c0e4149c4947efa05",
    "fano_q_dynamic": "f4a2356f83436111b2cfecd45e85d6911a4c84273245bfbf39a1d484e1174056",
    "fano_q_dynamic_12": "683c2eee4293f0e6f9d8f25943e6062f596b5de1774e88eefc719b9ae3dbec04",
    "predict": "c94e307e7113f15fb44b14a782a4969365509ade57db0e10d2e391ea9838aab0",
    "resonance_phase": "93ad8238f96a026eeba7cbaa8bc0a9571434c8183986329564a4e4c6a36ece35",
    "s_double_pole": "d5ca0a1618c5bce317f66951a6a2944ee9878f994a2d9d34012ff2f3005d6d30",
    "s_pole_dynamic": "3eac997b2336bfb1c6e733e93f30b5467dbc3d0d333f69eaca181efa1fdad731",
    "s_pole_static": "eeb0b2f5895fdeccce659be0785e720636b64ac1521e437b7eae4b4696951acb",
    "s_unitary_product": "4ab42900c5019b205f7f238401262e5d2cca2c13713111d406c3091c55ab2bf5",
    "s_unitary_product_12": "3b6d28dd1b10502258a2ba16ea3a652ba4cd5cd7e77bf8920c9e2ac6ac5f7280",
    "trace_double_pole": "0ee4045c89d3bbbceaae09a9d962cfe57912733ae1c30083a802b5918df569a5",
    "trace_poles_dynamic": "330b5c6e308e72f036ee2168e248630a5719936714c0719ca4e6db312f021757",
    "trace_poles_static": "456b4e18224976f5cf7b969c5383616589c46153f04c658f270bec782083034c",
    "trace_product": "63ea9938d914501ef9ce7b21b198708046598b8e3f2390d773b6300ab149b32b",
}


def _large_digest(name, sizes=LARGE_SIZES):
    h = hashlib.sha256()
    for n in sizes:
        out = LARGE[name](n)
        assert out.shape == (n,)
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_grid_outputs(name):
    assert _large_digest(name) == LARGE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(LARGE))
def test_block_seam_outputs_on_threads(name, monkeypatch):
    # every grid of more than one block hands its later blocks to a
    # second thread, the one-energy last block of 32769 among them
    monkeypatch.setattr(_util, "_THREADED_SECONDS", 0.0)
    monkeypatch.setattr(_util, "_cpus", lambda: 2)
    assert _large_digest(name, SEAM_SIZES) == SEAM_GOLDEN[name]


WIDE_CONTOUR_GOLDEN = "d39af43cc7949701cfb334baa4d60d28c41f96bde0b13e848549a4cb800dafd2"


def test_wide_contours():
    # contours wider than one block of energies, each block making its own
    # factors; recorded with whole rows
    h = hashlib.sha256()
    for m, n, rows in ((TWELVE, 40000, 5), (THREE, 16385, 3), (TWO, 32769, 2)):
        c = contour(m, EnergyGrid(-6.0, 6.0, n), -1.0, 2.0, rows)
        assert c.sigma.shape == (rows, n)
        h.update(c.sigma.tobytes())
    assert h.hexdigest() == WIDE_CONTOUR_GOLDEN


FORMATTER_GOLDEN = "ee688fa34b577ce9ec3e037ffb77c94e2dcb081127a163c5e7332a66a26d9df0"


def _formatter_digest():
    """Every CSV writer on doubles of every formatting class: +-0, the
    neighbours of 1e-4 and 1e15, dyadic ties, nan, inf and subnormals, in
    row counts that cross every block boundary of the writer."""
    v = float_classes(lcg_stream(17, 100000))
    finite = v[np.isfinite(v)]
    energies = np.unique(finite)
    sigma = np.abs(finite[: energies.size])
    n = v.size // 2
    texts = [
        _format_columns("energy,q", v[:n], v[n:2 * n]),
        _format_columns("h", v[:10001], v[10001:10001 * 7].reshape(10001, 6)),
        format_trace_csv(CrossSectionTrace(energies, sigma, TraceMeta("crafted"))),
        format_contour_csv(ContourGrid(finite[:3001], finite[3001:3021],
                                       np.fmod(sigma[:20 * 3001], 4.0).reshape(20, 3001))),
    ]
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("ascii"))
    return h.hexdigest()


def test_formatter_output():
    assert _formatter_digest() == FORMATTER_GOLDEN
