"""The benchmark's three workloads.

Each workload builds its inputs from a seed (set-up), yields one pass of a
fixed operation mix, and says how to check every operation's output.  The
seed changes values only -- noise realisations, the random multi-resonance
model and model positions -- never the grid sizes or the mix, so metric
levels stay comparable across seeds.

Every workload is a closed loop with one client: the harness starts an
operation only after the previous one has finished.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fanolap as F
import fanolap.cli

REP = F.Representation

# Pointwise agreement demanded between two closed forms of the same
# quantity.  Cross sections are O(1) (at most 4); the forms agree to a few
# 1e-15 on the seed models, so 1e-12 leaves a wide margin for rounding while
# still catching any real formula error.
AGREE_TOL = 1e-12

# noisy_fano must recover its truth within this many reported standard
# uncertainties (a 5-sigma test, so a correct fitter fails it about once in
# two million parameters).
TRUTH_SIGMAS = 5.0
NOISE_STD = 0.005


@dataclass
class Op:
    """One operation of a pass.

    ``run`` does the timed work.  ``check`` lists the problems found in its
    output (empty when correct); ``summary`` returns (digest, counts) of the
    output, used to confirm that later passes repeat a checked one exactly.
    ``points`` is the grid points, contour cells or trace rows processed.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    summary: Callable[[Any], tuple]
    points: int
    small: bool = False


def interleave(big, small):
    """Spread the small operations evenly between the large ones.

    A shared machine can switch between a fast and a slow state (1.6x
    apart was seen on a 2-vCPU VM) every few seconds; small calls run in one
    burst would all land in one state, so each pass samples them throughout.
    """
    out = []
    for i, op in enumerate(big):
        out.append(op)
        out += small[i * len(small) // len(big):(i + 1) * len(small) // len(big)]
    return out


def _digest(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, (bytes, bytearray, memoryview)) else np.ascontiguousarray(c))
    return h.hexdigest()


def _bitwise_equal(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _maxdev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _check_bound(problems, sigma, what):
    top = float(np.max(sigma))
    if top > 4.0 + F.scan.UNITARITY_SLACK:
        problems.append("%s: max sigma - 4 = %.3g exceeds UNITARITY_SLACK" % (what, top - 4.0))
    if float(np.min(sigma)) < 0.0:
        problems.append("%s: negative cross section" % what)


def _shifted_pair(c, delta=0.0):
    """The paper's (0, 1), (1, 3) model moved by c along the energy axis."""
    return F.ScatteringModel((F.Resonance(c, 1.0), F.Resonance(1.0 + c, 3.0)), delta)


# ---------------------------------------------------------------- cli_figures

CALL_TIMEOUT_S = 60  # a hung subprocess is killed and counted as a failure
CLI_SIZES = {"n_big": 100001, "n_small": 1001, "contour_n": 1001, "ndelta": 181}


def _parse_table(text, header):
    """Parse the CLI's CSV text independently of fanolap's reader."""
    lines = text.split("\n")
    if lines[0] != header:
        raise ValueError("header %r, expected %r" % (lines[0][:40], header[:40]))
    if lines[-1] != "":
        raise ValueError("missing final newline")
    body = lines[1:-1]
    values = np.array(",".join(body).split(","), dtype=float)
    return values.reshape(len(body), -1)


def _check_trace_file(path, header, energies, values):
    table = _parse_table(path.read_text(encoding="utf-8"), header)
    if table.shape != (energies.size, 2):
        return ["%s: %d rows x %d columns, expected %d x 2"
                % (path.name, table.shape[0], table.shape[1], energies.size)]
    problems = []
    if not _bitwise_equal(table[:, 0], energies):
        problems.append("%s: energies differ from the library grid" % path.name)
    if not _bitwise_equal(table[:, 1], values):
        problems.append("%s: values differ bitwise from the library evaluation" % path.name)
    return problems


def _check_contour_file(path, cg):
    lines = path.read_text(encoding="utf-8").split("\n")
    head = np.array(lines[0].split(",")[1:], dtype=float)
    rows = _parse_table("\n".join(["x"] + lines[1:]), "x")
    problems = []
    if rows.shape != (cg.deltas.size, cg.energies.size + 1):
        return ["%s: shape %r, expected %r"
                % (path.name, rows.shape, (cg.deltas.size, cg.energies.size + 1))]
    if not (_bitwise_equal(head, cg.energies) and _bitwise_equal(rows[:, 0], cg.deltas)):
        problems.append("%s: axes differ from the library grid" % path.name)
    if not _bitwise_equal(rows[:, 1:], cg.sigma):
        problems.append("%s: values differ bitwise from the library evaluation" % path.name)
    _check_bound(problems, rows[:, 1:], path.name)
    return problems


def _check_json_file(path, expected):
    got = json.loads(path.read_text(encoding="utf-8"))
    if got != expected:
        return ["%s: content differs from the library evaluation" % path.name]
    return []


def _params_body(m):
    """The fields `fanolap params` must print, from the library directly."""
    p = F.fano_static_params(m)
    cp = F.fano_complex_params(p)
    return {
        "static": {k: getattr(p, k) for k in ("q", "a1", "a2", "sigma_a1", "sigma_a2", "sigma_b")},
        "complex": {
            "q1": {"re": cp.q1.real, "im": cp.q1.imag},
            "q2": {"re": cp.q2.real, "im": cp.q2.imag},
        },
        "complex_error": None,
    }


def child_env():
    """Environment for child processes: this fanolap first on the path."""
    src = str(Path(F.__file__).resolve().parent.parent)
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, old] if old else [src]))


def _roundtrip_json(obj):
    return json.loads(json.dumps(obj))


class CliFigures:
    """A fixed mix of CLI subcommands, each run as its own process.

    Process start, imports, CSV formatting and the atomic write dominate;
    S evaluation and fitting do little.  The traced run replays the same
    argument lists in-process through ``fanolap.cli.run``.
    """

    name = "cli_figures"
    min_passes = 7
    peak_rss_children = True

    def __init__(self, sizes=None):
        self.sizes = dict(CLI_SIZES, **(sizes or {}))

    def setup(self, work, seed):
        """Write the model files and evaluate every expected output in-process."""
        z = self.sizes
        rng = np.random.default_rng(seed)
        c = float(rng.uniform(-2.0, 2.0))
        a = _shifted_pair(c)
        b = _shifted_pair(c, 0.25 * math.pi)
        work.mkdir(parents=True, exist_ok=True)
        F.save_model(a, work / "model_a.json")
        F.save_model(b, work / "model_b.json")

        def grid(n, half=5.0):
            return F.EnergyGrid(-half + c, half + c, n)

        def gflags(g):
            return ["--emin", repr(g.e_min), "--emax", repr(g.e_max), "--n", str(g.n_points)]

        g_big, g_small, g_cmp = grid(z["n_big"]), grid(z["n_small"]), grid(z["n_big"], 10.0)
        g_con = grid(z["contour_n"])
        prod = F.trace(a, g_big, REP.UNITARY_PRODUCT)
        small = F.trace(b, g_small, REP.UNITARY_PRODUCT)
        e_q = g_big.points()
        qv = F.fano_q_dynamic(b, 0, e_q)
        cg = F.contour(a, g_con, 0.0, math.pi, z["ndelta"])
        fig1 = F.figure1(1.0)
        fig2 = F.figure2()
        params_ref = _params_body(a)
        cmp_ref = _roundtrip_json(F.compare_representations(a, g_cmp))
        fit_ref = _roundtrip_json(F.fit_result_to_dict(F.fit_fano(small)))
        W = str(work)
        ma, mb = str(work / "model_a.json"), str(work / "model_b.json")

        def trace_file(name, tr, header="energy,sigma"):
            return (work / name, lambda p: _check_trace_file(p, header, tr.energies, tr.sigma))

        fig1_files = []
        for label, panel in zip("abcd", fig1):
            fig1_files.append(trace_file("fig1/fig1%s_full.csv" % label, panel.full))
            fig1_files.append(trace_file("fig1/fig1%s_dashed.csv" % label, panel.dashed))
        fig2_files = []
        for label, v in (("a", fig2.window), ("b", fig2.breit_wigner)):
            for part in ("delta0", "minus", "plus"):
                tr = v.at_delta0 if part == "delta0" else getattr(v, part)
                fig2_files.append(trace_file("fig2/fig2%s_%s.csv" % (label, part), tr))
        fig2_files.append((work / "fig2/fig2_contour.csv",
                           lambda p: _check_contour_file(p, fig2.contour)))
        fig_pts = sum(p.full.energies.size for p in fig1)
        fig2_pts = 6 * fig2.window.minus.energies.size + fig2.contour.sigma.size

        # (name, argv, expected files, points, small)
        calls = [
            ("trace_product", ["trace", "--model", ma] + gflags(g_big)
             + ["--repr", "product", "--out", W + "/trace_product.csv"],
             [trace_file("trace_product.csv", prod)], g_big.n_points, False),
            ("trace_small", ["trace", "--model", mb] + gflags(g_small)
             + ["--out", W + "/trace_small.csv"],
             [trace_file("trace_small.csv", small)], g_small.n_points, True),
            ("qscan", ["qscan", "--model", mb] + gflags(g_big) + ["--out", W + "/qscan.csv"],
             [(work / "qscan.csv", lambda p: _check_trace_file(p, "energy,q", e_q, qv))],
             g_big.n_points, False),
            ("contour", ["contour", "--model", ma] + gflags(g_con)
             + ["--ndelta", str(z["ndelta"]), "--out", W + "/contour.csv"],
             [(work / "contour.csv", lambda p: _check_contour_file(p, cg))],
             cg.sigma.size, False),
            ("fig1", ["fig1", "--gamma", "1", "--out", W + "/fig1"], fig1_files, fig_pts, False),
            ("fig2", ["fig2", "--out", W + "/fig2"], fig2_files, fig2_pts, False),
            ("params", ["params", "--model", ma, "--out", W + "/params.json"],
             [(work / "params.json", lambda p: _check_json_file(p, params_ref))], 0, True),
            ("compare", ["compare", "--model", ma] + gflags(g_cmp) + ["--out", W + "/compare.json"],
             [(work / "compare.json", lambda p: _check_json_file(p, cmp_ref))],
             g_cmp.n_points, False),
            ("fit", ["fit", "--data", W + "/trace_small.csv", "--out", W + "/fit.json"],
             [(work / "fit.json", lambda p: _check_json_file(p, fit_ref))],
             g_small.n_points, True),
        ]
        return {"calls": calls}

    def ops(self, state, inprocess=False):
        env = child_env()
        ops = []
        for name, argv, files, points, small in state["calls"]:
            if inprocess:
                def run(argv=argv):
                    return F.cli.run(list(argv))
            else:
                def run(argv=argv):
                    cmd = [sys.executable, "-c", "from fanolap.cli import main; main()"] + argv
                    return subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                          timeout=CALL_TIMEOUT_S).returncode

            def check(code, files=files):
                if code != 0:
                    return ["exit code %r" % code]
                problems = []
                for path, check_file in files:
                    if not path.is_file():
                        problems.append("%s: missing" % path.name)
                        continue
                    try:
                        problems += check_file(path)
                    except ValueError as err:
                        problems.append("%s: unreadable: %s" % (path.name, err))
                return problems

            def summary(code, files=files, name=name):
                blobs = [p.read_bytes() if p.is_file() else b"" for p, _ in files]
                counts = {"bytes_written": sum(len(x) for x in blobs)}
                if name == "fit" and blobs[0]:
                    counts["iterations"] = json.loads(blobs[0])["iterations"]
                return _digest(str(code).encode(), *blobs), counts

            ops.append(Op(name, run, check, summary, points, small))
        return ops


# ----------------------------------------------------------------- grid_sweep

GRID_SIZES = {"n_big": 1_000_000, "contour_big": (2001, 361),
              "n_small": 64, "contour_small": (8, 8), "small_reps": 10}


def _noninteracting_reference(m, e):
    """sum_k 4*sin^2(delta - arccot eps_k), written as cos^2 of arctan."""
    total = np.zeros(e.shape)
    for r in m.resonances:
        total += 4.0 * np.cos(m.delta + np.arctan(2.0 * (e - r.position) / r.width)) ** 2
    return total


class GridSweep:
    """In-process library calls on large grids, and the same calls on tiny
    ones for the per-call-overhead regime.

    Runs on the paper's two-resonance model and on a seeded 12-resonance
    model, because the product form, q~ and the noninteracting sum loop over
    resonances.  No start-up, formatting or file I/O.
    """

    name = "grid_sweep"
    min_passes = 7
    peak_rss_children = False

    def __init__(self, sizes=None):
        self.sizes = dict(GRID_SIZES, **(sizes or {}))

    def setup(self, work, seed):
        """Build the models and grids, and the product-form references."""
        z = self.sizes
        rng = np.random.default_rng(seed)
        c = float(rng.uniform(-2.0, 2.0))
        m2 = _shifted_pair(c)
        m1 = F.ScatteringModel((F.Resonance(c, 1.0),), 0.3)
        m12 = F.ScatteringModel(
            tuple(F.Resonance(p, w) for p, w in zip(c + rng.uniform(-8.0, 8.0, 12),
                                                    rng.uniform(0.2, 3.0, 12))),
            float(rng.uniform(0.0, math.pi)))
        sizes = {}
        for label, n, (cn, cd) in (("big", z["n_big"], z["contour_big"]),
                                   ("small", z["n_small"], z["contour_small"])):
            g = F.EnergyGrid(-10.0 + c, 10.0 + c, n)
            e = g.points()
            ref = {"g": g, "e": e, "cg": F.EnergyGrid(-10.0 + c, 10.0 + c, cn), "nd": cd}
            for key, m in (("m2", m2), ("m12", m12)):
                s = F.s_unitary_product(m, e)
                ref[key] = (s, F.cross_section(s))
            pole = m1.resonances[0]
            ref["m1"] = F.cross_section(F.s_unitary_product(
                F.ScatteringModel((pole, pole), m1.delta), e))
            sizes[label] = ref
        return {"m1": m1, "m2": m2, "m12": m12, "sizes": sizes}

    def ops(self, state, inprocess=True):
        z = self.sizes
        models = {"m1": state["m1"], "m2": state["m2"], "m12": state["m12"]}
        big = self._ops(models, state["sizes"]["big"], "big")
        small = self._ops(models, state["sizes"]["small"], "small")
        return interleave(big, small * z["small_reps"])

    def _ops(self, models, ref, label):
        g, e = ref["g"], ref["e"]
        small = label == "small"
        ops = []

        def agree(key, what):
            s_ref, sig_ref = ref[key]

            def check(sigma):
                problems = []
                unit = _maxdev(np.abs(s_ref), 1.0)
                if unit > AGREE_TOL:
                    problems.append("%s: max ||S| - 1| = %.3g" % (what, unit))
                dev = _maxdev(sigma, sig_ref)
                if dev > AGREE_TOL:
                    problems.append("%s: deviates from the product form by %.3g" % (what, dev))
                _check_bound(problems, sigma, what)
                return problems
            return check

        def arrays(result):
            return _digest(result), {"points": int(np.size(result))}

        def add(name, run, check, points=e.size, summary=arrays):
            ops.append(Op("%s.%s" % (name, label), run, check, summary, points, small))

        m1, m2, m12 = models["m1"], models["m2"], models["m12"]
        for rep in (REP.UNITARY_PRODUCT, REP.POLES_STATIC, REP.POLES_DYNAMIC):
            add("trace.%s.n2" % rep.value, lambda rep=rep: F.trace(m2, g, rep).sigma,
                agree("m2", "trace %s" % rep.value))
        add("trace.product.n12", lambda: F.trace(m12, g, REP.UNITARY_PRODUCT).sigma,
            agree("m12", "trace product n12"))

        def check_double(sigma):
            dev = _maxdev(sigma, ref["m1"])
            problems = [] if dev <= AGREE_TOL else [
                "double pole deviates from the product form by %.3g" % dev]
            _check_bound(problems, sigma, "double pole")
            return problems
        add("trace.double-pole.n1", lambda: F.trace(m1, g, REP.DOUBLE_POLE).sigma, check_double)

        for key, m in (("m2", m2), ("m12", m12)):
            sig_ref = ref[key][1]

            def check_q(q, m=m, sig_ref=sig_ref, key=key):
                # the Fano rewrite of sigma with q~ must reproduce the
                # product form where q~ is finite and moderate
                eps = 2.0 * (e - m.resonances[0].position) / m.resonances[0].width
                ok = np.isfinite(q) & (np.abs(q) < 1e3)
                fano = 4.0 * (q + eps) ** 2 / ((1.0 + q * q) * (1.0 + eps * eps))
                dev = _maxdev(fano[ok], sig_ref[ok]) if ok.any() else 0.0
                problems = []
                if dev > AGREE_TOL:
                    problems.append("q~ %s: Fano rewrite deviates by %.3g" % (key, dev))
                if ok.mean() < 0.9:
                    problems.append("q~ %s: only %.2f of q~ values finite" % (key, ok.mean()))
                return problems
            add("fano_q_dynamic.%s" % key, lambda m=m: F.fano_q_dynamic(m, 0, e), check_q)
            add("fano_cross_section_dynamic.%s" % key,
                lambda m=m: F.fano_cross_section_dynamic(m, 0, e),
                agree(key, "stable-form sigma %s" % key))

            def check_ni(total, m=m, key=key):
                dev = _maxdev(total, _noninteracting_reference(m, e))
                tol = AGREE_TOL * len(m.resonances)
                return [] if dev <= tol else ["noninteracting %s deviates by %.3g" % (key, dev)]
            add("cross_section_noninteracting.%s" % key,
                lambda m=m: F.cross_section_noninteracting(m, e), check_ni)

        check_static_sigma = agree("m2", "static-parameter sigma")

        def check_static(sigma):
            p = F.fano_static_params(m2)
            problems = check_static_sigma(sigma)
            total = p.sigma_a1 + p.sigma_a2 + p.sigma_b
            if abs(total) > AGREE_TOL:
                problems.append("sum rule residual %.3g" % total)
            return problems
        add("fano_cross_section_static.m2",
            lambda: F.fano_cross_section_static(F.fano_static_params(m2), m2, e), check_static)

        def check_compare(report):
            pairs = report["pairs"]
            problems = []
            if not report["poles_static_applicable"] or len(pairs) != 3:
                problems.append("compare: static poles reported inapplicable")
            for key, stats in pairs.items():
                if not stats["max_abs_dev"] <= AGREE_TOL:
                    problems.append("compare %s: %.3g" % (key, stats["max_abs_dev"]))
            return problems

        def summary_compare(report):
            return _digest(json.dumps(report, sort_keys=True).encode()), {"points": g.n_points}
        add("compare_representations.m2", lambda: F.compare_representations(m2, g),
            check_compare, summary=summary_compare)

        cg, nd = ref["cg"], ref["nd"]
        for key, m in (("m2", m2), ("m12", m12)):
            def check_contour(grid, m=m, key=key):
                if grid.sigma.shape != (nd, cg.n_points):
                    return ["contour %s: shape %r" % (key, grid.sigma.shape)]
                problems = []
                _check_bound(problems, grid.sigma, "contour %s" % key)
                for i in (0, nd // 2, nd - 1):
                    row_model = F.ScatteringModel(m.resonances, float(grid.deltas[i]))
                    row = F.cross_section(F.s_unitary_product(row_model, grid.energies))
                    dev = _maxdev(grid.sigma[i], row)
                    if dev > AGREE_TOL:
                        problems.append("contour %s row %d deviates by %.3g" % (key, i, dev))
                return problems

            def summary_contour(grid):
                digest = _digest(grid.energies, grid.deltas, grid.sigma)
                return digest, {"points": int(grid.sigma.size)}
            add("contour.%s" % key, lambda m=m: F.contour(m, cg, 0.0, math.pi, nd),
                check_contour, points=cg.n_points * nd, summary=summary_contour)
        return ops


# -------------------------------------------------------------- fit_roundtrip

FIT_SIZES = {"small": 201, "medium": 10_000, "large": 200_000}
# The 201-point fits run this many times per pass, spread between the
# larger fits (see interleave).
SMALL_REPS = 5
FIT_FAMILIES = ("noisy_fano", "two_res_misfit", "narrow_on_broad")


class FitRoundtrip:
    """read_trace_csv -> fit_fano -> format_fit_json on trace CSVs written at
    set-up, for three profile families at three sizes.

    Fitter iterations and CSV parsing dominate.  The files use the trace
    format `fanolap trace` writes, so a trace-I/O change that speeds up
    writing but slows reading shows here.
    """

    name = "fit_roundtrip"
    min_passes = 7
    peak_rss_children = False

    def __init__(self, sizes=None):
        self.sizes = dict(FIT_SIZES, **(sizes or {}))

    def setup(self, work, seed):
        """Write the nine trace CSVs through fanolap's own trace writer.

        The seed moves noisy_fano's centre and draws its noise.  The two
        noise-free profiles stay where the paper puts them: shifting them
        changes their iteration counts (53-67 for two_res_misfit at 1e4
        rows), that is, the amount of work.
        """
        rng = np.random.default_rng(seed)
        c = float(rng.uniform(-2.0, 2.0))
        truth = F.FanoProfileModel(q=2.0, e0=c, gamma=1.0, amplitude=1.0, offset=0.1)
        narrow = F.figure2_model(0.7)
        work.mkdir(parents=True, exist_ok=True)
        cases = []
        for label, n in self.sizes.items():
            e = np.linspace(-5.0 + c, 5.0 + c, n)
            y = F.predict(truth, e) + rng.normal(0.0, NOISE_STD, n)
            traces = {
                "noisy_fano": F.CrossSectionTrace(e, y, F.TraceMeta("noisy_fano")),
                "two_res_misfit": F.trace(_shifted_pair(0.0), F.EnergyGrid(-5.0, 5.0, n),
                                          REP.UNITARY_PRODUCT),
                "narrow_on_broad": F.trace(narrow, F.EnergyGrid(-1.0, 1.5, n),
                                           REP.UNITARY_PRODUCT),
            }
            for family in FIT_FAMILIES:
                tr = traces[family]
                path = work / ("%s.%s.csv" % (family, label))
                path.write_text(F.format_trace_csv(tr), encoding="utf-8")
                cases.append(("%s.%s" % (family, label), path, tr, label))
        return {"cases": cases, "truth": truth}

    def ops(self, state, inprocess=True):
        ops = []
        for name, path, tr, label in state["cases"]:
            def run(path=path):
                data = F.read_trace_csv(path)
                res = F.fit_fano(data)
                return data, res, F.format_fit_json(res)

            def check(out, tr=tr, name=name):
                data, res, text = out
                problems = []
                if not (_bitwise_equal(data.energies, tr.energies)
                        and _bitwise_equal(data.sigma, tr.sigma)):
                    problems.append("%s: trace read back differs from the one written" % name)
                if json.loads(text) != _roundtrip_json(F.fit_result_to_dict(res)):
                    problems.append("%s: fit JSON does not match the fit result" % name)
                if not math.isfinite(res.residual_norm) or res.iterations < 1:
                    problems.append("%s: no usable fit" % name)
                if name.startswith("noisy_fano"):
                    problems += self._check_truth(name, res, state["truth"])
                return problems

            def summary(out):
                data, res, text = out
                fitted = json.dumps(F.fit_result_to_dict(res), sort_keys=True)
                digest = _digest(text.encode(), fitted.encode(), data.energies, data.sigma)
                return digest, {"iterations": res.iterations, "rows": int(data.energies.size)}
            ops.append(Op(name, run, check, summary, tr.energies.size, label == "small"))
        return interleave([op for op in ops if not op.small],
                          [op for op in ops if op.small] * SMALL_REPS)

    @staticmethod
    def _check_truth(name, res, truth):
        if not res.converged:
            return ["%s: did not converge" % name]
        problems = []
        fields = ("q", "e0", "gamma", "amplitude", "offset")
        for field, unc in zip(fields, res.parameter_uncertainties):
            miss = abs(getattr(res.model, field) - getattr(truth, field))
            if not miss <= TRUTH_SIGMAS * unc:
                problems.append("%s: %s off by %.3g, uncertainty %.3g" % (name, field, miss, unc))
        return problems


WORKLOADS = {w.name: w for w in (CliFigures, GridSweep, FitRoundtrip)}
