"""Acceptance checks for the toolkit.

One test per numbered criterion; each prints a single PASS/FAIL line (run
pytest with -s to see them all).  Tolerances are pinned, seeds are fixed,
and the expected values were frozen from independent hand and numerical
oracles before the implementation was written.

Criterion 8 pins a linear-in-separation error bound on the degenerate-pole
limit at separations {1e-2, 1e-3, 1e-4}.  The actual convergence of the
dynamic pole form to the quadratic-pole S-matrix is quadratic in the
separation, max_E |dS| = (3*sqrt(3)/4)*(sep/width)^2 + O(sep^4) peaking at
eps = +/-1/sqrt(3), so the coarsest separation exceeds its 1e-4 bound by
about 1.3x and that test fails.  The check is kept literal rather than
weakened.
"""

import math
import time

import numpy as np
import pytest

from conftest import lcg_noise

from fanolap import (
    FanoProfileModel,
    NegativeAkError,
    Representation,
    Resonance,
    ScatteringModel,
    breit_wigner_energy,
    coupling_w_static,
    cross_section,
    double_pole_fano,
    epsilon,
    fano_complex_params,
    fano_cross_section_complex,
    fano_cross_section_dynamic,
    fano_cross_section_static,
    fano_q_dynamic,
    fano_static_params,
    figure2,
    fit_fano,
    predict,
    s_double_pole,
    s_pole,
    s_unitary_product,
)
from fanolap.model import EnergyGrid
from fanolap.scan import CrossSectionTrace, TraceMeta, contour, figure1, figure2_model


def _report(num, label, ok):
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (num, label)


def _random_two_res(rng):
    # admissible: well separated poles, widths kept apart so the static
    # parametrization exists
    p1 = rng.uniform(-5.0, 5.0)
    p2 = p1 + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)
    w1 = rng.uniform(0.1, 4.0)
    w2 = w1 * rng.uniform(1.1, 3.0)
    return ScatteringModel((Resonance(p1, w1), Resonance(p2, w2)))


def test_criterion_1_unitarity():
    rng = np.random.default_rng(101)
    e = np.linspace(-30.0, 30.0, 1000)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        res = tuple(
            Resonance(rng.uniform(-10.0, 10.0), rng.uniform(0.05, 5.0))
            for _ in range(n)
        )
        m = ScatteringModel(res, delta=rng.uniform(0.0, math.pi))
        s = s_unitary_product(m, e)
        worst = max(worst, float(np.max(np.abs(np.abs(s) - 1.0))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "unitarity %.2e < 1e-12 over 200 models, %.2fs < 1s" % (worst, elapsed),
        worst < 1e-12 and elapsed < 1.0,
    )


def test_criterion_2_representation_equivalence():
    rng = np.random.default_rng(202)
    e = np.linspace(-20.0, 20.0, 10000)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = _random_two_res(rng)
        s_ref = s_unitary_product(m, e)
        for rep in (Representation.POLES_STATIC, Representation.POLES_DYNAMIC):
            dev = float(np.max(np.abs(s_pole(m, e, rep) - s_ref)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "pole forms vs product %.2e < 1e-10 over 100 models, %.2fs < 2s"
        % (worst, elapsed),
        worst < 1e-10 and elapsed < 2.0,
    )


def test_criterion_3_exact_fano_rewrite():
    rng = np.random.default_rng(303)
    e = np.linspace(-20.0, 20.0, 10000)
    worst = 0.0
    for _ in range(100):
        m = _random_two_res(rng)
        ref = cross_section(s_unitary_product(m, e))
        dev = float(np.max(np.abs(fano_cross_section_dynamic(m, 0, e) - ref)))
        worst = max(worst, dev)
        # tilt the background so the asymmetry parameter has a pole at a
        # finite energy, then probe exactly there
        tilted = ScatteringModel(m.resonances, delta=0.6)
        e_inf = breit_wigner_energy(tilted)
        if abs(e_inf) < 1e6:
            got = fano_cross_section_dynamic(tilted, 0, e_inf)
            want = cross_section(s_unitary_product(tilted, e_inf))
            assert math.isfinite(got)
            worst = max(worst, abs(got - want))
    _report(3, "stable rewrite dev %.2e < 1e-12" % worst, worst < 1e-12)


def test_criterion_4_sum_rule_and_sign():
    rng = np.random.default_rng(404)
    worst = 0.0
    signs_ok = True
    for _ in range(100):
        p = fano_static_params(_random_two_res(rng))
        worst = max(worst, abs(p.sigma_a1 + p.sigma_a2 + p.sigma_b))
        signs_ok = signs_ok and min(p.sigma_a1, p.sigma_a2) < 0.0
    _report(
        4,
        "sum rule %.2e < 1e-12 and one negative weight" % worst,
        worst < 1e-12 and signs_ok,
    )


def test_criterion_5_complex_q_equivalence():
    rng = np.random.default_rng(505)
    e = np.linspace(-15.0, 15.0, 4001)
    worst = 0.0
    raised_when_negative = True
    n_ok = n_neg = 0
    for i in range(100):
        if i % 2 == 0:
            # nearby positions keep the A_k non-negative
            p1 = rng.uniform(-2.0, 2.0)
            m = ScatteringModel(
                (
                    Resonance(p1, rng.uniform(0.5, 1.5)),
                    Resonance(p1 + rng.uniform(-0.3, 0.3), rng.uniform(2.5, 4.0)),
                )
            )
        else:
            # separated positions with similar widths force a negative A_k
            m = ScatteringModel(
                (
                    Resonance(0.0, rng.uniform(0.9, 1.0)),
                    Resonance(rng.uniform(4.0, 8.0), rng.uniform(1.05, 1.3)),
                )
            )
        p = fano_static_params(m)
        if p.a1 >= 0.0 and p.a2 >= 0.0:
            cp = fano_complex_params(p)
            dev = np.max(
                np.abs(
                    fano_cross_section_complex(p, cp, m, e)
                    - fano_cross_section_static(p, m, e)
                )
            )
            worst = max(worst, float(dev))
            n_ok += 1
        else:
            try:
                fano_complex_params(p)
            except NegativeAkError:
                pass
            else:
                raised_when_negative = False
            n_neg += 1
    _report(
        5,
        "complex route dev %.2e < 1e-12 (%d models), error raised on %d negative-A models"
        % (worst, n_ok, n_neg),
        worst < 1e-12 and raised_when_negative and n_ok >= 20 and n_neg >= 20,
    )


def test_criterion_6_figure1():
    panels = figure1(1.0)
    centers = []
    for p in panels:
        i = int(np.argmin(np.abs(p.full.energies)))
        centers.append(float(p.full.sigma[i]))
    want = [0.0, 2.0, 4.0, 2.0]
    centers_ok = all(abs(c - w) <= 1e-10 for c, w in zip(centers, want))
    sym_dev = max(
        float(np.max(np.abs(panels[i].full.sigma - panels[i].full.sigma[::-1])))
        for i in (0, 2)
    )
    e = np.linspace(-7.0, 7.0, 3001)
    closed_dev = 0.0
    for delta in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, 1.1):
        _, sig = double_pole_fano(0.0, 1.0, delta, e)
        ref = cross_section(s_double_pole(0.0, 1.0, delta, e))
        closed_dev = max(closed_dev, float(np.max(np.abs(sig - ref))))
    _report(
        6,
        "centers %s, symmetry %.2e < 1e-12, closed form %.2e < 1e-12"
        % (["%.3g" % c for c in centers], sym_dev, closed_dev),
        centers_ok and sym_dev < 1e-12 and closed_dev < 1e-12,
    )


def test_criterion_7_figure2():
    result = figure2()

    def extremum(tr, sign):
        idx = np.flatnonzero(np.abs(tr.energies) <= 0.25)
        j = idx[int(np.argmax(sign * tr.sigma[idx]))]
        return float(tr.energies[j])

    e_min = extremum(result.window.at_delta0, -1.0)
    e_max = extremum(result.breit_wigner.at_delta0, +1.0)
    g = EnergyGrid(-1.0, 1.5, 501)
    cg = contour(figure2_model(0.0), g, 0.0, 2.0 * math.pi, 37)
    period_dev = 0.0
    half = 18  # delta step is pi/18 here, so row i+18 is row i shifted by pi
    for i in range(0, 19):
        period_dev = max(
            period_dev, float(np.max(np.abs(cg.sigma[i] - cg.sigma[i + half])))
        )
    _report(
        7,
        "window min at %.4f, peak at %.4f (within 0.01), period dev %.2e < 1e-12"
        % (e_min, e_max, period_dev),
        abs(e_min) < 0.01 and abs(e_max) < 0.01 and period_dev < 1e-12,
    )


def test_criterion_8_double_pole_limit():
    gamma = 1.0
    e = np.linspace(-5.0, 5.0, 4001)
    target = s_double_pole(0.0, gamma, 0.0, e)
    errs = []
    w1s = []
    for sep in (1e-2, 1e-3, 1e-4):
        m = ScatteringModel(
            (Resonance(-sep / 2.0, gamma), Resonance(sep / 2.0, gamma))
        )
        errs.append(
            float(np.max(np.abs(s_pole(m, e, Representation.POLES_DYNAMIC) - target)))
        )
        w1s.append(abs(coupling_w_static(m).w1))
    monotone = errs[0] > errs[1] > errs[2]
    bounds_ok = all(err < 1e-2 * sep / gamma for err, sep in zip(errs, (1e-2, 1e-3, 1e-4)))
    growth_ok = all(b >= 9.0 * a for a, b in zip(w1s, w1s[1:]))
    _report(
        8,
        "errors %s vs bounds {1e-4,1e-5,1e-6}, monotone=%s, coupling growth %s"
        % (["%.3e" % x for x in errs], monotone, ["%.3g" % w for w in w1s]),
        monotone and bounds_ok and growth_ok,
    )


def test_double_pole_convergence_order():
    # criterion 8's setting, checked for the order it actually has: the
    # log-log slope of the deviation against the separation is 2
    gamma = 1.0
    e = np.linspace(-5.0, 5.0, 4001)
    target = s_double_pole(0.0, gamma, 0.0, e)
    seps = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for sep in seps:
        m = ScatteringModel((Resonance(-sep / 2.0, gamma), Resonance(sep / 2.0, gamma)))
        errs.append(np.max(np.abs(s_pole(m, e, Representation.POLES_DYNAMIC) - target)))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(seps))
    assert np.all(np.abs(slopes - 2.0) < 0.05), slopes


def test_criterion_9_fit_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst_rel = 0.0
    for _ in range(50):
        sq = 1.0 if rng.uniform() < 0.5 else -1.0
        truth = FanoProfileModel(
            sq * rng.uniform(0.5, 10.0),
            (1.0 if rng.uniform() < 0.5 else -1.0) * rng.uniform(0.5, 2.0),
            rng.uniform(0.4, 2.5),
            rng.uniform(0.5, 4.0),
            rng.uniform(0.3, 1.0),
        )
        e = np.linspace(truth.e0 - 10 * truth.gamma, truth.e0 + 10 * truth.gamma, 301)
        tr = CrossSectionTrace(e, predict(truth, e), TraceMeta("synthetic"))
        res = fit_fano(tr)
        for name in ("q", "e0", "gamma", "amplitude", "offset"):
            rel = abs(getattr(res.model, name) - getattr(truth, name)) / abs(
                getattr(truth, name)
            )
            worst_rel = max(worst_rel, rel)

    worst_q_rel = 0.0
    accepted = 0
    seed = 0
    while accepted < 12:
        seed += 1
        sq = 1.0 if (seed % 2) else -1.0
        truth = FanoProfileModel(
            sq * (0.5 + 0.35 * (seed % 13)),
            0.1 * (seed % 7) - 0.3,
            0.5 + 0.1 * (seed % 11),
            0.3 + 0.08 * (seed % 9),
            0.8,
        )
        if abs(truth.q) > 5.0:
            continue
        e = np.linspace(truth.e0 - 8 * truth.gamma, truth.e0 + 8 * truth.gamma, 241)
        clean = predict(truth, e)
        noisy = clean + 0.01 * float(np.max(np.abs(clean))) * lcg_noise(seed, e.size)
        if np.min(noisy) < 0.0:
            continue
        accepted += 1
        res = fit_fano(CrossSectionTrace(e, noisy, TraceMeta("noisy")))
        worst_q_rel = max(worst_q_rel, abs(res.model.q - truth.q) / abs(truth.q))
    elapsed = time.perf_counter() - start
    _report(
        9,
        "noiseless rel %.2e < 1e-6, noisy q rel %.2e < 5e-2, %.2fs < 5s"
        % (worst_rel, worst_q_rel, elapsed),
        worst_rel < 1e-6 and worst_q_rel < 5e-2 and elapsed < 5.0,
    )


def test_criterion_10_q_limits():
    m0 = ScatteringModel((Resonance(0.0, 1.0), Resonance(0.5, 1.0)))
    e = np.linspace(-8.0, 8.0, 8001)
    dev0 = float(np.max(np.abs(fano_q_dynamic(m0, 0, e) - epsilon(m0.resonances[1], e))))

    def probe(eps2, delta):
        m = ScatteringModel(
            (Resonance(0.0, 1.0), Resonance(-eps2, 2.0)), delta=delta
        )
        return fano_q_dynamic(m, 0, 0.0)

    dev_cot = max(
        abs(probe(eps2, d) + 1.0 / math.tan(d))
        for eps2 in (1e7, -1e7, 3e7, 1e9)
        for d in (0.4, math.pi / 3, math.pi / 2, 2 * math.pi / 3)
    )
    dev_tan = max(
        abs(probe(eps2, d) - math.tan(d))
        for eps2 in (1e-7, -1e-7, 1e-8)
        for d in (math.pi / 6, math.pi / 4, 1.0)
    )
    _report(
        10,
        "delta=0 dev %.2e < 1e-12, cot limit %.2e < 1e-6, tan limit %.2e < 1e-6"
        % (dev0, dev_cot, dev_tan),
        dev0 < 1e-12 and dev_cot < 1e-6 and dev_tan < 1e-6,
    )
