"""fit_fano's damped Gauss-Newton loop keeps the bits of its plain form.

`fit.fit_fano` writes the Jacobian columns and the trial residuals in place,
unpacks parameters as Python floats and takes each norm as sqrt(x.dot(x)).
Every field of its result must equal, bit for bit, that of the loop below,
which is the loop as first written: one numpy expression per formula, a new
damping matrix per trial and np.linalg.norm.  The reference also records
which branches it took, so each exit of the loop is known to be covered.
"""

import math
import struct

import numpy as np
import pytest

from test_fit import _reference_jacobian

from fanolap import (
    CrossSectionTrace,
    EnergyGrid,
    FanoProfileModel,
    Representation,
    Resonance,
    ScatteringModel,
    TraceMeta,
    figure2_model,
    fit_fano,
    initial_guess,
    predict,
    trace,
)

_U_MAX = 708.0


def _reference_profile(vec, e):
    q, e0, u, a, b = vec
    eps = 2.0 * (e - e0) / math.exp(u)
    qe = q + eps
    return a * qe * qe / (eps * eps + 1.0) + b


def _reference_fit(tr, guess=None, *, max_iter=200, tol_step=1e-10, tol_grad=1e-12,
                   damping_init=1e-3):
    """(model, residual_norm, iterations, converged, uncertainties) of the
    plain loop, and the set of branches it took."""
    e, y = tr.energies, tr.sigma
    g = initial_guess(tr) if guess is None else guess
    p = np.array([g.q, g.e0, math.log(g.gamma), g.amplitude, g.offset])
    lam = damping_init
    taken = set()
    with np.errstate(over="ignore", invalid="ignore"):
        r = y - _reference_profile(p, e)
    cost = float(r @ r)
    converged = False
    iterations = 0
    while iterations < max_iter:
        jac = _reference_jacobian(p, e)
        grad, jtj = jac.T @ r, jac.T @ jac
        del jac
        if float(np.max(np.abs(2.0 * grad))) < tol_grad:
            converged = True
            taken.add("tol_grad")
            break
        diag = np.diag(jtj).copy()
        diag = np.maximum(diag, 1e-12 * max(1.0, float(diag.max())))
        accepted = False
        while lam <= 1e15:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                step = None
                taken.add("singular")
            if step is not None and np.all(np.isfinite(step)):
                if abs(p[2] + step[2]) < _U_MAX:
                    trial = p + step
                    with np.errstate(over="ignore", invalid="ignore"):
                        r_trial = y - _reference_profile(trial, e)
                        cost_trial = float(r_trial @ r_trial)
                    if math.isfinite(cost_trial) and cost_trial <= cost:
                        accepted = True
                        break
                else:
                    taken.add("width")
            lam *= 10.0
        iterations += 1
        if not accepted:
            taken.add("exhausted")
            break
        p, r, cost = trial, r_trial, cost_trial
        lam = max(lam / 10.0, 1e-15)
        rel_step = float(np.linalg.norm(step)) / (float(np.linalg.norm(p)) + 1e-300)
        if rel_step < tol_step:
            converged = True
            taken.add("tol_step")
            break
    else:
        taken.add("max_iter")
    n = e.size
    gamma = math.exp(p[2])
    jac = _reference_jacobian(p, e)
    jac[:, 2] /= gamma
    cov = cost / (n - 5) * np.linalg.pinv(jac.T @ jac)
    uncertainties = tuple(math.sqrt(max(v, 0.0)) for v in np.diag(cov))
    model = (float(p[0]), float(p[1]), gamma, float(p[3]), float(p[4]))
    return (model, math.sqrt(cost / n), iterations, converged, uncertainties), taken


def _bits(x):
    """The IEEE bits of a float, so that -0.0 and each nan are told apart."""
    return struct.pack("<d", x)


def _result_bits(res):
    m = res.model
    return ([_bits(v) for v in (m.q, m.e0, m.gamma, m.amplitude, m.offset)],
            _bits(res.residual_norm), res.iterations, res.converged,
            [_bits(v) for v in res.parameter_uncertainties])


def _reference_bits(ref):
    model, norm, iterations, converged, uncertainties = ref
    return ([_bits(v) for v in model], _bits(norm), iterations, converged,
            [_bits(v) for v in uncertainties])


def _family(name, n):
    """The benchmark's three fit families at n rows."""
    if name == "noisy_fano":
        rng = np.random.default_rng(101)
        c = float(rng.uniform(-2.0, 2.0))
        e = np.linspace(-5.0 + c, 5.0 + c, n)
        truth = FanoProfileModel(2.0, c, 1.0, 1.0, 0.1)
        y = predict(truth, e) + rng.normal(0.0, 0.005, n)
        return CrossSectionTrace(e, y, TraceMeta("noisy_fano"))
    if name == "two_res_misfit":
        m = ScatteringModel((Resonance(0.0, 1.0), Resonance(1.0, 3.0)), 0.0)
        return trace(m, EnergyGrid(-5.0, 5.0, n), Representation.UNITARY_PRODUCT)
    return trace(figure2_model(0.7), EnergyGrid(-1.0, 1.5, n), Representation.UNITARY_PRODUCT)


# (trace, guess, fit_fano keywords, the branches the case must take)
_EXITS = {
    "max_iter": (lambda: _family("two_res_misfit", 201), None, {}, {"max_iter"}),
    # a huge initial damping leaves no trial to make
    "damping_exhausted": (lambda: _family("noisy_fano", 201), None,
                          {"damping_init": 1e16}, {"exhausted"}),
    "tol_grad": (lambda: _family("noisy_fano", 201), None, {"tol_step": 1e-300, "tol_grad": 1e-6},
                 {"tol_grad"}),
    "tol_step": (lambda: _family("noisy_fano", 201), None, {}, {"tol_step"}),
    # from a width 1e5 times the data's span, some steps would take
    # |log(gamma)| past _U_MAX; they are rejected before exp() overflows
    "width_overflow": (lambda: _family("noisy_fano", 201),
                       FanoProfileModel(-1.0, 0.0, 1e6, 4.0, 0.5), {}, {"width"}),
    # amplitude 0, q = 1 and a width of e^700 make the amplitude and offset
    # columns both exactly 1, so J^T J is singular until the damping term
    # outgrows the rounding of its diagonal
    "singular": (lambda: _family("noisy_fano", 201),
                 FanoProfileModel(1.0, 0.0, math.exp(700.0), 0.0, 0.1),
                 {"damping_init": 1e-300}, {"singular"}),
}


@pytest.mark.parametrize("n", [201, 10_000])
@pytest.mark.parametrize("name", ["noisy_fano", "two_res_misfit", "narrow_on_broad"])
def test_fit_has_the_bits_of_the_plain_loop(name, n):
    tr = _family(name, n)
    ref, _ = _reference_fit(tr)
    assert _result_bits(fit_fano(tr)) == _reference_bits(ref)


@pytest.mark.parametrize("case", sorted(_EXITS))
def test_each_exit_has_the_bits_of_the_plain_loop(case):
    make, guess, kwargs, branches = _EXITS[case]
    tr = make()
    ref, taken = _reference_fit(tr, guess, **kwargs)
    assert branches <= taken
    assert _result_bits(fit_fano(tr, guess, **kwargs)) == _reference_bits(ref)
