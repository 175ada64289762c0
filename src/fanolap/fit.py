"""Asymmetric line-profile fitting by damped Gauss-Newton least squares.

The profile is

    sigma(E) = amplitude*(q + eps)^2/(eps^2 + 1) + offset,
    eps      = 2*(E - e0)/gamma,

a Fano shape on a constant offset.  The solver optimizes log(gamma)
internally, which makes gamma > 0 structural rather than a constraint, and
uses analytic derivatives throughout.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._util import _count, _json_text, _pointwise, _real
from .errors import BadInitialGuess, InsufficientData
from .model import _WEIGHTED_EPS_CAP, _capped_eps, _eps
# read_trace_csv lives with the trace CSV writer; it stays public here too
from .scan import read_trace_csv

__all__ = [
    "FanoProfileModel",
    "FanoFitResult",
    "predict",
    "initial_guess",
    "fit_fano",
    "read_trace_csv",
    "fit_result_to_dict",
    "format_fit_json",
]

_PARAM_NAMES = ("q", "e0", "gamma", "amplitude", "offset")
_U_MAX = 708.0  # |log(gamma)| up to which exp() gives a normal, finite width


@dataclass(frozen=True)
class FanoProfileModel:
    """Profile parameters; gamma must be positive, the rest finite reals.

    The sign convention is fixed by gamma > 0: flipping the signs of q and
    gamma together would leave the profile unchanged, so only the gamma > 0
    branch is represented.
    """

    q: float
    e0: float
    gamma: float
    amplitude: float
    offset: float

    def __post_init__(self):
        for name in _PARAM_NAMES:
            value = _real(getattr(self, name), name, positive=name == "gamma")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class FanoFitResult:
    """Fit outcome; parameter_uncertainties follows the field order of
    FanoProfileModel.  converged=False is a result, not an error."""

    model: FanoProfileModel
    residual_norm: float
    iterations: int
    converged: bool
    parameter_uncertainties: tuple


def _profile(q, a, b, eps):
    qe = q + eps
    f = a * qe  # a*qe*qe/(eps*eps + 1.0) + b, finished in f and eps
    f *= qe
    f /= np.add(np.multiply(eps, eps, out=eps), 1.0, out=eps)
    f += b
    return f


def predict(p, energy):
    """Evaluate the profile at the given energies; far energies, infinite
    ones included, give its limit amplitude + offset."""
    return _pointwise(lambda e: _profile(p.q, p.amplitude, p.offset,
                                         _capped_eps(e, p.e0, p.gamma, _WEIGHTED_EPS_CAP)),
                      energy)


def _pack(p):
    return np.array([p.q, p.e0, math.log(p.gamma), p.amplitude, p.offset])


def _unpack(vec):
    q, e0, u, a, b = vec
    return FanoProfileModel(q, e0, math.exp(u), a, b)


def _profile_internal(vec, energy):
    q, e0, u, a, b = vec.tolist()
    gamma = math.exp(u)
    return _pointwise(lambda e: _profile(q, a, b, _eps(e, e0, gamma)), energy)


def _jacobian_internal(vec, energy):
    """Derivatives of the profile with respect to (q, e0, log gamma,
    amplitude, offset), one column each."""
    q, e0, u, a, _ = vec.tolist()
    gamma = math.exp(u)
    def rows(e):
        # 2*a*qe/denom, then d f/d eps = 2*a*qe*(1 - q*eps)/denom^2 by the chain
        # rule (d eps/d e0 = -2/gamma, d f/d log(gamma) = -eps*dfdeps): in place
        jac = np.empty((e.size, 5))
        eps = _eps(e, e0, gamma)
        denom = eps * eps
        denom += 1.0
        qe = q + eps
        dfdeps = 2.0 * a * qe
        np.divide(dfdeps, denom, out=jac[:, 0])
        tmp = q * eps
        dfdeps *= np.subtract(1.0, tmp, out=tmp)
        dfdeps /= np.multiply(denom, denom, out=tmp)
        np.multiply(dfdeps, -2.0 / gamma, out=jac[:, 1])
        np.multiply(dfdeps, np.negative(eps, out=eps), out=jac[:, 2])
        qe *= qe
        np.divide(qe, denom, out=jac[:, 3])
        jac[:, 4] = 1.0
        return jac
    return _pointwise(rows, energy)


def _normal_equations(vec, e, r):
    """J^T r and J^T J of the Jacobian J at vec, which is freed on return,
    so the next Jacobian is never made while this one is alive."""
    jt = _jacobian_internal(vec, e).T
    return jt.dot(r), jt.dot(jt.T)


def initial_guess(trace):
    """Deterministic starting point read off the data.

    offset is the median; e0 sits at the largest deviation from it; gamma is
    the full width at half that deviation (a tenth of the span when no
    half-crossing exists); the sign of q comes from the asymmetry of the
    deviation around e0.  A constant trace is flagged degenerate by
    amplitude 0.
    """
    e = trace.energies
    y = trace.sigma
    if e.size < 5:
        raise InsufficientData("initial_guess needs at least 5 points, got %d" % e.size)
    offset = float(np.median(y))
    dev = y - offset
    absdev = np.abs(dev)
    i0 = int(np.argmax(absdev))
    e0 = float(e[i0])
    peak = float(dev[i0])
    span = float(e[-1] - e[0])
    step = span / (e.size - 1)
    if abs(peak) <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        return FanoProfileModel(0.0, e0, span / 10.0, 0.0, offset)
    half = 0.5 * abs(peak)
    # nearest points on either side of e0 where the deviation drops below half
    below = np.flatnonzero(absdev < half)
    k = int(np.searchsorted(below, i0))
    left = float(e[below[k - 1]]) if k > 0 else None
    right = float(e[below[k]]) if k < below.size else None
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
    asym = right_sum - left_sum
    if peak < 0.0:
        # window-type dip: center at the offset minus depth, background above
        return FanoProfileModel(0.0, e0, gamma, -peak, offset + peak)
    sign = 1.0 if asym >= 0.0 else -1.0
    amplitude = peak / 3.0
    return FanoProfileModel(2.0 * sign, e0, gamma, amplitude, offset - amplitude)


def fit_fano(trace, guess=None, *, max_iter=200, tol_step=1e-10, tol_grad=1e-12,
             damping_init=1e-3):
    """Least-squares fit of the profile to a trace.

    Damped Gauss-Newton iteration: a step solves the normal equations with
    a multiplicative damping term on the diagonal; the damping shrinks by
    10 after an accepted (cost-reducing) step and grows by 10 after a
    rejected one, so the accepted cost sequence is monotone.  Terminates on
    a relative step below tol_step, a cost-gradient infinity norm below
    tol_grad, or max_iter iterations; only the first two count as
    convergence.  Uncertainties are linearized estimates from the final
    normal equations, scaled by the residual variance.
    """
    e = trace.energies
    y = trace.sigma
    if e.size < 6:
        raise InsufficientData("fit_fano needs at least 6 points, got %d" % e.size)
    if guess is None:
        guess = initial_guess(trace)
    max_iter = _count(max_iter, "max_iter", least=1)
    tol_step = _real(tol_step, "tol_step", positive=True)
    tol_grad = _real(tol_grad, "tol_grad", positive=True)
    lam = _real(damping_init, "damping_init", positive=True)

    p = _pack(guess)
    with np.errstate(over="ignore", invalid="ignore"):
        r = _profile_internal(p, e)
        np.subtract(y, r, out=r)
    if not np.isfinite(r).all():
        raise BadInitialGuess("starting parameters give non-finite residuals")
    cost = float(r.dot(r))

    converged = False
    iterations = 0
    while iterations < max_iter:
        grad, jtj = _normal_equations(p, e, r)
        # every |2*g| below tol_grad: their max, and false if one is nan
        if all(abs(2.0 * g) < tol_grad for g in grad.tolist()):
            converged = True
            break
        diag = jtj.diagonal()
        damping = np.diag(np.maximum(diag, 1e-12 * max(1.0, float(diag.max()))))
        while lam <= 1e15:
            try:
                step = np.linalg.solve(jtj + lam * damping, grad)
            except np.linalg.LinAlgError:
                step = None
            # a step whose width exp() cannot represent is rejected
            if (step is not None and all(map(math.isfinite, step.tolist()))
                    and abs(p[2] + step[2]) < _U_MAX):
                trial = p + step
                with np.errstate(over="ignore", invalid="ignore"):
                    r_trial = _profile_internal(trial, e)
                    np.subtract(y, r_trial, out=r_trial)
                    cost_trial = float(r_trial.dot(r_trial))
                if math.isfinite(cost_trial) and cost_trial <= cost:
                    break
            lam *= 10.0
        iterations += 1
        if lam > 1e15:  # no trial step was accepted
            break
        p, r, cost = trial, r_trial, cost_trial
        lam = max(lam / 10.0, 1e-15)
        # np.linalg.norm's own formula for a 1-d float array
        rel_step = math.sqrt(step.dot(step)) / (math.sqrt(p.dot(p)) + 1e-300)
        if rel_step < tol_step:
            converged = True
            break

    model = _unpack(p)
    n = e.size
    residual_norm = math.sqrt(cost / n)
    jac = _jacobian_internal(p, e)
    jac[:, 2] /= model.gamma
    cov = cost / (n - 5) * np.linalg.pinv(jac.T.dot(jac))  # n >= 6 rows
    uncertainties = tuple(math.sqrt(max(v, 0.0)) for v in cov.diagonal().tolist())
    return FanoFitResult(model, residual_norm, iterations, converged, uncertainties)


def fit_result_to_dict(res):
    return dict(asdict(res), parameter_uncertainties=list(res.parameter_uncertainties))


def format_fit_json(res):
    return _json_text(fit_result_to_dict(res))
