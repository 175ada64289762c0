"""Asymmetric line-profile fitting by damped Gauss-Newton least squares.

The profile is

    sigma(E) = amplitude*(q + eps)^2/(eps^2 + 1) + offset,
    eps      = 2*(E - e0)/gamma,

a Fano shape on a constant offset.  The solver optimizes log(gamma)
internally, which makes gamma > 0 structural rather than a constraint, and
uses analytic derivatives throughout.
"""

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import scalarize
from .errors import BadInitialGuess, InsufficientData, ValidationError
from .model import _eps
from .scan import CrossSectionTrace, TraceMeta

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
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValidationError("field %r must be finite, got %r" % (name, value))
        if self.gamma <= 0.0:
            raise ValidationError("gamma must be > 0, got %r" % self.gamma)


@dataclass(frozen=True)
class FanoFitResult:
    """Fit outcome; parameter_uncertainties follows the field order of
    FanoProfileModel.  converged=False is a result, not an error."""

    model: FanoProfileModel
    residual_norm: float
    iterations: int
    converged: bool
    parameter_uncertainties: tuple


def _profile(q, e0, gamma, a, b, e):
    eps = _eps(e, e0, gamma)
    qe = q + eps
    return a * qe * qe / (eps * eps + 1.0) + b


def predict(p, energy):
    """Evaluate the profile at the given energies."""
    e = np.asarray(energy, dtype=float)
    return scalarize(_profile(p.q, p.e0, p.gamma, p.amplitude, p.offset, e), energy)


def _pack(p):
    return np.array([p.q, p.e0, math.log(p.gamma), p.amplitude, p.offset])


def _unpack(vec):
    q, e0, u, a, b = vec
    return FanoProfileModel(q, e0, math.exp(u), a, b)


def _profile_internal(vec, e):
    q, e0, u, a, b = vec
    return _profile(q, e0, math.exp(u), a, b, e)


def _jacobian_internal(vec, e):
    """Derivatives of the profile with respect to (q, e0, log gamma,
    amplitude, offset), one column each."""
    q, e0, u, a, _ = vec
    gamma = math.exp(u)
    eps = _eps(e, e0, gamma)
    denom = eps * eps + 1.0
    qe = q + eps
    jac = np.empty((e.size, 5))
    jac[:, 0] = 2.0 * a * qe / denom
    # d f/d eps, then chain rule: d eps/d e0 = -2/gamma, d f/d log(gamma) = -eps*dfdeps
    dfdeps = 2.0 * a * qe * (1.0 - q * eps) / (denom * denom)
    jac[:, 1] = dfdeps * (-2.0 / gamma)
    jac[:, 2] = dfdeps * (-eps)
    jac[:, 3] = qe * qe / denom
    jac[:, 4] = 1.0
    return jac


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
    max_iter = int(max_iter)
    tol_step = float(tol_step)
    tol_grad = float(tol_grad)
    lam = float(damping_init)
    if max_iter < 1 or tol_step <= 0.0 or tol_grad <= 0.0 or lam <= 0.0:
        raise ValidationError("solver options must be positive")

    p = _pack(guess)
    with np.errstate(over="ignore", invalid="ignore"):
        r = y - _profile_internal(p, e)
    if not np.all(np.isfinite(r)):
        raise BadInitialGuess("starting parameters give non-finite residuals")
    cost = float(r @ r)

    converged = False
    iterations = 0
    while iterations < max_iter:
        jac = _jacobian_internal(p, e)
        grad = jac.T @ r
        if float(np.max(np.abs(2.0 * grad))) < tol_grad:
            converged = True
            break
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag = np.maximum(diag, 1e-12 * max(1.0, float(diag.max())))
        accepted = False
        step = None
        while lam <= 1e15:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                trial = p + step
                with np.errstate(over="ignore", invalid="ignore"):
                    r_trial = y - _profile_internal(trial, e)
                    cost_trial = float(r_trial @ r_trial)
                if math.isfinite(cost_trial) and cost_trial <= cost:
                    accepted = True
                    break
            lam *= 10.0
        iterations += 1
        if not accepted:
            break
        p, r, cost = trial, r_trial, cost_trial
        lam = max(lam / 10.0, 1e-15)
        rel_step = float(np.linalg.norm(step)) / (float(np.linalg.norm(p)) + 1e-300)
        if rel_step < tol_step:
            converged = True
            break

    model = _unpack(p)
    n = e.size
    residual_norm = math.sqrt(cost / n)
    jac = _jacobian_internal(p, e)
    jac[:, 2] /= model.gamma
    dof = n - 5
    variance = cost / dof if dof > 0 else float("inf")
    cov = variance * np.linalg.pinv(jac.T @ jac)
    uncertainties = tuple(math.sqrt(max(v, 0.0)) for v in np.diag(cov))
    return FanoFitResult(model, residual_norm, iterations, converged, uncertainties)


# The fast parser strips these ASCII information separators from around a
# number; float(), and so the dialect, does not.
_PARSER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _lines(text, chunk=1 << 16):
    """text.split("\\n") a chunk at a time, so that no second copy of the
    whole file is alive at once."""
    def pieces(start=0):
        while start <= len(text):
            end = text.find("\n", start + chunk)
            if end < 0:
                end = len(text)
            yield text[start:end].split("\n")
            start = end + 1
    return itertools.chain.from_iterable(pieces())


def read_trace_csv(path):
    """Read an 'energy,sigma' CSV into a trace.

    The dialect: a header line 'energy,sigma', then one comma-separated
    pair per line of ASCII numbers as float() reads them, without '_'
    separators; fields may carry surrounding whitespace and double quotes,
    blank lines are skipped, and there are no comments.  Unreadable files
    raise OSError; malformed content raises ValidationError naming the
    first bad line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ValidationError("trace file %s: %s" % (path, err)) from err
    lines = _lines(text)
    rows = csv.reader(lines)
    try:
        header = next(rows, None)
    except csv.Error as err:
        raise ValidationError("trace file %s line %d: %s" % (path, rows.line_num, err)) from err
    if header is None or [c.strip() for c in header] != ["energy", "sigma"]:
        raise ValidationError("trace file %s must start with header 'energy,sigma'" % path)
    body = 0
    for _ in range(rows.line_num):
        body = text.find("\n", body) + 1 or len(text)
    data = None
    if not any(text.find(c, body) >= 0 for c in _PARSER_ONLY_SPACE):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header-only file
                # the csv reader took just the header's lines from `lines`
                data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, quotechar='"')
        except ValueError:
            pass
    if data is None or (data.size and data.shape[1] != 2):
        raise ValidationError(_bad_line(path, text) or "trace file %s: malformed body" % path)
    energies, sigma = data.reshape(-1, 2).T  # a header-only file parses as (0, 1)
    try:
        return CrossSectionTrace(energies, sigma, TraceMeta("csv"))
    except ValidationError as err:
        raise ValidationError("trace file %s: %s" % (path, err)) from err


def _bad_line(path, text):
    """Message naming the first malformed line after the header, or None.
    Only diagnoses a body the fast parser rejected; never returns data."""
    rows = csv.reader(_lines(text))
    try:
        next(rows)
        for row in rows:
            if not row:
                continue
            if len(row) != 2:
                return "trace file %s line %d: expected 2 columns" % (path, rows.line_num)
            for field in row:
                float(field)
                # float() also takes digit separators and non-ASCII digits
                stripped = field.strip()
                if "_" in stripped or not stripped.isascii():
                    raise ValueError("could not convert string to float: %r" % field)
    except (ValueError, csv.Error) as err:
        return "trace file %s line %d: %s" % (path, rows.line_num, err)
    return None


def fit_result_to_dict(res):
    return {
        "model": {name: getattr(res.model, name) for name in _PARAM_NAMES},
        "residual_norm": res.residual_norm,
        "iterations": res.iterations,
        "converged": res.converged,
        "parameter_uncertainties": list(res.parameter_uncertainties),
    }


def format_fit_json(res):
    return json.dumps(fit_result_to_dict(res), indent=2, sort_keys=True) + "\n"
