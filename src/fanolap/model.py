"""Resonance, scattering-model and energy-grid types.

All energies are dimensionless: pick one resonance width as the unit when
mapping to measured spectra.  A resonance is a pole of the S matrix at
``position - i*width/2``; models collect one or more resonances plus a
constant background phase ``delta``.
"""

import json
from dataclasses import dataclass

import numpy as np

from ._util import (_cells, _count, _json_text, _phase, _pointwise, _read_text, _real, _width,
                    _write_all)
from .errors import ValidationError

__all__ = [
    "Resonance",
    "ScatteringModel",
    "EnergyGrid",
    "complex_energy",
    "epsilon",
    "resonance_phase",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "save_model",
]


@dataclass(frozen=True)
class Resonance:
    """A single pole: real position and strictly positive width."""

    position: float
    width: float

    def __post_init__(self):
        object.__setattr__(self, "position", _real(self.position, "position"))
        object.__setattr__(self, "width", _width(self.width, "width"))


@dataclass(frozen=True)
class ScatteringModel:
    """One or more resonances sharing a constant background phase."""

    resonances: tuple
    delta: float = 0.0

    def __post_init__(self):
        res = tuple(self.resonances)
        if not res:
            raise ValidationError("a model needs at least one resonance")
        for r in res:
            if not isinstance(r, Resonance):
                raise ValidationError("resonances must be Resonance instances, got %r" % (r,))
        object.__setattr__(self, "resonances", res)
        object.__setattr__(self, "delta", _phase(self.delta, "delta"))


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform inclusive grid of evaluation energies."""

    e_min: float
    e_max: float
    n_points: int

    def __post_init__(self):
        names = ("e_min", "e_max", "n_points")
        lo, hi, n = _uniform_rule(self.e_min, self.e_max, self.n_points, names)
        for name, value in zip(names, (lo, hi, _cells(n, "n_points"))):
            object.__setattr__(self, name, value)

    def points(self):
        """Evaluation energies, endpoints included: np.linspace's arithmetic
        and bits, without its argument handling, slow on small grids."""
        return _uniform_points(self.e_min, self.e_max, self.n_points)


def _uniform_rule(lo, hi, n, names):
    """Checked (lo, hi, n) of a uniform axis, named by ``names``: finite
    floats lo < hi whose span hi - lo is finite too, and a count n >= 2."""
    lo_name, hi_name, n_name = names
    lo, hi = _real(lo, lo_name), _real(hi, hi_name)
    if not lo < hi:
        raise ValidationError("%s must be < %s, got %r >= %r" % (lo_name, hi_name, lo, hi))
    if hi - lo == np.inf:  # else the first sample is nan and the inner ones inf
        raise ValidationError("%s - %s overflows, got %r - %r" % (hi_name, lo_name, hi, lo))
    return lo, hi, _count(n, n_name)


def _uniform_points(lo, hi, n, endpoint=True):
    """n evenly spaced floats from lo, up to hi included if ``endpoint``, as
    np.linspace(lo, hi, n, endpoint=endpoint) gives them bit for bit."""
    step = (hi - lo) / (n - 1 if endpoint else n)
    if not step:  # a subnormal step, which np.linspace scales another way
        return np.linspace(lo, hi, n, endpoint=endpoint)
    x = np.arange(float(n)) * step + lo
    if endpoint:
        x[-1] = hi
    return x


def complex_energy(r):
    """Pole location in the lower half plane, position - i*width/2."""
    return complex(r.position, -0.5 * r.width)


def _eps(e, position, width):
    """Reduced energy 2*(e - position)/width of a float array or a float."""
    return 2.0 * (e - position) / width


# eps*eps overflows past 1.3e154; at this cap 1/eps is 1e-150, so the resonance
# factor and the Fano form are within about 1e-149 of their limits at infinite eps
_EPS_CAP = 1e150
# the forms of Fano parameters multiply (q + eps)^2 by a weight before dividing
# by eps^2 + 1; at this cap a weight below 1e108, such as a static sigma_ak
# (|sigma_ak| <= 4/EQUAL_WIDTHS_RTOL), keeps that product finite, and the forms
# are within 2*|q|*1e-100 of their limits at infinite eps
_WEIGHTED_EPS_CAP = 1e100


def _capped_eps(e, position, width, cap=_EPS_CAP):
    """_eps clipped to +-cap, nan kept, without np.clip's costly checks; an
    eps that overflows to +-inf, past 9e307 from the position, takes the cap
    without a warning."""
    with np.errstate(over="ignore"):
        return _eps(e, position, width).clip(-cap, cap)


def _axis(m, skip=None):
    """Positions, widths, pole energies and i*widths of the resonances but
    ``skip`` (one must remain), (N, 1) columns made once per model."""
    axes = m.__dict__.setdefault("_axes", {})
    if skip not in axes:
        rows = [(r.position, r.width, complex_energy(r), 1j * r.width)
                for i, r in enumerate(m.resonances) if i != skip]
        axes[skip] = [np.array(col).reshape(-1, 1) for col in zip(*rows)]
    return axes[skip]


def _ordered_product(s, f):
    """s, a scalar or a column, times the rows of f in order, the running
    product first: numpy's complex multiply is not bitwise commutative."""
    z = np.multiply(s, f[0])
    for l in range(1, len(f)):
        np.multiply(z, f[l], out=z)
    return z


def _fano_sigma(eps, c, s):
    """Isolated Fano cross section 4*(eps*s - c)^2/(eps^2 + 1) of one resonance
    at reduced energy eps, with cos and sin (c, s) of its interfering phase."""
    return 4.0 * np.square(eps * s - c) / (eps * eps + 1.0)


def epsilon(r, energy):
    """Reduced energy 2*(E - position)/width measured from the resonance."""
    return _pointwise(lambda e: _eps(e, r.position, r.width), energy)


def resonance_phase(r, energy):
    """Resonance phase -arccot(epsilon), continuous and increasing on (-pi, 0).

    The arccot branch is taken on (0, pi), i.e. arccot(x) = pi/2 - arctan(x),
    so the phase passes -pi/2 exactly at the resonance position.
    """
    return _pointwise(lambda e: np.arctan(_eps(e, r.position, r.width)) - 0.5 * np.pi, energy)


def _two_resonances(m, context):
    if len(m.resonances) != 2:
        raise ValidationError("%s needs exactly two resonances, got %d"
                              % (context, len(m.resonances)))
    return m.resonances


def model_to_dict(m):
    return {
        "resonances": [{"position": r.position, "width": r.width} for r in m.resonances],
        "delta": m.delta,
    }


def model_from_dict(data):
    """Build a model from parsed JSON; missing fields are rejected, extra
    fields are tolerated."""
    if not isinstance(data, dict):
        raise ValidationError("model data must be a JSON object, got %r" % type(data).__name__)
    for field in ("resonances", "delta"):
        if field not in data:
            raise ValidationError("model data is missing field %r" % field)
    entries = data["resonances"]
    if not isinstance(entries, list):
        raise ValidationError("field 'resonances' must be a list")
    resonances = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError("resonance %d must be an object, got %r" % (i, entry))
        for field in ("position", "width"):
            if field not in entry:
                raise ValidationError("resonance %d is missing field %r" % (i, field))
        resonances.append(Resonance(entry["position"], entry["width"]))
    return ScatteringModel(tuple(resonances), data["delta"])


def load_model(path):
    """Read a model JSON file.  Unreadable files raise OSError; malformed
    content raises ValidationError."""
    text = _read_text(path, "model file")
    try:
        data = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer too long to parse
        raise ValidationError("model file %s is not valid JSON: %s" % (path, err)) from err
    return model_from_dict(data)


def save_model(m, path):
    _write_all([(path, _json_text(model_to_dict(m)))])
