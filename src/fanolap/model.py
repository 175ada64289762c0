"""Resonance, scattering-model and energy-grid types.

All energies are dimensionless: pick one resonance width as the unit when
mapping to measured spectra.  A resonance is a pole of the S matrix at
``position - i*width/2``; models collect one or more resonances plus a
constant background phase ``delta``.
"""

import json
from dataclasses import dataclass

import numpy as np

from ._util import _cells, _count, _json_text, _pointwise, _read_text, _real, _write_all
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
        object.__setattr__(self, "width", _real(self.width, "width", positive=True))


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
        object.__setattr__(self, "delta", _real(self.delta, "delta"))


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform inclusive grid of evaluation energies."""

    e_min: float
    e_max: float
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "e_min", _real(self.e_min, "e_min"))
        object.__setattr__(self, "e_max", _real(self.e_max, "e_max"))
        if not self.e_min < self.e_max:
            raise ValidationError(
                "e_min must be < e_max, got %r >= %r" % (self.e_min, self.e_max)
            )
        n = _cells(_count(self.n_points, "n_points"), "n_points")
        object.__setattr__(self, "n_points", n)

    def points(self):
        """Evaluation energies, endpoints included: np.linspace's arithmetic
        and bits, without its argument handling, slow on small grids."""
        step = (self.e_max - self.e_min) / (self.n_points - 1)
        if not step:  # a subnormal step, which np.linspace scales another way
            return np.linspace(self.e_min, self.e_max, self.n_points)
        e = np.arange(float(self.n_points)) * step + self.e_min
        e[-1] = self.e_max
        return e


def complex_energy(r):
    """Pole location in the lower half plane, position - i*width/2."""
    return complex(r.position, -0.5 * r.width)


def _eps(e, position, width):
    """Reduced energy 2*(e - position)/width of a float array or a float."""
    return 2.0 * (e - position) / width


# eps*eps overflows past 1.3e154; at this cap 1/eps is 1e-150, so the resonance
# factor and the Fano form are within about 1e-149 of their limits at infinite eps
_EPS_CAP = 1e150


def _capped_eps(e, position, width):
    """_eps clipped to +-_EPS_CAP, nan kept, without np.clip's costly checks."""
    return _eps(e, position, width).clip(-_EPS_CAP, _EPS_CAP)


def _axis(m, skip=None):
    """Positions, widths, conjugate and plain pole energies and i*widths of the
    resonances but ``skip`` (one must remain), (N, 1) columns made once per model."""
    axes = m.__dict__.setdefault("_axes", {})
    if skip not in axes:
        rows = [(r.position, r.width, complex_energy(r).conjugate(), complex_energy(r),
                 1j * r.width)
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


def _require_two_zero_delta(m, context):
    """Shared precondition of the two-resonance zero-background forms."""
    resonances = _two_resonances(m, context)
    if m.delta != 0.0:
        raise ValidationError("%s is defined for zero background phase, got delta=%r"
                              % (context, m.delta))
    return resonances


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
