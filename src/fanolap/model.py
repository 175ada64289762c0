"""Resonance, scattering-model and energy-grid types.

All energies are dimensionless: pick one resonance width as the unit when
mapping to measured spectra.  A resonance is a pole of the S matrix at
``position - i*width/2``; models collect one or more resonances plus a
constant background phase ``delta``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import scalarize
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
        object.__setattr__(self, "position", float(self.position))
        object.__setattr__(self, "width", float(self.width))
        if not math.isfinite(self.position):
            raise ValidationError("position must be finite, got %r" % self.position)
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ValidationError("width must be finite and > 0, got %r" % self.width)


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
        object.__setattr__(self, "delta", float(self.delta))
        if not math.isfinite(self.delta):
            raise ValidationError("delta must be finite, got %r" % self.delta)


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform inclusive grid of evaluation energies."""

    e_min: float
    e_max: float
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "e_min", float(self.e_min))
        object.__setattr__(self, "e_max", float(self.e_max))
        object.__setattr__(self, "n_points", int(self.n_points))
        if not (math.isfinite(self.e_min) and math.isfinite(self.e_max)):
            raise ValidationError("grid bounds must be finite")
        if not self.e_min < self.e_max:
            raise ValidationError(
                "e_min must be < e_max, got %r >= %r" % (self.e_min, self.e_max)
            )
        if self.n_points < 2:
            raise ValidationError("n_points must be >= 2, got %r" % self.n_points)

    def points(self):
        """Evaluation energies, endpoints included."""
        return np.linspace(self.e_min, self.e_max, self.n_points)


def complex_energy(r):
    """Pole location in the lower half plane, position - i*width/2."""
    return complex(r.position, -0.5 * r.width)


def _eps(e, position, width):
    """Reduced energy 2*(e - position)/width of a float array or a float."""
    return 2.0 * (e - position) / width


def epsilon(r, energy):
    """Reduced energy 2*(E - position)/width measured from the resonance."""
    return scalarize(_eps(np.asarray(energy, dtype=float), r.position, r.width), energy)


def resonance_phase(r, energy):
    """Resonance phase -arccot(epsilon), continuous and increasing on (-pi, 0).

    The arccot branch is taken on (0, pi), i.e. arccot(x) = pi/2 - arctan(x),
    so the phase passes -pi/2 exactly at the resonance position.
    """
    eps = _eps(np.asarray(energy, dtype=float), r.position, r.width)
    return scalarize(np.arctan(eps) - 0.5 * np.pi, energy)


def _two_resonances(m, context):
    if len(m.resonances) != 2:
        raise ValidationError(
            "%s needs exactly two resonances, got %d" % (context, len(m.resonances))
        )
    return m.resonances


def _require_two_zero_delta(m, context):
    """Shared precondition of the two-resonance zero-background forms."""
    resonances = _two_resonances(m, context)
    if m.delta != 0.0:
        raise ValidationError(
            "%s is defined for zero background phase, got delta=%r" % (context, m.delta)
        )
    return resonances


def model_to_dict(m):
    return {
        "resonances": [{"position": r.position, "width": r.width} for r in m.resonances],
        "delta": m.delta,
    }


def _require_number(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError("field %r must be a number, got %r" % (field, value))
    return float(value)


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
        resonances.append(
            Resonance(
                _require_number(entry["position"], "position"),
                _require_number(entry["width"], "width"),
            )
        )
    return ScatteringModel(tuple(resonances), _require_number(data["delta"], "delta"))


def load_model(path):
    """Read a model JSON file.  Unreadable files raise OSError; malformed
    content raises ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError("model file %s is not valid JSON: %s" % (path, err)) from err
    return model_from_dict(data)


def save_model(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
