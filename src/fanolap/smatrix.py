"""Equivalent closed forms of the one-channel S matrix and the cross section.

For real energies every resonant factor has unit modulus, so the product
form is exactly unimodular and the cross section |1 - S|^2 never exceeds 4.
The pole expansion S = 1 - i*sum_k W_k/(E - ce_k), with ce_k the complex
pole energies, reproduces the product form exactly when the couplings W_k
are the pole residues; both an energy-independent (static) and an
energy-dependent (dynamic) choice are provided for two resonances.  A
degenerate (double) pole has its own closed form.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._util import scalarize
from .errors import DoublePoleSingularity, ValidationError
from .model import _require_two_zero_delta, complex_energy, resonance_phase

__all__ = [
    "Representation",
    "CouplingPair",
    "DOUBLE_POLE_RTOL",
    "s_unitary_product",
    "coupling_w_static",
    "coupling_w_dynamic",
    "s_pole",
    "s_double_pole",
    "cross_section",
    "cross_section_noninteracting",
]

# Complex-energy separations below this fraction of the larger width count
# as a degenerate pole, where the static couplings lose meaning.
DOUBLE_POLE_RTOL = 1e-9


class Representation(enum.Enum):
    """Which closed form is used to evaluate S(E)."""

    UNITARY_PRODUCT = "product"
    POLES_STATIC = "poles-static"
    POLES_DYNAMIC = "poles-dynamic"
    DOUBLE_POLE = "double-pole"


@dataclass(frozen=True)
class CouplingPair:
    """Pole-expansion numerators (w1, w2) for a two-resonance model.

    ``kind`` is "static" for the energy-independent residues and "dynamic"
    for the smooth energy-dependent choice, which then records the energy it
    was evaluated at.
    """

    w1: complex
    w2: complex
    kind: str
    energy: float | None = None


def s_unitary_product(m, energy):
    """S(E) = exp(2i*delta) * prod_k (E - conj(ce_k))/(E - ce_k).

    Exactly unimodular for real E and any number of resonances.
    """
    e = np.asarray(energy, dtype=float)
    s = np.full(e.shape, np.exp(2j * m.delta), dtype=complex)
    for r in m.resonances:
        ce = complex_energy(r)
        s = s * ((e - ce.conjugate()) / (e - ce))
    return scalarize(s, energy, complex)


def _check_not_degenerate(m, context):
    r1, r2 = m.resonances
    sep = abs(complex_energy(r1) - complex_energy(r2))
    if sep < DOUBLE_POLE_RTOL * max(r1.width, r2.width):
        raise DoublePoleSingularity(
            "%s: pole separation %r is below tolerance, couplings diverge" % (context, sep)
        )


def coupling_w_static(m):
    """Energy-independent couplings W_k = G_k*(1 - i*G_l/(ce_k - ce_l)).

    These are the residues of the unitary product form at its poles, so the
    pole expansion built from them matches that form identically.  They
    diverge like 1/separation as the two poles coalesce.
    """
    r1, r2 = _require_two_zero_delta(m, "coupling_w_static")
    _check_not_degenerate(m, "coupling_w_static")
    ce1, ce2 = complex_energy(r1), complex_energy(r2)
    w1 = r1.width * (1.0 - 1j * r2.width / (ce1 - ce2))
    w2 = r2.width * (1.0 - 1j * r1.width / (ce2 - ce1))
    return CouplingPair(w1, w2, "static")


def _w_dynamic_raw(g1, g2, ce1, ce2, e):
    d = 2.0 * e - ce1 - ce2
    return g1 * (1.0 - 1j * g2 / d), g2 * (1.0 - 1j * g1 / d)


def coupling_w_dynamic(m, energy):
    """Energy-dependent couplings W_k(E) = G_k*(1 - i*G_l/(2E - ce_k - ce_l)).

    Smooth in E and finite for any pole separation, including a degenerate
    pair; the denominator keeps a positive imaginary part on the real axis.
    """
    r1, r2 = _require_two_zero_delta(m, "coupling_w_dynamic")
    e = float(energy)
    if not math.isfinite(e):
        raise ValidationError("energy must be finite, got %r" % energy)
    w1, w2 = _w_dynamic_raw(
        r1.width, r2.width, complex_energy(r1), complex_energy(r2), e
    )
    return CouplingPair(w1, w2, "dynamic", e)


def s_pole(m, energy, rep):
    """S(E) = 1 - i*sum_k W_k/(E - ce_k) for two resonances at zero delta.

    ``rep`` selects the static or the dynamic coupling choice; both evaluate
    to the unitary product form up to rounding.
    """
    if rep not in (Representation.POLES_STATIC, Representation.POLES_DYNAMIC):
        raise ValidationError("s_pole supports the pole representations, got %r" % (rep,))
    r1, r2 = _require_two_zero_delta(m, "s_pole")
    e = np.asarray(energy, dtype=float)
    ce1, ce2 = complex_energy(r1), complex_energy(r2)
    if rep is Representation.POLES_STATIC:
        pair = coupling_w_static(m)
        u1, u2 = pair.w1, pair.w2
    else:
        u1, u2 = _w_dynamic_raw(r1.width, r2.width, ce1, ce2, e)
    s = 1.0 - 1j * (u1 / (e - ce1) + u2 / (e - ce2))
    return scalarize(s, energy, complex)


def _double_pole_args(e_d, gamma_d, delta):
    """Validated floats (e_d, gamma_d, delta) of a degenerate pole."""
    e_d = float(e_d)
    gamma_d = float(gamma_d)
    delta = float(delta)
    if not (math.isfinite(gamma_d) and gamma_d > 0.0):
        raise ValidationError("gamma_d must be finite and > 0, got %r" % gamma_d)
    if not (math.isfinite(e_d) and math.isfinite(delta)):
        raise ValidationError("e_d and delta must be finite")
    return e_d, gamma_d, delta


def s_double_pole(e_d, gamma_d, delta, energy):
    """Closed form at a degenerate pole of strength gamma_d at e_d:

        S = exp(2i*delta) * (1 - 2i*G/D - G^2/D^2),  D = E - e_d + i*G/2.

    Equals the unitary product form with the same pole counted twice, so it
    stays exactly unimodular for real E.
    """
    e_d, gamma_d, delta = _double_pole_args(e_d, gamma_d, delta)
    e = np.asarray(energy, dtype=float)
    d = e - e_d + 0.5j * gamma_d
    g = gamma_d / d
    s = np.exp(2j * delta) * (1.0 - 2j * g - g * g)
    return scalarize(s, energy, complex)


def cross_section(s):
    """sigma = |1 - S|^2 in units of the maximal single-channel value."""
    return scalarize(np.abs(1.0 - np.asarray(s)) ** 2, s)


def cross_section_noninteracting(m, energy):
    """Incoherent reference curve sum_k 4*sin^2(delta + phase_k(E)).

    Adds each resonance's isolated cross section, ignoring interference, so
    it may exceed the single-channel bound of 4.
    """
    e = np.asarray(energy, dtype=float)
    total = np.zeros(e.shape)
    for r in m.resonances:
        total = total + 4.0 * np.sin(m.delta + resonance_phase(r, e)) ** 2
    return scalarize(total, energy)
