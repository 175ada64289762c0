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
from dataclasses import dataclass

import numpy as np

from ._util import _pointwise, _real
from .errors import DoublePoleSingularity, ValidationError
from .model import _axis, _capped_eps, _fano_sigma, _ordered_product
from .model import _require_two_zero_delta, complex_energy

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
    """Pole-expansion numerators (w1, w2) for a two-resonance model."""

    w1: complex
    w2: complex


def s_unitary_product(m, energy):
    """S(E) = exp(2i*delta) * prod_k (E - conj(ce_k))/(E - ce_k).

    Exactly unimodular for real E and any number of resonances.
    """
    phase = np.exp(2j * m.delta)
    return _pointwise(lambda e: _ordered_product(phase, _factors(m, e.clip(-_E_CAP, _E_CAP))),
                      energy, rows=len(m.resonances))


# at +-inf a factor is inf/inf; at this clip it is 1 within width/1e300, so S
# takes its limit exp(2i*delta), and energies below it keep their bits
_E_CAP = 1e300


def _factors(m, e):
    """Row k: (e - conj(ce_k))/(e - ce_k), over the numerator's exact conjugate."""
    f = e - _axis(m)[2]
    f /= f.conjugate()
    return f


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
    return CouplingPair(w1, w2)


def _w_dynamic_raw(g1, g2, ce1, ce2, e):
    d = 2.0 * e - ce1 - ce2
    return g1 * (1.0 - 1j * g2 / d), g2 * (1.0 - 1j * g1 / d)


def coupling_w_dynamic(m, energy):
    """Energy-dependent couplings W_k(E) = G_k*(1 - i*G_l/(2E - ce_k - ce_l)).

    Smooth in E and finite for any pole separation, including a degenerate
    pair; the denominator keeps a positive imaginary part on the real axis.
    """
    r1, r2 = _require_two_zero_delta(m, "coupling_w_dynamic")
    e = _real(energy, "energy")
    w1, w2 = _w_dynamic_raw(
        r1.width, r2.width, complex_energy(r1), complex_energy(r2), e
    )
    return CouplingPair(w1, w2)


def s_pole(m, energy, rep):
    """S(E) = 1 - i*sum_k W_k/(E - ce_k) for two resonances at zero delta.

    ``rep`` selects the static or the dynamic coupling choice; both evaluate
    to the unitary product form up to rounding.
    """
    if rep not in (Representation.POLES_STATIC, Representation.POLES_DYNAMIC):
        raise ValidationError("s_pole supports the pole representations, got %r" % (rep,))
    r1, r2 = _require_two_zero_delta(m, "s_pole")
    pair = coupling_w_static(m) if rep is Representation.POLES_STATIC else None
    return _pointwise(_pole_kernel(r1, r2, pair), energy)


def _pole_kernel(r1, r2, pair=None):
    """The per-energy kernel of s_pole: the static couplings ``pair``, or
    the dynamic ones when it is None."""
    ce1, ce2 = complex_energy(r1), complex_energy(r2)
    def kernel(e):
        u1, u2 = (pair.w1, pair.w2) if pair else _w_dynamic_raw(r1.width, r2.width, ce1, ce2, e)
        return 1.0 - 1j * (u1 / (e - ce1) + u2 / (e - ce2))
    return kernel


def _double_pole_args(e_d, gamma_d, delta):
    """Validated floats (e_d, gamma_d, delta) of a degenerate pole."""
    gamma_d = _real(gamma_d, "gamma_d", positive=True)
    return _real(e_d, "e_d"), gamma_d, _real(delta, "delta")


def s_double_pole(e_d, gamma_d, delta, energy):
    """Closed form at a degenerate pole of strength gamma_d at e_d:

        S = exp(2i*delta) * (1 - 2i*G/D - G^2/D^2),  D = E - e_d + i*G/2.

    Equals the unitary product form with the same pole counted twice, so it
    stays exactly unimodular for real E.
    """
    e_d, gamma_d, delta = _double_pole_args(e_d, gamma_d, delta)
    phase = np.exp(2j * delta)
    def kernel(e):
        g = gamma_d / (e - e_d + 0.5j * gamma_d)
        return phase * (1.0 - 2j * g - g * g)
    return _pointwise(kernel, energy)


def cross_section(s):
    """sigma = |1 - S|^2 in units of the maximal single-channel value,
    one block of S at a time, so no grid-sized 1 - S is built."""
    return _pointwise(lambda x: np.square(np.abs(1.0 - x)), s, dtype=None)


def cross_section_noninteracting(m, energy):
    """Incoherent reference curve sum_k 4*sin^2(delta + phase_k(E)).

    Adds each resonance's isolated cross section, ignoring interference, so
    it may exceed the single-channel bound of 4.  Term k is the Fano form
    of a one-resonance model, 4*(eps_k*sin(delta) - cos(delta))^2/(eps_k^2 + 1).
    """
    z = np.exp(1j * m.delta)
    return _pointwise(lambda e: np.add.reduce(_fano_sigma(_capped_eps(e, *_axis(m)[:2]),
                                                          z.real, z.imag)),
                      energy, rows=len(m.resonances))
