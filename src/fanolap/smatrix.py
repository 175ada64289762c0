"""Equivalent closed forms of the one-channel S matrix and the cross section.

For real energies every resonant factor has unit modulus, so the product
form is exactly unimodular and the cross section |1 - S|^2 never exceeds 4.
The pole expansion S = exp(2i*delta)*(1 - i*sum_k W_k/(E - ce_k)), with ce_k
the complex pole energies, reproduces the product form exactly when the W_k
are its residues: static couplings for any model, dynamic (energy-dependent)
ones for any two, neither depending on delta, which every form applies once
as exp(2i*delta).  A degenerate (double) pole has its own closed form.
"""

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from ._util import _phase, _pointwise, _real, _width
from .errors import DoublePoleSingularity, ValidationError
from .model import _axis, _capped_eps, _fano_sigma, _ordered_product, _two_resonances
from .model import complex_energy

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

# Pole separations below this fraction of the pair's larger width are degenerate.
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
    return _pointwise(_product_kernel(m, np.exp(2j * m.delta)), energy, rows=len(m.resonances))


def _product_kernel(m, phase):
    """Kernel of the product form: ``phase``, a scalar or a column, times the factors."""
    return lambda e: _ordered_product(phase, _factors(m, e.clip(-_E_CAP, _E_CAP)))


# at +-inf a factor is inf/inf; at this clip it is 1 within width/1e300, so S
# takes its limit exp(2i*delta), and energies below it keep their bits
_E_CAP = 1e300


def _factors(m, e):
    """Row k: (e - conj(ce_k))/(e - ce_k), over the numerator's exact conjugate."""
    f = e - _axis(m)[2]
    f /= f.conjugate()
    return f


def _pole_residues(m, context):
    """Residues W_k = G_k*prod_{l!=k}(1 - i*G_l/(ce_k - ce_l)) of the product
    form, factors in order l = 0, 1, ..., as an (N, 1) column made once per
    model; two poles within DOUBLE_POLE_RTOL, where they diverge, raise each call."""
    axes = m.__dict__.setdefault("_axes", {})
    if "w" not in axes:
        g, ce = [r.width for r in m.resonances], [complex_energy(r) for r in m.resonances]
        w = list(g)
        for k, l in itertools.permutations(range(len(g)), 2):
            if abs(ce[k] - ce[l]) < DOUBLE_POLE_RTOL * max(g[k], g[l]):
                raise DoublePoleSingularity("%s: pole separation %r is below tolerance, "
                                            "couplings diverge" % (context, abs(ce[k] - ce[l])))
            w[k] *= 1.0 - 1j * g[l] / (ce[k] - ce[l])
        axes["w"] = np.array(w, complex).reshape(-1, 1)
    return axes["w"]


def coupling_w_static(m):
    """Energy-independent couplings of two resonances, the pole residues
    W_k = G_k*(1 - i*G_l/(ce_k - ce_l)) of the product form; independent of delta."""
    _two_resonances(m, "coupling_w_static")
    return CouplingPair(*_pole_residues(m, "coupling_w_static")[:, 0].tolist())


def _w_dynamic_raw(g, ig_other, ce1, ce2, e):
    """Rows W_k(E) = g_k*(1 - i*g_l/(2E - ce1 - ce2)) of the (2, 1) columns
    g and ig_other = i*g_l, made in one array: 1 - x and g*x in place."""
    w = ig_other / (2.0 * e - ce1 - ce2)
    return np.multiply(g, np.subtract(1.0, w, out=w), out=w)


def coupling_w_dynamic(m, energy):
    """Energy-dependent couplings W_k(E) = G_k*(1 - i*G_l/(2E - ce_k - ce_l)).

    Smooth in E and finite for any pole separation, including a degenerate
    pair; the denominator keeps a positive imaginary part on the real axis.
    Independent of delta, like the static couplings."""
    ce1, ce2 = map(complex_energy, _two_resonances(m, "coupling_w_dynamic"))
    w = _w_dynamic_raw(_axis(m)[1], _axis(m)[4][::-1], ce1, ce2, _real(energy, "energy"))
    return CouplingPair(*w[:, 0].tolist())


def s_pole(m, energy, rep):
    """S(E) = exp(2i*delta)*(1 - i*sum_k W_k/(E - ce_k)) with the couplings
    ``rep`` selects: POLES_STATIC the pole residues, for any model;
    POLES_DYNAMIC the W_k(E), for any two resonances.  Both evaluate to the
    unitary product form up to rounding, at any delta."""
    if rep not in (Representation.POLES_STATIC, Representation.POLES_DYNAMIC):
        raise ValidationError("s_pole supports the pole representations, got %r" % (rep,))
    return _pointwise(_pole_kernel(m, rep, "s_pole"), energy, rows=len(m.resonances))


def _pole_kernel(m, rep, context):
    """The per-energy kernel of s_pole: W_k/(E - ce_k) as row k, rows added in
    order into the first.  The column ``col`` is the static W_k, or the G_k of
    the dynamic ones, whose energy factor comes two rows per block; guards
    name ``context``.  exp(2i*delta) multiplies that column once per model."""
    (_, col, _, ce, ig), phase = _axis(m), 1.0
    static = rep is Representation.POLES_STATIC
    if static:
        col = _pole_residues(m, context)
    else:
        ce1, ce2 = map(complex_energy, _two_resonances(m, context))
    if m.delta:  # else W_k as they are: a product with 1 + 0j may flip a zero's sign
        phase = np.exp(2j * m.delta)
        col = col * phase

    def kernel(e):
        t = e - ce
        np.divide(col if static else _w_dynamic_raw(col, ig[::-1], ce1, ce2, e), t, t)
        z = t[0]
        for l in range(1, len(t)):
            z += t[l]
        s = np.multiply(1j, z)  # exp(2i*delta) - i*z, in one new array
        return np.subtract(phase, s, out=s)
    return kernel


def _double_pole_args(e_d, gamma_d, delta):
    """Validated floats (e_d, gamma_d, delta) of a degenerate pole."""
    gamma_d = _width(gamma_d, "gamma_d")
    return _real(e_d, "e_d"), gamma_d, _phase(delta, "delta")


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
    return _pointwise(_sigma, s, dtype=None)


def _sigma(s):
    """The kernel of cross_section: |1 - S|^2 of one block."""
    return np.square(np.abs(1.0 - s))


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
