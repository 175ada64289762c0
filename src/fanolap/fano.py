"""Asymmetric line-shape parametrizations for overlapping resonances.

The cross section of resonance k inside a group can be written in Fano form
with an energy-dependent asymmetry parameter q_k(E) = -cot(phi), where phi
collects the background phase plus the other resonances' phases.  For two
resonances there is also an energy-independent parametrization with a shared
real q, per-resonance A values, and three partial weights that sum to zero;
taking q_k = q + i*sqrt(A_k) packs the same content into complex parameters.
A degenerate pole admits its own closed Fano form.  Window (dip) and
symmetric-peak conditions locate the energies where q of a narrow resonance
crosses zero or diverges as the background phase is varied.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import scalarize
from .errors import (
    EqualWidthsSingularity,
    NegativeAkError,
    NoFiniteSolution,
    ValidationError,
)
from .model import _eps, _require_two_zero_delta, _two_resonances, epsilon
from .smatrix import _check_not_degenerate, _double_pole_args

__all__ = [
    "FanoStaticParams",
    "ComplexFanoParams",
    "EQUAL_WIDTHS_RTOL",
    "fano_q_dynamic",
    "fano_cross_section_dynamic",
    "fano_static_params",
    "fano_cross_section_static",
    "fano_complex_params",
    "fano_cross_section_complex",
    "window_energy",
    "breit_wigner_energy",
    "double_pole_fano",
]

# Width differences below this fraction of the larger width make the shared
# asymmetry parameter blow up; the static parametrization is refused there.
EQUAL_WIDTHS_RTOL = 1e-9

# cos(delta) or sin(delta) below this counts as a pole of tan/cot, i.e. the
# window or symmetric-peak condition has no finite solution.
_COT_TOL = 1e-12


@dataclass(frozen=True)
class FanoStaticParams:
    """Energy-independent two-resonance parameters.

    The partial weights satisfy sigma_a1 + sigma_a2 + sigma_b = 0 and at
    least one of sigma_a1, sigma_a2 is negative; both facts are enforced on
    construction (the sum rule up to rounding scaled with the weights).
    """

    q: float
    a1: float
    a2: float
    sigma_a1: float
    sigma_a2: float
    sigma_b: float

    def __post_init__(self):
        for name in ("q", "a1", "a2", "sigma_a1", "sigma_a2", "sigma_b"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValidationError("field %r must be finite, got %r" % (name, value))
        scale = max(1.0, abs(self.sigma_a1), abs(self.sigma_a2), abs(self.sigma_b))
        total = self.sigma_a1 + self.sigma_a2 + self.sigma_b
        if abs(total) > 1e-12 * scale:
            raise ValidationError("partial weights must sum to zero, got %r" % total)
        if min(self.sigma_a1, self.sigma_a2) >= 0.0:
            raise ValidationError("one of sigma_a1, sigma_a2 must be negative")


@dataclass(frozen=True)
class ComplexFanoParams:
    """Complex asymmetry parameters q_k = q + i*sqrt(A_k)."""

    q1: complex
    q2: complex

    def __post_init__(self):
        object.__setattr__(self, "q1", complex(self.q1))
        object.__setattr__(self, "q2", complex(self.q2))
        if self.q1.real != self.q2.real:
            raise ValidationError("q1 and q2 must share their real part")
        if self.q1.imag < 0.0 or self.q2.imag < 0.0:
            raise ValidationError("imaginary parts must be non-negative")


def _interfering_phase(m, k, energy):
    """cos and sin of delta plus the phases of all resonances other than k.

    Accumulated as a product of unit complex numbers, using that each
    resonance contributes exp(i*phase) = (eps - i)/sqrt(eps^2 + 1); this
    avoids arccot/trig round trips and keeps the pair exactly unimodular.
    """
    e = np.asarray(energy, dtype=float)
    z = np.full(e.shape, np.exp(1j * m.delta), dtype=complex)
    for index, r in enumerate(m.resonances):
        if index == k:
            continue
        eps = _eps(e, r.position, r.width)
        z = z * ((eps - 1j) / np.sqrt(eps * eps + 1.0))
    return z.real, z.imag


def _check_index(m, k):
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < len(m.resonances):
        raise ValidationError(
            "resonance index must be an int in [0, %d), got %r" % (len(m.resonances), k)
        )


def fano_q_dynamic(m, k, energy):
    """Energy-dependent asymmetry parameter of resonance k, -cot(phi).

    phi is the background phase plus the other resonances' phases; where phi
    hits a multiple of pi the value is a signed infinity, which is a legal
    result (the resonance looks like a symmetric peak there).
    """
    _check_index(m, k)
    c, s = _interfering_phase(m, k, energy)
    with np.errstate(divide="ignore"):
        q = -np.asarray(c) / np.asarray(s)
    return scalarize(q, energy)


def fano_cross_section_dynamic(m, k, energy):
    """Cross section in the stable rewritten form

        sigma = 4*(eps_k*sin(phi) - cos(phi))^2 / (eps_k^2 + 1),

    which equals 4*sin^2(delta + sum of all phases) pointwise and stays
    finite where q_k(E) diverges.
    """
    _check_index(m, k)
    eps = np.asarray(epsilon(m.resonances[k], energy))
    c, s = _interfering_phase(m, k, energy)
    sigma = 4.0 * (eps * s - c) ** 2 / (eps * eps + 1.0)
    return scalarize(sigma, energy)


def fano_static_params(m):
    """Energy-independent parameters of a two-resonance model at zero delta.

    q = 2*(E1 - E2)/(G1 - G2) is shared by both resonances;
    A_k = (G_k/G_l)*(q^2 + 1) + 2*(1 - q^2); the partial weights are
    sigma_ak = 4*G_l/((G_k - G_l)*(q^2 + 1)) and sigma_b = 4/(q^2 + 1).
    """
    r1, r2 = _require_two_zero_delta(m, "fano_static_params")
    _check_not_degenerate(m, "fano_static_params")
    if abs(r1.width - r2.width) < EQUAL_WIDTHS_RTOL * max(r1.width, r2.width):
        raise EqualWidthsSingularity(
            "widths %r and %r are equal within tolerance, q diverges"
            % (r1.width, r2.width)
        )
    q = 2.0 * (r1.position - r2.position) / (r1.width - r2.width)
    x = q * q + 1.0
    a1 = (r1.width / r2.width) * x + 2.0 * (1.0 - q * q)
    a2 = (r2.width / r1.width) * x + 2.0 * (1.0 - q * q)
    sigma_a1 = 4.0 * r2.width / ((r1.width - r2.width) * x)
    sigma_a2 = 4.0 * r1.width / ((r2.width - r1.width) * x)
    sigma_b = 4.0 / x
    return FanoStaticParams(q, a1, a2, sigma_a1, sigma_a2, sigma_b)


def fano_cross_section_static(p, m, energy):
    """Cross section from the energy-independent parameters,

        sigma = sum_k sigma_ak * ((q + eps_k)^2 + A_k)/(eps_k^2 + 1) + sigma_b.

    Equals the product-form |1 - S|^2 for the model the parameters came from.
    """
    r1, r2 = _two_resonances(m, "fano_cross_section_static")
    e1 = np.asarray(epsilon(r1, energy))
    e2 = np.asarray(epsilon(r2, energy))
    sigma = (
        p.sigma_a1 * ((p.q + e1) ** 2 + p.a1) / (e1 * e1 + 1.0)
        + p.sigma_a2 * ((p.q + e2) ** 2 + p.a2) / (e2 * e2 + 1.0)
        + p.sigma_b
    )
    return scalarize(sigma, energy)


def fano_complex_params(p):
    """Complex parameters q_k = q + i*sqrt(A_k); requires A_1, A_2 >= 0."""
    if p.a1 < 0.0 or p.a2 < 0.0:
        raise NegativeAkError(p.a1, p.a2)
    return ComplexFanoParams(
        complex(p.q, math.sqrt(p.a1)), complex(p.q, math.sqrt(p.a2))
    )


def fano_cross_section_complex(p, cp, m, energy):
    """Cross section written with the complex parameters,

        sigma = sum_k sigma_ak * |q_k + eps_k|^2/(eps_k^2 + 1) + sigma_b.

    The squared modulus is evaluated on the complex numbers themselves, so
    this is an independent route to fano_cross_section_static.
    """
    r1, r2 = _two_resonances(m, "fano_cross_section_complex")
    e1 = np.asarray(epsilon(r1, energy))
    e2 = np.asarray(epsilon(r2, energy))
    sigma = (
        p.sigma_a1 * np.abs(cp.q1 + e1) ** 2 / (e1 * e1 + 1.0)
        + p.sigma_a2 * np.abs(cp.q2 + e2) ** 2 / (e2 * e2 + 1.0)
        + p.sigma_b
    )
    return scalarize(sigma, energy)


def window_energy(m):
    """Energy where the first resonance's q(E) crosses zero (window dip):

        E = E2 - (G2/2)*tan(delta),

    with resonance index 1 acting as the broad perturber.  A background
    phase at an odd multiple of pi/2 has no finite solution.
    """
    _, r2 = _two_resonances(m, "window_energy")
    c = math.cos(m.delta)
    if abs(c) < _COT_TOL:
        raise NoFiniteSolution(
            "tan(delta) diverges at delta=%r, the zero of q runs off to infinity"
            % m.delta
        )
    return r2.position - 0.5 * r2.width * (math.sin(m.delta) / c)


def breit_wigner_energy(m):
    """Energy where the first resonance's q(E) diverges (symmetric peak):

        E = E2 + (G2/2)*cot(delta).

    A background phase at a multiple of pi has no finite solution.
    """
    _, r2 = _two_resonances(m, "breit_wigner_energy")
    s = math.sin(m.delta)
    if abs(s) < _COT_TOL:
        raise NoFiniteSolution(
            "cot(delta) diverges at delta=%r, the pole of q runs off to infinity"
            % m.delta
        )
    return r2.position + 0.5 * r2.width * (math.cos(m.delta) / s)


def double_pole_fano(e_d, gamma_d, delta, energy):
    """Asymmetry parameter and cross section at a degenerate pole:

        q_d(E) = (1 - eps^2)/2 * tan(delta)
        sigma  = 4*(sin(delta)*(1 - eps^2) + 2*eps*cos(delta))^2/(eps^2 + 1)^2

    with eps = 2*(E - e_d)/gamma_d.  The sigma form is algebraically equal
    to 16*cos^2(delta)*(q_d + eps)^2/(eps^2 + 1)^2 but stays stable where
    tan(delta) diverges.  q_d follows IEEE division: a signed infinity when
    cos(delta) is exactly zero, a value of order 1e16 at float(pi/2).
    Returns the pair (q_d, sigma).
    """
    e_d, gamma_d, delta = _double_pole_args(e_d, gamma_d, delta)
    eps = _eps(np.asarray(energy, dtype=float), e_d, gamma_d)
    s = math.sin(delta)
    c = math.cos(delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        tan = np.divide(s, c)
        q_d = 0.5 * (1.0 - eps * eps) * tan
    sigma = 4.0 * (s * (1.0 - eps * eps) + 2.0 * eps * c) ** 2 / (eps * eps + 1.0) ** 2
    return scalarize(q_d, energy), scalarize(sigma, energy)
