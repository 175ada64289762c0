"""Exact references for the evaluators, in fractions.Fraction arithmetic.

Every float input is taken as the exact rational it stores, so a reference
is exact in the inputs, and an evaluator's deviation from it is that
evaluator's own rounding.  At delta = 0 the non-interacting cross section
sum_k 4/(eps_k^2 + 1) and the product-form S are rational in the inputs.
At delta != 0 the float phase the evaluators use, exp(1j*delta) for the
cross section and exp(2j*delta) for S, is taken as an exact input, which
measures every step after the phase.  A complex value is a pair (re, im)
of Fractions.
"""

import math
from fractions import Fraction

import numpy as np

EPS = 2.0 ** -52


def noninteracting(m, e):
    """sum_k 4*(eps_k*s - c)^2/(eps_k^2 + 1) at the float e, exactly, with
    (c, s) the float real and imaginary parts of exp(1j*delta)."""
    z = np.exp(1j * m.delta)
    c, s = Fraction(float(z.real)), Fraction(float(z.imag))
    total = Fraction(0)
    for r in m.resonances:
        x = 2 * (Fraction(e) - Fraction(r.position)) / Fraction(r.width)
        total += 4 * (x * s - c) ** 2 / (x * x + 1)
    return total


def product_s(m, e):
    """exp(2i*delta)*prod_k (e - conj(ce_k))/(e - ce_k) at the float e,
    exactly, with the float exp(2j*delta) as the phase: with x = e - position_k
    and h = width_k/2, factor k is (x - ih)/(x + ih) = (x^2 - h^2 - 2ixh)/(x^2 + h^2)."""
    z = np.exp(2j * m.delta)
    re, im = Fraction(float(z.real)), Fraction(float(z.imag))
    for r in m.resonances:
        x = Fraction(e) - Fraction(r.position)
        h = Fraction(r.width) / 2
        d = x * x + h * h
        fr, fi = (x * x - h * h) / d, -2 * x * h / d
        re, im = re * fr - im * fi, re * fi + im * fr
    return re, im


def complex_error_in_eps(values, energies, exact):
    """max over the energies of |value - exact(e)| for complex values, with
    exact(e) a pair (re, im), in units of the double epsilon 2**-52."""
    worst = Fraction(0)
    for v, e in zip(np.asarray(values).tolist(), np.asarray(energies).tolist()):
        re, im = exact(e)
        worst = max(worst, (Fraction(v.real) - re) ** 2 + (Fraction(v.imag) - im) ** 2)
    return math.sqrt(worst) / EPS


def error_in_eps(values, energies, exact):
    """max over the energies of |value - exact(e)| / max(exact(e), 1), in
    units of the double epsilon 2**-52."""
    worst = Fraction(0)
    for v, e in zip(np.asarray(values).tolist(), np.asarray(energies).tolist()):
        ref = exact(e)
        worst = max(worst, abs(Fraction(v) - ref) / max(ref, Fraction(1)))
    return float(worst) / EPS
