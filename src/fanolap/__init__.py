"""Numerical toolkit for line shapes of overlapping resonances.

Covers equivalent closed forms of the one-channel S matrix (unitary
product, static and dynamic pole expansions, degenerate double pole), the
resulting Fano-type line-shape parametrizations with energy-dependent and
energy-independent asymmetry parameters, the background phases at which a
narrow resonance turns into a window dip or a symmetric peak, grid scans
for reference figures, and least-squares fitting of Fano profiles.
"""

from .errors import *
from .fano import *
from .fit import *
from .model import *
from .scan import *
from .smatrix import *

__version__ = "0.1.0"
