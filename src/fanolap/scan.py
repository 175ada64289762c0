"""Grid evaluation of cross sections, reference figures, and representation
comparison reports, plus the CSV serializations used by the command line.

Floats are written with 17 significant digits so every value round-trips
bit for bit and reruns are byte-identical.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DoublePoleSingularity, ValidationError
from .model import (
    EnergyGrid,
    Resonance,
    ScatteringModel,
    _require_two_zero_delta,
    epsilon,
    model_to_dict,
)
from .smatrix import (
    Representation,
    _double_pole_args,
    cross_section,
    cross_section_noninteracting,
    s_double_pole,
    s_pole,
    s_unitary_product,
)

__all__ = [
    "TraceMeta",
    "CrossSectionTrace",
    "ContourGrid",
    "Figure1Panel",
    "Figure2Variant",
    "Figure2Result",
    "UNITARITY_SLACK",
    "trace",
    "contour",
    "figure1",
    "figure2",
    "figure2_model",
    "compare_representations",
    "format_trace_csv",
    "write_trace_csv",
    "format_contour_csv",
    "write_contour_csv",
]

# Rounding slack on the single-channel bound sigma <= 4.
UNITARITY_SLACK = 1e-12

_FMT = "%.17g"


@dataclass(frozen=True)
class TraceMeta:
    """Provenance of a trace: representation tag, background phase, model."""

    representation: str
    delta: float | None = None
    model: ScatteringModel | None = None


@dataclass(frozen=True, eq=False)
class CrossSectionTrace:
    """Cross section sampled on strictly increasing energies."""

    energies: np.ndarray
    sigma: np.ndarray
    meta: TraceMeta

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        s = np.array(self.sigma, dtype=float)
        if e.ndim != 1 or s.ndim != 1 or e.size != s.size or e.size < 1:
            raise ValidationError("energies and sigma must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(s))):
            raise ValidationError("trace values must be finite")
        if e.size > 1 and not np.all(np.diff(e) > 0.0):
            raise ValidationError("energies must be strictly increasing")
        if np.any(s < 0.0):
            raise ValidationError("cross sections are non-negative")
        for name, arr in (("energies", e), ("sigma", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """Cross section over an (energy, background-phase) grid; rows follow
    the phase axis.  Built from the unitary product form, so every entry
    honors the single-channel bound."""

    energies: np.ndarray
    deltas: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        d = np.array(self.deltas, dtype=float)
        s = np.array(self.sigma, dtype=float)
        if e.ndim != 1 or d.ndim != 1 or s.shape != (d.size, e.size):
            raise ValidationError("sigma must have shape (len(deltas), len(energies))")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(d)) and np.all(np.isfinite(s))):
            raise ValidationError("contour values must be finite")
        if np.any(s < 0.0) or np.any(s > 4.0 + UNITARITY_SLACK):
            raise ValidationError("contour entries must lie in [0, 4]")
        for name, arr in (("energies", e), ("deltas", d), ("sigma", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class Figure1Panel:
    """One background phase: full degenerate-pole curve and the incoherent
    two-resonance reference curve."""

    delta: float
    full: CrossSectionTrace
    dashed: CrossSectionTrace


@dataclass(frozen=True, eq=False)
class Figure2Variant:
    """Traces at a distinguished background phase and 0.5 rad to each side."""

    delta0: float
    at_delta0: CrossSectionTrace
    minus: CrossSectionTrace
    plus: CrossSectionTrace


@dataclass(frozen=True, eq=False)
class Figure2Result:
    window: Figure2Variant
    breit_wigner: Figure2Variant
    contour: ContourGrid


def trace(m, g, rep):
    """Cross section of the model over the grid in the chosen representation.

    The pole representations keep their two-resonance zero-delta domain; the
    double-pole representation reads a one-resonance model as the degenerate
    pole specification (the pole counted twice).
    """
    e = g.points()
    if rep is Representation.UNITARY_PRODUCT:
        sigma = cross_section(s_unitary_product(m, e))
    elif rep in (Representation.POLES_STATIC, Representation.POLES_DYNAMIC):
        sigma = cross_section(s_pole(m, e, rep))
    elif rep is Representation.DOUBLE_POLE:
        if len(m.resonances) != 1:
            raise ValidationError(
                "the double-pole representation takes a one-resonance model "
                "as the degenerate pole, got %d resonances" % len(m.resonances)
            )
        r = m.resonances[0]
        sigma = cross_section(s_double_pole(r.position, r.width, m.delta, e))
    else:
        raise ValidationError("unknown representation %r" % (rep,))
    return CrossSectionTrace(e, sigma, TraceMeta(rep.value, m.delta, m))


def contour(m, g, delta_min, delta_max, n_delta, endpoint=True):
    """Sweep the background phase over [delta_min, delta_max] row by row."""
    delta_min = float(delta_min)
    delta_max = float(delta_max)
    n_delta = int(n_delta)
    if not (math.isfinite(delta_min) and math.isfinite(delta_max)):
        raise ValidationError("phase bounds must be finite")
    if not delta_min < delta_max:
        raise ValidationError("delta_min must be < delta_max")
    if n_delta < 2:
        raise ValidationError("n_delta must be >= 2, got %r" % n_delta)
    e = g.points()
    deltas = np.linspace(delta_min, delta_max, n_delta, endpoint=endpoint)
    rows = np.empty((n_delta, e.size))
    for i, d in enumerate(deltas):
        swept = ScatteringModel(m.resonances, float(d))
        rows[i] = cross_section(s_unitary_product(swept, e))
    return ContourGrid(e, deltas, rows)


_FIG1_DELTAS = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi)


def figure1(gamma_d, g=None):
    """Degenerate pole at zero: full curve against the incoherent reference
    at background phases 0, pi/4, pi/2 and 3*pi/4."""
    _, gamma_d, _ = _double_pole_args(0.0, gamma_d, 0.0)
    if g is None:
        g = EnergyGrid(-5.0 * gamma_d, 5.0 * gamma_d, 1001)
    e = g.points()
    panels = []
    for delta in _FIG1_DELTAS:
        pair = ScatteringModel(
            (Resonance(0.0, gamma_d), Resonance(0.0, gamma_d)), delta
        )
        full = cross_section(s_double_pole(0.0, gamma_d, delta, e))
        dashed = cross_section_noninteracting(pair, e)
        panels.append(
            Figure1Panel(
                delta,
                CrossSectionTrace(e, full, TraceMeta("double-pole", delta, pair)),
                CrossSectionTrace(e, dashed, TraceMeta("noninteracting", delta, pair)),
            )
        )
    return panels


_FIG2_RESONANCES = (Resonance(0.0, 0.1), Resonance(0.5, 1.0))


def figure2_model(delta):
    """Narrow resonance at 0 (width 0.1) next to a broad one at 0.5 (width 1)."""
    return ScatteringModel(_FIG2_RESONANCES, delta)


def _fig2_variant(delta0, e):
    traces = []
    for d in (delta0, delta0 - 0.5, delta0 + 0.5):
        m = figure2_model(d)
        sigma = cross_section(s_unitary_product(m, e))
        traces.append(CrossSectionTrace(e, sigma, TraceMeta("product", d, m)))
    return Figure2Variant(delta0, *traces)


def figure2(g=None, n_delta=181):
    """Narrow-next-to-broad showcase: the background phases where the narrow
    resonance appears as a window dip and as a symmetric peak, companions
    0.5 rad to each side, and a phase sweep over [0, pi)."""
    if g is None:
        g = EnergyGrid(-1.0, 1.5, 1001)
    e = g.points()
    eps2_at_e1 = epsilon(_FIG2_RESONANCES[1], _FIG2_RESONANCES[0].position)
    delta0_window = -math.atan(eps2_at_e1)
    delta0_bw = 0.5 * math.pi - math.atan(eps2_at_e1)
    window = _fig2_variant(delta0_window, e)
    breit_wigner = _fig2_variant(delta0_bw, e)
    sweep = contour(figure2_model(0.0), g, 0.0, math.pi, n_delta, endpoint=False)
    return Figure2Result(window, breit_wigner, sweep)


def _pair_stats(sa, sb, e):
    dev = np.abs(sa - sb)
    i = int(np.argmax(dev))
    return {"max_abs_dev": float(dev[i]), "argmax_energy": float(e[i])}


def compare_representations(m, g):
    """Pairwise maximum |S_a - S_b| over the grid for the product, static
    pole, and dynamic pole forms.  A near-degenerate model makes the static
    form inapplicable; that is reported in the result, not raised."""
    _require_two_zero_delta(m, "compare_representations")
    e = g.points()
    s_prod = s_unitary_product(m, e)
    s_dyn = s_pole(m, e, Representation.POLES_DYNAMIC)
    pairs = {"product_vs_poles_dynamic": _pair_stats(s_prod, s_dyn, e)}
    applicable = True
    note = None
    try:
        s_stat = s_pole(m, e, Representation.POLES_STATIC)
    except DoublePoleSingularity as err:
        applicable = False
        note = str(err)
    else:
        pairs["product_vs_poles_static"] = _pair_stats(s_prod, s_stat, e)
        pairs["poles_static_vs_poles_dynamic"] = _pair_stats(s_stat, s_dyn, e)
    return {
        "model": model_to_dict(m),
        "grid": {"e_min": g.e_min, "e_max": g.e_max, "n_points": g.n_points},
        "poles_static_applicable": applicable,
        "poles_static_note": note,
        "pairs": pairs,
    }


def _format_columns(header, *columns):
    """The header line, then one CSV line per row of the columns side by
    side (a 2-d block adds one field per block column), in one %-format."""
    block = np.column_stack(columns)
    line = ",".join([_FMT] * block.shape[1]) + "\n"
    return header + "\n" + (line * len(block)) % tuple(block.ravel().tolist())


def format_trace_csv(tr):
    return _format_columns("energy,sigma", tr.energies, tr.sigma)


def write_trace_csv(tr, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_trace_csv(tr))


def format_contour_csv(cg):
    header = "," + ",".join(_FMT % e for e in cg.energies)
    return _format_columns(header, cg.deltas, cg.sigma)


def write_contour_csv(cg, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_contour_csv(cg))
