"""Grid evaluation of cross sections, reference figures, and representation
comparison reports, plus the CSV dialects used by the command line: the
trace CSV written and read back, and the contour CSV.

Floats are written with 17 significant digits so every value round-trips
bit for bit and reruns are byte-identical.
"""

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from ._g17 import format_csv
from ._util import _cells, _phase, _pointwise, _read_text, _write_all
from .errors import DoublePoleSingularity, ValidationError
from .model import (
    EnergyGrid,
    Resonance,
    ScatteringModel,
    _uniform_points,
    _uniform_rule,
    epsilon,
    model_to_dict,
)
from .smatrix import (
    Representation,
    _double_pole_args,
    _pole_kernel,
    _product_kernel,
    _sigma,
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
    "read_trace_csv",
    "format_contour_csv",
    "write_contour_csv",
]

# Rounding slack on the single-channel bound sigma <= 4.
UNITARITY_SLACK = 1e-12

_TRACE_HEADER = "energy,sigma"


@dataclass(frozen=True)
class TraceMeta:
    """Provenance of a trace: representation tag, background phase, model."""

    representation: str
    delta: float | None = None
    model: ScatteringModel | None = None


def _span(x):
    """(min, max) of a float array as floats, reduced without a boolean
    array per value: both nan if it holds a nan, (0.0, 0.0) if it is empty."""
    return (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)


def _owning(cls, *args):
    """cls(*args) for arrays that nothing else holds, as trace and contour
    make them: checked and made read-only in place instead of copied."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, args):
        object.__setattr__(obj, name, value)
    obj._adopt()
    return obj


def _copying(obj):
    """__post_init__ of a result built from a caller's arrays: each array
    field is copied first, so no caller's array is aliased or frozen."""
    for f in fields(obj):
        if f.type is np.ndarray:
            object.__setattr__(obj, f.name, np.array(getattr(obj, f.name), dtype=float))
    obj._adopt()


@dataclass(frozen=True, eq=False)
class CrossSectionTrace:
    """Cross section sampled on strictly increasing energies."""

    energies: np.ndarray
    sigma: np.ndarray
    meta: TraceMeta

    __post_init__ = _copying

    def _adopt(self):
        """Check the arrays and make them read-only."""
        e, s = self.energies, self.sigma
        if e.ndim != 1 or s.ndim != 1 or e.size != s.size or e.size < 1:
            raise ValidationError("energies and sigma must be 1-d arrays of equal length")
        s_min, s_max = _span(s)
        increasing = bool((e[1:] > e[:-1]).all())  # then finite if both ends are
        ends = (e[0], e[-1]) if increasing else _span(e)
        if not all(map(math.isfinite, ends + (s_min, s_max))):
            raise ValidationError("trace values must be finite")
        if not increasing:
            raise ValidationError("energies must be strictly increasing")
        if s_min < 0.0:
            raise ValidationError("cross sections are non-negative")
        for arr in (e, s):
            arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """Cross section over an (energy, background-phase) grid; rows follow
    the phase axis.  Built from the unitary product form, so every entry
    honors the single-channel bound."""

    energies: np.ndarray
    deltas: np.ndarray
    sigma: np.ndarray

    __post_init__ = _copying

    def _adopt(self):
        """Check the arrays and make them read-only."""
        e, d, s = self.energies, self.deltas, self.sigma
        if e.ndim != 1 or d.ndim != 1 or s.shape != (d.size, e.size):
            raise ValidationError("sigma must have shape (len(deltas), len(energies))")
        s_min, s_max = _span(s)
        if not all(map(math.isfinite, _span(e) + _span(d) + (s_min, s_max))):
            raise ValidationError("contour values must be finite")
        if s_min < 0.0 or s_max > 4.0 + UNITARITY_SLACK:
            raise ValidationError("contour entries must lie in [0, 4]")
        for arr in (e, d, s):
            arr.setflags(write=False)


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

    The static pole representation takes any model, the dynamic one any two
    resonances; the double-pole representation reads a
    one-resonance model as the degenerate pole (the pole counted twice).
    """
    e = g.points()
    if rep is Representation.UNITARY_PRODUCT:
        s_of = lambda x: s_unitary_product(m, x)
    elif rep in (Representation.POLES_STATIC, Representation.POLES_DYNAMIC):
        s_of = lambda x: s_pole(m, x, rep)
    elif rep is Representation.DOUBLE_POLE:
        if len(m.resonances) != 1:
            raise ValidationError("the double-pole representation takes a one-resonance model "
                                  "as the degenerate pole, got %d resonances" % len(m.resonances))
        r = m.resonances[0]
        s_of = lambda x: s_double_pole(r.position, r.width, m.delta, x)
    else:
        raise ValidationError("unknown representation %r" % (rep,))
    # S of one block at a time, as wide as s_unitary_product's, which so never splits
    sigma = _pointwise(lambda x: cross_section(s_of(x)), e, rows=len(m.resonances))
    return _owning(CrossSectionTrace, e, sigma, TraceMeta(rep.value, m.delta, m))


def contour(m, g, delta_min, delta_max, n_delta, endpoint=True):
    """Sweep the background phase over [delta_min, delta_max], one row per phase."""
    delta_min, delta_max, n_delta = _uniform_rule(delta_min, delta_max, n_delta,
                                                  ("delta_min", "delta_max", "n_delta"))
    _phase(delta_min, "delta_min")  # after the rule, which names an overflowing span first
    _phase(delta_max, "delta_max")
    _cells(n_delta * g.n_points, "n_delta * n_points")
    e = g.points()
    deltas = _uniform_points(delta_min, delta_max, n_delta, endpoint)
    s_of = _product_kernel(m, np.exp(2j * deltas)[:, None])
    # a block of energies makes its factors, then all phase rows of its columns
    # in at most _BLOCK complex cells, whose cross sections are one _sigma call
    sigma = _pointwise(lambda x: _sigma(s_of(x)).T, e, rows=len(m.resonances) + 4 * n_delta)
    return _owning(ContourGrid, e, deltas, sigma.T)


_FIG1_DELTAS = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi)


def figure1(gamma_d, g=None):
    """Degenerate pole at zero: full curve against the incoherent reference
    at background phases 0, pi/4, pi/2 and 3*pi/4."""
    _, gamma_d, _ = _double_pole_args(0.0, gamma_d, 0.0)
    if g is None:
        g = EnergyGrid(-5.0 * gamma_d, 5.0 * gamma_d, 1001)
    pole = Resonance(0.0, gamma_d)
    panels = []
    for delta in _FIG1_DELTAS:
        full = trace(ScatteringModel((pole,), delta), g, Representation.DOUBLE_POLE)
        pair = ScatteringModel((pole, pole), delta)
        dashed = cross_section_noninteracting(pair, full.energies)
        meta = TraceMeta("noninteracting", delta, pair)
        panels.append(Figure1Panel(delta, full, CrossSectionTrace(full.energies, dashed, meta)))
    return panels


_FIG2_RESONANCES = (Resonance(0.0, 0.1), Resonance(0.5, 1.0))


def figure2_model(delta):
    """Narrow resonance at 0 (width 0.1) next to a broad one at 0.5 (width 1)."""
    return ScatteringModel(_FIG2_RESONANCES, delta)


def _fig2_variant(delta0, g):
    return Figure2Variant(delta0, *(
        trace(figure2_model(d), g, Representation.UNITARY_PRODUCT)
        for d in (delta0, delta0 - 0.5, delta0 + 0.5)
    ))


def figure2(g=None, n_delta=181):
    """Narrow-next-to-broad showcase: the background phases where the narrow
    resonance appears as a window dip and as a symmetric peak, companions
    0.5 rad to each side, and a phase sweep over [0, pi)."""
    if g is None:
        g = EnergyGrid(-1.0, 1.5, 1001)
    eps2_at_e1 = epsilon(_FIG2_RESONANCES[1], _FIG2_RESONANCES[0].position)
    delta0_window = -math.atan(eps2_at_e1)
    delta0_bw = 0.5 * math.pi - math.atan(eps2_at_e1)
    window = _fig2_variant(delta0_window, g)
    breit_wigner = _fig2_variant(delta0_bw, g)
    sweep = contour(figure2_model(0.0), g, 0.0, math.pi, n_delta, endpoint=False)
    return Figure2Result(window, breit_wigner, sweep)


def compare_representations(m, g):
    """Pairwise max |S_a - S_b| on the grid for the product, static pole and
    dynamic pole forms of any two resonances at any delta.  A near-degenerate
    model makes the static form inapplicable, reported in the result, not raised."""
    forms = [_product_kernel(m, np.exp(2j * m.delta)),
             _pole_kernel(m, Representation.POLES_DYNAMIC, "compare_representations")]
    names = [("product_vs_poles_dynamic", 0, 1)]  # and the indices of the two forms
    note = None
    try:
        forms.append(_pole_kernel(m, Representation.POLES_STATIC, "compare_representations"))
        names += [("product_vs_poles_static", 0, 2), ("poles_static_vs_poles_dynamic", 2, 1)]
    except DoublePoleSingularity as err:
        note = str(err)

    def deviations(x):
        # |S_a - S_b| per energy, one row per pair, transposed: no stacked complex copy
        s = [f(x) for f in forms]
        d = np.empty((len(names), x.size))
        for row, (_, a, b) in zip(d, names):
            np.abs(s[a] - s[b], out=row)
        return d.T

    e = g.points()
    pairs = {}
    for (name, _, _), col in zip(names, _pointwise(deviations, e).T):
        i = int(col.argmax())  # column by column: an argmax over axis 0 copies every column
        pairs[name] = {"max_abs_dev": float(col[i]), "argmax_energy": float(e[i])}
    return {
        "model": model_to_dict(m),
        "grid": {"e_min": g.e_min, "e_max": g.e_max, "n_points": g.n_points},
        "poles_static_applicable": note is None,
        "poles_static_note": note,
        "pairs": pairs,
    }


def _format_columns(header, *columns):
    """The header line, then one CSV line per row of the columns side by
    side (a 2-d block adds one field per block column)."""
    return format_csv(header + "\n", [np.asarray(c, dtype=float) for c in columns])


def format_trace_csv(tr):
    return _format_columns(_TRACE_HEADER, tr.energies, tr.sigma)


def write_trace_csv(tr, path):
    _write_all([(path, format_trace_csv(tr))])


def format_contour_csv(cg):
    # the energies row, without its line end
    return _format_columns("," + format_csv("", [cg.energies[None, :]])[:-1], cg.deltas, cg.sigma)


def write_contour_csv(cg, path):
    _write_all([(path, format_contour_csv(cg))])


# The fast parser strips these ASCII information separators from around a
# number; float(), and so the dialect, does not.
_PARSER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _lines(text, chunk=1 << 16):
    """text.split("\\n") a chunk at a time, so that no second copy of the
    whole file is alive at once."""
    def pieces(start=0):
        while start <= len(text):
            end = text.find("\n", start + chunk)
            if end < 0:
                end = len(text)
            yield text[start:end].split("\n")
            start = end + 1
    return itertools.chain.from_iterable(pieces())


def read_trace_csv(path):
    """Read an 'energy,sigma' CSV into a trace.

    The dialect: a header line 'energy,sigma', then one comma-separated
    pair per line of ASCII numbers as float() reads them, without '_'
    separators; fields may carry surrounding whitespace and double quotes,
    blank lines are skipped, and there are no comments.  Unreadable files
    raise OSError; malformed content raises ValidationError naming the
    first bad line.
    """
    text = _read_text(path, "trace file")
    lines = _lines(text)
    rows = csv.reader(lines)
    try:
        header = next(rows, None)
    except csv.Error as err:
        raise ValidationError("trace file %s line %d: %s" % (path, rows.line_num, err)) from err
    if header is None or [c.strip() for c in header] != _TRACE_HEADER.split(","):
        raise ValidationError("trace file %s must start with header '%s'" % (path, _TRACE_HEADER))
    body = 0
    for _ in range(rows.line_num):
        body = text.find("\n", body) + 1 or len(text)
    data = None
    if not any(text.find(c, body) >= 0 for c in _PARSER_ONLY_SPACE):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header-only file
                # the csv reader took just the header's lines from `lines`
                data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, quotechar='"')
        except ValueError:
            pass
    if data is None or (data.size and data.shape[1] != 2):
        raise ValidationError(_bad_line(path, text) or "trace file %s: malformed body" % path)
    del text, lines, rows  # free the text before the columns are copied out
    # contiguous columns (a header-only file parses as (0, 1)), owned by the trace
    energies, sigma = data.reshape(-1, 2).T.copy()
    try:
        return _owning(CrossSectionTrace, energies, sigma, TraceMeta("csv"))
    except ValidationError as err:
        raise ValidationError("trace file %s: %s" % (path, err)) from err


def _bad_line(path, text):
    """Message naming the first malformed line after the header, or None.
    Only diagnoses a body the fast parser rejected; never returns data."""
    rows = csv.reader(_lines(text))
    try:
        next(rows)
        for row in rows:
            if not row:
                continue
            if len(row) != 2:
                return "trace file %s line %d: expected 2 columns" % (path, rows.line_num)
            for field in row:
                float(field)
                # float() also takes digit separators and non-ASCII digits
                stripped = field.strip()
                if "_" in stripped or not stripped.isascii():
                    raise ValueError("could not convert string to float: %r" % field)
    except (ValueError, csv.Error) as err:
        return "trace file %s line %d: %s" % (path, rows.line_num, err)
    return None
