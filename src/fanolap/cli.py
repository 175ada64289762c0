"""Command-line interface.

Every subcommand computes its full output first and then writes it through
a temporary file renamed into place, so no partial file is ever left behind
and reruns are byte-identical.  Exit codes: 0 success, 1 validation or
usage errors, 2 I/O errors.
"""

import argparse
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np

from ._util import _json_text, _write_all
from .errors import FanolapError, NegativeAkError
from .fano import fano_complex_params, fano_q_dynamic, fano_static_params
from .fit import fit_fano, format_fit_json
from .model import EnergyGrid, load_model
from .scan import (
    _format_columns,
    compare_representations,
    contour,
    figure1,
    figure2,
    format_contour_csv,
    format_trace_csv,
    read_trace_csv,
    trace,
)
from .smatrix import Representation

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


# what argparse takes for a negative number, a value rather than an option;
# its own pattern, on Python 3.10 and 3.11 at least, misses exponent forms such as -1e3
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(message)


# fit_fano's keyword-only parameters are the solver settings, each flag typed by
# its default; read at import, as a wrapper put in fit_fano's place (perfbench's
# tracer) has no defaults of its own
_SOLVER_DEFAULTS = fit_fano.__kwdefaults__


def _grid(args):
    """The --emin/--emax/--n grid, or None when no grid flag is given."""
    flags = (args.emin, args.emax, args.n)
    if all(v is None for v in flags):
        return None
    if any(v is None for v in flags):
        raise _UsageError("--emin, --emax and --n must be given together")
    return EnergyGrid(*flags)


def _command(sub, func, help, out, model=True, grid=True):
    """The parser of the subcommand that ``func``, _cmd_<name>, runs: --model
    when ``model``, the grid flags, required when ``grid`` is True, optional
    when False, absent when None, and --out with the help ``out``."""
    p = sub.add_parser(func.__name__.removeprefix("_cmd_"), help=help)
    p.set_defaults(func=func)
    if model:
        p.add_argument("--model", required=True, help="model JSON file")
    if grid is not None:
        p.add_argument("--emin", type=float, required=grid, help="grid start energy")
        p.add_argument("--emax", type=float, required=grid, help="grid end energy")
        p.add_argument("--n", type=int, required=grid, help="number of grid points")
    p.add_argument("--out", required=True, help=out)
    return p


def _build_parser():
    parser = _Parser(prog="fanolap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    to_csv, to_json, to_dir = "output CSV path", "output JSON path", "output directory"

    p = _command(sub, _cmd_trace, "cross section over an energy grid", to_csv)
    p.add_argument("--repr", default="product", choices=[r.value for r in Representation],
                   help="S-matrix representation")
    p = _command(sub, _cmd_qscan, "energy-dependent asymmetry parameter over a grid", to_csv)
    p.add_argument("--k", type=int, default=0, help="resonance index (0-based)")
    _command(sub, _cmd_params, "static two-resonance parameters as JSON", to_json, grid=None)
    p = _command(sub, _cmd_contour, "cross section over energy and background phase", to_csv)
    p.add_argument("--delta-min", type=float, default=0.0)
    p.add_argument("--delta-max", type=float, default=float(np.pi))
    p.add_argument("--ndelta", type=int, default=181)
    p = _command(sub, _cmd_fig1, "degenerate-pole reference panels (8 CSVs)", to_dir,
                 model=False, grid=False)
    p.add_argument("--gamma", type=float, required=True, help="degenerate pole width")
    p = _command(sub, _cmd_fig2, "narrow-next-to-broad reference traces (7 CSVs)", to_dir,
                 model=False, grid=False)
    p.add_argument("--ndelta", type=int, default=181)
    p = _command(sub, _cmd_fit, "fit a Fano profile to a trace CSV", to_json,
                 model=False, grid=None)
    p.add_argument("--data", required=True, help="input 'energy,sigma' CSV")
    for name, default in _SOLVER_DEFAULTS.items():  # only given flags are passed on
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=argparse.SUPPRESS)
    _command(sub, _cmd_compare, "pairwise representation deviations as JSON", to_json)
    return parser


def _cmd_trace(args):
    m = load_model(args.model)
    tr = trace(m, _grid(args), Representation(args.repr))
    return [(args.out, format_trace_csv(tr))]


def _cmd_qscan(args):
    m = load_model(args.model)
    e = _grid(args).points()
    q = fano_q_dynamic(m, args.k, e)
    return [(args.out, _format_columns("energy,q", e, q))]


def _cmd_params(args):
    m = load_model(args.model)
    p = fano_static_params(m)
    body = {"static": dataclasses.asdict(p), "complex": None, "complex_error": None}
    try:
        cp = fano_complex_params(p)
    except NegativeAkError as err:
        body["complex_error"] = {"type": "NegativeAkError", "a1": err.a1, "a2": err.a2}
    else:
        body["complex"] = {
            "q1": {"re": cp.q1.real, "im": cp.q1.imag},
            "q2": {"re": cp.q2.real, "im": cp.q2.imag},
        }
    return [(args.out, _json_text(body))]


def _cmd_contour(args):
    m = load_model(args.model)
    cg = contour(m, _grid(args), args.delta_min, args.delta_max, args.ndelta)
    return [(args.out, format_contour_csv(cg))]


def _cmd_fig1(args):
    panels = figure1(args.gamma, _grid(args))
    outdir = Path(args.out)
    outputs = []
    for label, panel in zip("abcd", panels):
        outputs.append((outdir / ("fig1%s_full.csv" % label), format_trace_csv(panel.full)))
        outputs.append((outdir / ("fig1%s_dashed.csv" % label), format_trace_csv(panel.dashed)))
    return outputs


def _cmd_fig2(args):
    result = figure2(_grid(args), args.ndelta)
    outdir = Path(args.out)
    outputs = []
    for label, v in (("a", result.window), ("b", result.breit_wigner)):
        for part, tr in (("delta0", v.at_delta0), ("minus", v.minus), ("plus", v.plus)):
            outputs.append((outdir / ("fig2%s_%s.csv" % (label, part)), format_trace_csv(tr)))
    outputs.append((outdir / "fig2_contour.csv", format_contour_csv(result.contour)))
    return outputs


def _cmd_fit(args):
    tr = read_trace_csv(args.data)
    given = {name: getattr(args, name) for name in _SOLVER_DEFAULTS if hasattr(args, name)}
    res = fit_fano(tr, **given)
    return [(args.out, format_fit_json(res))]


def _cmd_compare(args):
    m = load_model(args.model)
    report = compare_representations(m, _grid(args))
    return [(args.out, _json_text(report))]


def run(argv=None):
    """Parse arguments, execute one subcommand, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print("error: %s" % err, file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse exits itself for --help
        return int(exc.code or 0)
    try:
        outputs = args.func(args)
        _write_all(outputs)
    except _UsageError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except OSError as err:
        print("io error: %s" % err, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use a smaller grid (--n, --ndelta)", file=sys.stderr)
        return 1
    except FanolapError as err:
        print("%s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
