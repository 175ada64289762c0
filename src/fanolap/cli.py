"""Command-line interface.

Every subcommand computes its full output first and then writes it through
a temporary file renamed into place, so no partial file is ever left behind
and reruns are byte-identical.  Exit codes: 0 success, 1 validation or
usage errors, 2 I/O errors.
"""

import argparse
import dataclasses
import errno
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import FanolapError, NegativeAkError
from .fano import fano_complex_params, fano_q_dynamic, fano_static_params
from .fit import fit_fano, format_fit_json, read_trace_csv
from .model import EnergyGrid, load_model
from .scan import (
    _format_columns,
    compare_representations,
    contour,
    figure1,
    figure2,
    format_contour_csv,
    format_trace_csv,
    trace,
)
from .smatrix import Representation

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_grid_flags(sub, required=True):
    sub.add_argument("--emin", type=float, required=required, help="grid start energy")
    sub.add_argument("--emax", type=float, required=required, help="grid end energy")
    sub.add_argument("--n", type=int, required=required, help="number of grid points")


def _grid_from_args(args):
    return EnergyGrid(args.emin, args.emax, args.n)


def _optional_grid(args):
    flags = (args.emin, args.emax, args.n)
    if all(v is None for v in flags):
        return None
    if any(v is None for v in flags):
        raise _UsageError("--emin, --emax and --n must be given together")
    return _grid_from_args(args)


def _build_parser():
    parser = _Parser(prog="fanolap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("trace", help="cross section over an energy grid")
    p.add_argument("--model", required=True, help="model JSON file")
    _add_grid_flags(p)
    p.add_argument(
        "--repr",
        default="product",
        choices=[r.value for r in Representation],
        help="S-matrix representation",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("qscan", help="energy-dependent asymmetry parameter over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=0, help="resonance index (0-based)")
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_qscan)

    p = sub.add_parser("params", help="static two-resonance parameters as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("contour", help="cross section over energy and background phase")
    p.add_argument("--model", required=True)
    _add_grid_flags(p)
    p.add_argument("--delta-min", type=float, default=0.0)
    p.add_argument("--delta-max", type=float, default=float(np.pi))
    p.add_argument("--ndelta", type=int, default=181)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("fig1", help="degenerate-pole reference panels (8 CSVs)")
    p.add_argument("--gamma", type=float, required=True, help="degenerate pole width")
    _add_grid_flags(p, required=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="narrow-next-to-broad reference traces (7 CSVs)")
    _add_grid_flags(p, required=False)
    p.add_argument("--ndelta", type=int, default=181)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fit", help="fit a Fano profile to a trace CSV")
    p.add_argument("--data", required=True, help="input 'energy,sigma' CSV")
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol-step", type=float, default=1e-10)
    p.add_argument("--tol-grad", type=float, default=1e-12)
    p.add_argument("--damping-init", type=float, default=1e-3)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="pairwise representation deviations as JSON")
    p.add_argument("--model", required=True)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def _cmd_trace(args):
    m = load_model(args.model)
    tr = trace(m, _grid_from_args(args), Representation(args.repr))
    return [(Path(args.out), format_trace_csv(tr))]


def _cmd_qscan(args):
    m = load_model(args.model)
    e = _grid_from_args(args).points()
    q = fano_q_dynamic(m, args.k, e)
    return [(Path(args.out), _format_columns("energy,q", e, q))]


def _cmd_params(args):
    m = load_model(args.model)
    p = fano_static_params(m)
    body = {"static": dataclasses.asdict(p)}
    try:
        cp = fano_complex_params(p)
    except NegativeAkError as err:
        body["complex"] = None
        body["complex_error"] = {"type": "NegativeAkError", "a1": err.a1, "a2": err.a2}
    else:
        body["complex"] = {
            "q1": {"re": cp.q1.real, "im": cp.q1.imag},
            "q2": {"re": cp.q2.real, "im": cp.q2.imag},
        }
        body["complex_error"] = None
    return [(Path(args.out), json.dumps(body, indent=2, sort_keys=True) + "\n")]


def _cmd_contour(args):
    m = load_model(args.model)
    cg = contour(m, _grid_from_args(args), args.delta_min, args.delta_max, args.ndelta)
    return [(Path(args.out), format_contour_csv(cg))]


def _cmd_fig1(args):
    panels = figure1(args.gamma, _optional_grid(args))
    outdir = Path(args.out)
    outputs = []
    for label, panel in zip("abcd", panels):
        outputs.append((outdir / ("fig1%s_full.csv" % label), format_trace_csv(panel.full)))
        outputs.append((outdir / ("fig1%s_dashed.csv" % label), format_trace_csv(panel.dashed)))
    return outputs


def _cmd_fig2(args):
    result = figure2(_optional_grid(args), args.ndelta)
    outdir = Path(args.out)
    outputs = []
    for label, v in (("a", result.window), ("b", result.breit_wigner)):
        for part, tr in (("delta0", v.at_delta0), ("minus", v.minus), ("plus", v.plus)):
            outputs.append((outdir / ("fig2%s_%s.csv" % (label, part)), format_trace_csv(tr)))
    outputs.append((outdir / "fig2_contour.csv", format_contour_csv(result.contour)))
    return outputs


def _cmd_fit(args):
    tr = read_trace_csv(args.data)
    res = fit_fano(
        tr,
        max_iter=args.max_iter,
        tol_step=args.tol_step,
        tol_grad=args.tol_grad,
        damping_init=args.damping_init,
    )
    return [(Path(args.out), format_fit_json(res))]


def _cmd_compare(args):
    m = load_model(args.model)
    report = compare_representations(m, _grid_from_args(args))
    return [(Path(args.out), json.dumps(report, indent=2, sort_keys=True) + "\n")]


def _write_all(outputs):
    staged = []
    try:
        for path, text in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():
                # catch this before any rename so a multi-file command
                # either lands completely or not at all
                raise IsADirectoryError(
                    errno.EISDIR, "output path is a directory", str(path)
                )
            fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=str(path.parent))
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            staged.append([tmp, path])
        for entry in staged:
            os.replace(entry[0], entry[1])
            entry[0] = None
    finally:
        for tmp, _ in staged:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


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
