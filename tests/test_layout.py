"""Package layout checks: one public namespace, one file writer, one
scalar validator, one per-energy evaluation, one home and one caller of
threads, one trace CSV header, one home of the pole residues and of the pole
sum, one zero-phase refusal, one product-form kernel, one set of pole rows,
one rule and sampler of uniform axes, one formula of q~'s zero and pole,
and no power-of-two squares for the whole of ``src/fanolap``."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import fanolap

SRC = Path(fanolap.__file__).resolve().parent
MODULES = ("errors", "fano", "fit", "model", "scan", "smatrix")


def _public_names(mod):
    if hasattr(mod, "__all__"):
        return mod.__all__
    return [n for n, v in vars(mod).items()
            if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__]


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_every_public_name(name):
    mod = importlib.import_module("fanolap." + name)
    names = _public_names(mod)
    assert names
    for n in names:
        assert getattr(fanolap, n) is getattr(mod, n), n


def test_trace_reader_lives_with_the_writer():
    from fanolap import fit, scan

    assert scan.read_trace_csv.__module__ == "fanolap.scan"
    assert fit.read_trace_csv is scan.read_trace_csv


def _writes(tree):
    """(line, what) for each file write, temp file, rename or JSON dump."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "tempfile" in (alias.name, getattr(node, "module", None)):
                    found.append((node.lineno, "tempfile"))
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        owner = getattr(f.value, "id", None) if isinstance(f, ast.Attribute) else None
        if owner == "json" and name in ("dump", "dumps"):
            found.append((node.lineno, "json." + name))
        elif owner == "os" and name in ("replace", "rename", "fdopen"):
            found.append((node.lineno, "os." + name))
        elif name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            # open(path, mode), io.open(path, mode) and Path.open(mode)
            at = 1 if isinstance(f, ast.Name) or owner in ("io", "os", "codecs") else 0
            mode = node.args[at] if len(node.args) > at else None
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if mode is not None and not (
                isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")
            ):
                found.append((node.lineno, "open for writing"))
    return found


def test_only_util_writes_files():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_util.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += ["%s:%d %s" % (path.name, line, what) for line, what in _writes(tree)]
    assert offenders == []
    assert _writes(ast.parse((SRC / "_util.py").read_text(encoding="utf-8")))


_CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def _concurrency_imports(tree):
    """(line, module) for each import of a thread or process module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in _CONCURRENCY]
    return found


def _parallel_mentions(tree):
    """The top-level definition around each mention of _parallel: its def,
    a name, an attribute or an import ("<module>" outside any def)."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.FunctionDef) and node.name == "_parallel")
                    or (isinstance(node, ast.Name) and node.id == "_parallel")
                    or (isinstance(node, ast.Attribute) and node.attr == "_parallel")
                    or (isinstance(node, ast.alias) and node.name == "_parallel")):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_only_util_imports_threads():
    # _util._parallel is the one place that starts threads, so the caller's
    # error state and the join before return are kept in one place; and
    # _pointwise is its one caller, so a second threaded path needs a
    # workload that reaches _THREADED_SECONDS and a change here
    offenders, parallel = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_util.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += ["%s:%d %s" % (path.name, line, what)
                      for line, what in _concurrency_imports(tree)]
        parallel |= {(path.name, top) for top in _parallel_mentions(tree)}
    assert offenders == []
    util = ast.parse((SRC / "_util.py").read_text(encoding="utf-8"))
    assert [what for _, what in _concurrency_imports(util)] == ["threading"]
    parallel |= {("_util.py", top) for top in _parallel_mentions(util)}
    assert parallel == {("_util.py", "_parallel"), ("_util.py", "_pointwise")}


def test_trace_header_is_spelled_once():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value == "energy,sigma":
                hits.append("%s:%d" % (path.name, node.lineno))
    assert len(hits) == 1, hits


# the wording of _util._real and _util._count; a second validator would repeat it
_SCALAR_RULE = re.compile(
    r"must be finite.*, got|must be >=|must be a real number|must be an integer"
)


def test_only_util_validates_scalars():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _SCALAR_RULE.search(node.value):
                    hits.append(path.name)
    assert hits and set(hits) == {"_util.py"}, hits


def _energy_handling(tree):
    """(line, what) for each np.asarray of `energy`, each use of _BLOCK, and
    each function taking `energy` that hands it to neither _pointwise nor
    _real."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_BLOCK":
            found.append((node.lineno, "_BLOCK"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "asarray" and node.args
              and isinstance(node.args[0], ast.Name) and node.args[0].id == "energy"):
            found.append((node.lineno, "np.asarray(energy)"))
        elif (isinstance(node, ast.FunctionDef)
              and "energy" in [a.arg for a in node.args.args]):
            handed = any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) in ("_pointwise", "_real")
                and any(isinstance(a, ast.Name) and a.id == "energy" for a in call.args)
                for call in ast.walk(node)
            )
            if not handed:
                found.append((node.lineno, "%s keeps its energy" % node.name))
    return found


def test_only_util_evaluates_energies():
    # _util._pointwise is the one home of per-energy evaluation: it alone
    # converts the energies and walks the blocks, so every evaluator gives
    # the same bits for an energy on any grid, slice or on its own
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_util.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += ["%s:%d %s" % (path.name, line, what)
                      for line, what in _energy_handling(tree)]
    assert offenders == []
    util = ast.parse((SRC / "_util.py").read_text(encoding="utf-8"))
    assert {"_BLOCK", "np.asarray(energy)"} <= {what for _, what in _energy_handling(util)}


def test_no_square_is_written_as_a_power():
    # x ** 2 goes through pow on a 0-d operand and is squared on an array,
    # so a scalar energy could round differently from the same grid point
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.right, ast.Constant) and node.right.value == 2):
                hits.append("%s:%d" % (path.name, node.lineno))
    assert hits == []


def _top_level_uses(tree, match):
    """The top-level definition around each node ``match`` accepts."""
    return [getattr(top, "name", "<module>")
            for top in tree.body for node in ast.walk(top) if match(node)]


def _np(*names):
    """Matches np.<name> for each of the names."""
    return lambda node: (isinstance(node, ast.Attribute) and node.attr in names
                         and isinstance(node.value, ast.Name) and node.value.id == "np")


def _fano_numerator(node):
    """np.square(a * b - c), the numerator of the isolated Fano form."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "square" and len(node.args) == 1
            and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Sub)
            and isinstance(node.args[0].left, ast.BinOp)
            and isinstance(node.args[0].left.op, ast.Mult))


def test_one_fano_kernel_and_one_trig_phase():
    # the single-resonance form 4*(eps*s - c)^2/(eps^2 + 1) is written once,
    # in model._fano_sigma, and the stable sigma and the non-interacting sum
    # both call it; the arctan phase is resonance_phase's alone
    trig, numerator, callers = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        trig |= {(path.name, top) for top in _top_level_uses(tree, _np("arctan", "sin", "cos"))}
        numerator |= {(path.name, top) for top in _top_level_uses(tree, _fano_numerator)}
        callers |= {(path.name, top) for top in _top_level_uses(
            tree, lambda n: isinstance(n, ast.Name) and n.id == "_fano_sigma")}
    assert trig == {("model.py", "resonance_phase")}
    assert numerator == {("model.py", "_fano_sigma")}
    assert callers == {("fano.py", "fano_cross_section_dynamic"),
                       ("smatrix.py", "cross_section_noninteracting")}


def _raises(name):
    return lambda node: (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                         and getattr(node.exc.func, "id", None) == name)


def _pole_sum(node):
    """a - 1j * b or np.multiply(1j, b): the i*sum_k W_k/(E - ce_k) that the
    pole expansion exp(2i delta)*(1 - i*sum_k W_k/(E - ce_k)) subtracts."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        node = node.right
        product = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        first = node.left if product else None
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "multiply":
        first = node.args[0] if node.args else None
    else:
        return False
    return isinstance(first, ast.Constant) and first.value == 1j


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _zero_phase_message(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "zero background phase" in node.value)


def test_one_residue_core_and_one_pole_kernel():
    # smatrix._pole_residues is the one place that raises for coalescing
    # poles, for every caller; the pole sum is written once, in the kernel
    # that serves s_pole and compare_representations with either coupling
    # choice; every pole form and compare take any delta, so only
    # fano_static_params, whose parametrization is defined at delta = 0,
    # refuses a background phase; and the product form's factors are taken
    # in one kernel, which contour calls with a column of phases
    raises, sums, kernels, zero_phase, factors, defs = [], set(), set(), [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raises += [(path.name, top) for top in _top_level_uses(
            tree, _raises("DoublePoleSingularity"))]
        sums |= {(path.name, top) for top in _top_level_uses(tree, _pole_sum)}
        kernels |= {(path.name, top) for top in _top_level_uses(tree, _calls("_pole_kernel"))}
        zero_phase += [(path.name, top) for top in _top_level_uses(tree, _zero_phase_message)]
        factors += [(path.name, top) for top in _top_level_uses(tree, _calls("_factors"))]
        defs |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert raises == [("smatrix.py", "_pole_residues")]
    assert sums == {("smatrix.py", "_pole_kernel")}
    assert kernels == {("smatrix.py", "s_pole"), ("scan.py", "compare_representations")}
    assert zero_phase == [("fano.py", "fano_static_params")]
    assert "_require_two_zero_delta" not in defs
    assert factors == [("smatrix.py", "_product_kernel")]
    scan = ast.parse((SRC / "scan.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(scan) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not imported & {"_ordered_product", "_factors"}


def test_one_set_of_pole_rows():
    # every pole form divides by the rows t_k = E - ce_k: the product factors
    # are conj(t_k)/t_k and the dynamic couplings' denominator is t_1 + t_2,
    # so smatrix rounds no second denominator from E, and model._axis keeps
    # no column of conjugate poles
    from fanolap.model import _axis

    text = (SRC / "smatrix.py").read_text(encoding="utf-8")
    assert not [gone for gone in ("2.0 * e", "ce1", "ce2") if gone in text]
    raw = next(node for node in ast.parse(text).body
               if isinstance(node, ast.FunctionDef) and node.name == "_w_dynamic_raw")
    assert [a.arg for a in raw.args.args] == ["g", "ig_other", "t"]
    m = fanolap.ScatteringModel((fanolap.Resonance(0.0, 1.0), fanolap.Resonance(1.0, 3.0)))
    columns = _axis(m)
    assert len(columns) == 4
    assert columns[2][:, 0].tolist() == [fanolap.complex_energy(r) for r in m.resonances]


_ORDER_RULE = re.compile(r"must be <.*>=")


def test_one_axis_rule_one_landmark_and_one_product_route():
    # model._uniform_rule checks, and model._uniform_points samples, every
    # uniform axis: the energies and contour's phases; q~'s zero and pole are
    # one guarded formula; and compare_representations builds the product and
    # pole forms from their kernels, not through the public evaluators
    linspace, order, landmark, public = set(), [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        linspace |= {(path.name, top) for top in _top_level_uses(tree, _np("linspace"))}
        order += [(path.name, top) for top in _top_level_uses(
            tree, lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
            and bool(_ORDER_RULE.search(n.value)))]
        landmark += [(path.name, top) for top in _top_level_uses(
            tree, _raises("NoFiniteSolution"))]
        public |= {(path.name, top) for top in _top_level_uses(
            tree, lambda n: isinstance(n, ast.Name) and n.id in ("s_unitary_product", "s_pole"))}
    assert linspace == {("model.py", "_uniform_points")}
    assert order == [("model.py", "_uniform_rule")]
    assert landmark == [("fano.py", "_q_landmark")]
    assert ("scan.py", "compare_representations") not in public
    assert ("scan.py", "trace") in public
