"""Static hygiene of the package source: exported names exist, imports are
used, the package depends on numpy alone, and README names exactly the
command-line options the parser has."""

import argparse
import ast
import inspect
import json
import re
from pathlib import Path

import pytest

import radwig
import radwig.checks
from radwig.cli import _build_parser

MODULES = sorted(Path(radwig.__file__).parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _import_bindings(node):
    """Names an Import/ImportFrom node binds in its scope."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _top_level_names(tree):
    """Names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_import_bindings(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dunder_all_names_resolve(path):
    tree = _parse(path)
    exported = _dunder_all(tree) or []
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = set(exported) - _top_level_names(tree)
    assert not missing, f"{path.name} exports undefined {sorted(missing)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_dunder_all(tree) or ())
    imported = {name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _import_bindings(node)}
    unused = imported - used
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


class _Scopes(ast.NodeVisitor):
    """Dotted scope (module.Class.function) of every function definition,
    of every call, with the called name, of every use of a name or
    attribute, with the name and whether it is stored or read, and of
    every attribute, with the source of the object it is read from."""

    def __init__(self, module):
        self.stack, self.defs, self.calls = [module], [], []
        self.names, self.attrs = [], []

    def visit_ClassDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        self.defs.append(".".join(self.stack + [node.name]))
        self.visit_ClassDef(node)

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            getattr(func, "attr", None)
        self.calls.append((name, ".".join(self.stack)))
        self.generic_visit(node)

    def visit_Name(self, node):
        self.names.append((node.id, type(node.ctx).__name__,
                           ".".join(self.stack)))

    def visit_Attribute(self, node):
        self.names.append((node.attr, type(node.ctx).__name__,
                           ".".join(self.stack)))
        self.attrs.append((ast.unparse(node.value), node.attr,
                           ".".join(self.stack)))
        self.generic_visit(node)


def test_one_density_matrix_contract():
    # every density type is stored by one rule and validated by one
    # validator, which alone measures the trace; the one base constructor
    # owns trace and min_eigenvalue: a second copy of the contract fails
    # here
    defs, calls = [], []
    for path in MODULES:
        scopes = _Scopes(path.stem)
        scopes.visit(_parse(path))
        defs += scopes.defs
        calls += scopes.calls
    # the storage rule, float64 when real and complex128 otherwise, is
    # written once
    assert sum(path.read_text(encoding="utf-8").count(
        "complex if np.iscomplexobj(") for path in MODULES) == 1
    # the one rule, over diagonal blocks: the base checks its entries as
    # one block, and the angular-momentum type the equal-m blocks it
    # stores, a Fock input's rotated ones included
    for helper in ("_stored", "_validate_blocks"):
        assert sorted(scope for name, scope in calls if name == helper) == \
            ["fock.SchwingerDensityMatrix.__init__",
             "wigner._DensityMatrix.__init__"]
    assert [scope for name, scope in calls if name == "trace"] == \
        ["wigner._validate_blocks"]
    assert [d for d in defs if d.rsplit(".", 1)[1] == "_validate_blocks"] == \
        ["wigner._validate_blocks"]
    for method in ("trace", "min_eigenvalue"):
        assert [d for d in defs if d.rsplit(".", 1)[1] == method] == \
            [f"wigner._DensityMatrix.{method}"]


def test_one_trace_rule():
    # a log-radius kernel keeps its samples, and DensityMatrixV alone
    # measures, records and checks their trace: the discrete norm is read
    # only where a state validates itself (and the Fock amplitudes of
    # FockDensityMatrix.from_pure, which are not samples), and fock neither
    # measures a kernel's trace nor warns about it
    calls, fock_names = [], set()
    for path in MODULES:
        tree = _parse(path)
        scopes = _Scopes(path.stem)
        scopes.visit(tree)
        calls += scopes.calls
        if path.stem == "fock":
            fock_names = {getattr(n, "attr", getattr(n, "id", getattr(
                n, "arg", None))) for n in ast.walk(tree)}
    assert sorted(scope for name, scope in calls if name == "norm") == [
        "fock.FockDensityMatrix.from_pure", "states._accept_samples"]
    assert not fock_names & {"trace", "trace_tol", "warn", "warnings",
                             "TruncationWarning"}
    assert list(inspect.signature(radwig.DensityMatrixV).parameters) == \
        ["grid", "entries"]


def test_one_trapezoid_rule():
    # every grid integral (totals, marginals, overlap, edge strips) takes
    # its weights from Grid1D, which builds them once; numpy's trapezoid
    # is left to the state norm and expectation values, whose values
    # radwig check pins
    defs, calls, attrs = [], [], []
    for path in MODULES:
        scopes = _Scopes(path.stem)
        scopes.visit(_parse(path))
        defs += scopes.defs
        calls += scopes.calls
        attrs += scopes.attrs
    assert sorted(scope for value, attr, scope in attrs
                  if (value, attr) == ("np", "trapezoid")) == \
        ["operators.expectation", "operators.expectation",
         "states.WavefunctionR.norm"]
    assert [d for d in defs if d.rsplit(".", 1)[1] == "weights"] == \
        ["grids.Grid1D.weights"]
    assert {scope for value, attr, scope in attrs
            if attr in ("weights", "_weights")} == \
        {"grids.Grid1D.weights", "grids.Grid1D.trapezoid", "wigner.overlap"}
    # read through the one-point guard alone
    assert {scope for value, attr, scope in attrs if attr == "_weights"} == \
        {"grids.Grid1D.weights"}
    assert [scope for name, scope in calls if name == "diff"
            and scope.startswith(("grids.", "wigner."))] == \
        ["grids.Grid1D.__post_init__"]


def test_one_alignment_rule():
    # "gamma sits on a half-integer node of the log-radius grid" is
    # computed once: the density route and the Fock pipeline's grid
    # chooser both take the node indices from wigner._gamma_nodes, the
    # only code that rounds them or raises GridAlignmentError
    calls = []
    for path in MODULES:
        scopes = _Scopes(path.stem)
        scopes.visit(_parse(path))
        calls += scopes.calls
    assert sorted(scope for name, scope in calls
                  if name == "_gamma_nodes") == \
        ["fock._kernel_grid", "wigner.wigner_from_density"]
    assert {scope for name, scope in calls
            if name in ("GridAlignmentError", "rint")} == \
        {"wigner._gamma_nodes"}


def test_one_band_rule():
    # W's band, 2l + 1 plus the margin where its tail reaches rounding, is
    # stated once: _BAND_MARGIN is assigned once, read only by the one
    # helper wigner._band_reach, and the closed-form ladder's step and the
    # Fock pipeline's kernel stride both come from that helper
    calls, names = [], []
    for path in MODULES:
        scopes = _Scopes(path.stem)
        scopes.visit(_parse(path))
        calls += scopes.calls
        names += scopes.names
    uses = [(ctx, scope) for name, ctx, scope in names
            if name == "_BAND_MARGIN"]
    assert [scope for ctx, scope in uses if ctx == "Store"] == ["wigner"]
    assert {scope for ctx, scope in uses if ctx != "Store"} == \
        {"wigner._band_reach"}
    assert sorted(scope for name, scope in calls
                  if name == "_band_reach") == \
        ["fock._kernel_grid", "wigner._ladder"]


def test_one_delta_fold_rule():
    # both Wigner routes fold a symmetric delta axis by the one rule, and
    # no other code in wigner builds a cos/sin table beside them; the exact
    # Husimi oracle of checks keeps its full-axis transform, independent
    # of the fold
    calls = []
    for path in MODULES:
        scopes = _Scopes(path.stem)
        scopes.visit(_parse(path))
        calls += scopes.calls
    routes = ["wigner.wigner_from_density", "wigner.wigner_l0_grid"]
    assert sorted(scope for name, scope in calls
                  if name == "_delta_fold") == routes
    assert sorted({scope for name, scope in calls
                   if name in ("cos", "sin") and scope.startswith("wigner.")}
                  ) == routes
    assert {name for name, scope in calls
            if scope == "checks._husimi_exact"} >= {"cos", "sin"}
    checks = (Path(radwig.__file__).parent / "checks.py").read_text(
        encoding="utf-8")
    assert "_delta_fold" not in checks


def _registry_models():
    """(name, the source line directly above its entry) for every entry of
    ``checks._REGISTRY``, and the parsed ``checks.py``."""
    path = Path(radwig.__file__).parent / "checks.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = _parse(path)
    registry, = [node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] ==
                 ["_REGISTRY"]]
    return [(entry.elts[0].value, lines[entry.lineno - 2].strip())
            for entry in registry.elts], tree


def test_every_invariant_states_its_model():
    # each radwig check entry has its one-line error model as a comment on
    # the line directly above it, so no tolerance lands without a model;
    # the exact oracles run in integers, with no fractions import
    models, tree = _registry_models()
    assert len(models) == len(radwig.checks._REGISTRY)
    for name, above in models:
        assert above.startswith("# "), f"{name} has no model comment above it"
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules.update(node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module)
    assert "fractions" not in modules


def test_check_ledger_holds_the_registry():
    # tests/check_values.json has exactly the registry's names, and each
    # entry whose model line opens with its class carries that class
    ledger = json.loads((Path(__file__).parent / "check_values.json")
                        .read_text(encoding="utf-8"))
    assert list(ledger) == radwig.checks.available_invariants()
    for name, above in _registry_models()[0]:
        assert ledger[name]["model"] in ("window", "truncation", "rounding",
                                         "depth", "exact")
        opening = above.split()[1].rstrip(":")
        if opening in ("window", "truncation", "rounding"):
            assert ledger[name]["model"] == opening, name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    tree = _parse(path)
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules.update(node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module)
    scipy = sorted(m for m in modules if m.split(".")[0] == "scipy")
    assert not scipy, f"{path.name} imports {scipy}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_floating_point_state_is_never_set(path):
    # subnormals are kept out of products by zeroing operands
    # (wigner._flush_tiny), never by CPU flags (FTZ/DAZ, reachable through
    # ctypes) or numpy's process-wide error modes; np.errstate, which
    # restores them on exit, stays allowed
    tree = _parse(path)
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules.update(node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module)
    assert not {m for m in modules if m.split(".")[0] == "ctypes"}
    calls = {getattr(node.func, "attr", getattr(node.func, "id", None))
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "seterr" not in calls, f"{path.name} calls seterr"


def test_strided_views_are_read_only():
    # a writable view with overlapping strides would let a later in-place
    # op change one kernel entry through several cells at once, silently:
    # every as_strided call in the package passes writeable=False
    calls = [(path.name, node) for path in MODULES
             for node in ast.walk(_parse(path)) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "as_strided"]
    assert calls
    writable = [f"{name}:{node.lineno}" for name, node in calls
                if not any(kw.arg == "writeable"
                           and isinstance(kw.value, ast.Constant)
                           and kw.value.value is False
                           for kw in node.keywords)]
    assert not writable, f"as_strided without writeable=False at {writable}"


LAGUERRE_NAMES = {"laguerre_assoc", "_scaled_recurrence"}


# every oscillator state, the closed-form Wigner integrand included, reads
# its Laguerre values through states._radial_rows: only special (which
# defines the evaluators), states and the checks that test them name them,
# and the package namespace re-exports the public ones
@pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in
                                  ("special", "states", "checks", "__init__")],
                         ids=lambda p: p.name)
def test_laguerre_values_come_from_one_producer(path):
    tree = _parse(path)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names.update(n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute))
    names.update(alias.name for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) for alias in n.names)
    assert not names & LAGUERRE_NAMES, \
        f"{path.name} names {sorted(names & LAGUERRE_NAMES)}"


def _subcommand_options():
    """Long options of every ``radwig`` subcommand, help excluded."""
    sub, = [a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return {opt for parser in sub.choices.values()
            for action in parser._actions for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"}


def test_readme_flags_match_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    named.discard("--no-build-isolation")           # pip's, in Install
    options = _subcommand_options()
    assert not named - options, f"README names unknown {sorted(named - options)}"
    assert not options - named, f"README omits {sorted(options - named)}"
