"""Module boundaries of the package, checked on its source.

``kernels.py`` owns the cell-multiset storage of ``SymKernel``: every
other module reads kernels through ``items()``, ``value()``, ``len()`` and
``cells()`` and builds them through the kernel maps or the public
constructor, so none of them may touch the ``data`` attribute.  It owns
the layout of a ``ValueTable`` too: other modules call its reductions,
never read its ``key_order``, ``weights`` or ``multisets``, and import
from it only names in its ``__all__``, which leaves out the table
builders' private helpers.  Every
name a module lists in ``__all__`` must exist in it.  Times are boundary
indices below the experiment layer: a float time becomes an index only
where a config value holds it.  The benchmark tracer in
``perfbench/tracing.py`` wraps package functions by name, so every name
it wraps must exist.  Every function, class and method the package
defines is referred to somewhere in the package, unless the tracer wraps
it or ``UNREFERENCED_OK`` gives the reason it stays.  Floats are summed by
explicit left folds: the builtin ``sum`` is called only on integers,
since CPython 3.12 compensates its float sums.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skorochaos"
OWNER = "kernels.py"
TABLE_LAYOUT = {"key_order", "weights", "multisets"}


def attribute_reads(path, names):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in names]


def kernels_imports(path):
    """(line, name) of every name the module imports from the kernels module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("kernels", "skorochaos.kernels")
        for alias in node.names
    ]


TIME_TO_INDEX = {"grid.py", "experiments.py"}


def method_calls(path, name):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == name
    ]


def test_times_become_indices_only_at_the_edge():
    modules = sorted(PACKAGE.glob("*.py"))
    assert TIME_TO_INDEX <= {p.name for p in modules}
    to_index = [
        f"{p.name}:{line}" for p in modules if p.name not in TIME_TO_INDEX for line in method_calls(p, "boundary_index")
    ]
    assert to_index == [], f"boundary_index called below the experiment layer: {to_index}"


def test_only_kernels_reads_kernel_storage():
    modules = sorted(PACKAGE.glob("*.py"))
    assert OWNER in {p.name for p in modules}
    offenders = [f"{p.name}:{line}" for p in modules if p.name != OWNER for line in attribute_reads(p, {"data"})]
    assert offenders == [], f"modules other than {OWNER} read .data: {offenders}"


def test_only_kernels_reads_the_value_table_layout():
    from skorochaos import kernels

    modules = sorted(PACKAGE.glob("*.py"))
    reads = [f"{p.name}:{line}" for p in modules if p.name != OWNER for line in attribute_reads(p, TABLE_LAYOUT)]
    assert reads == [], f"modules other than {OWNER} read a value table's layout: {reads}"
    private = [
        f"{p.name}:{line} {name}"
        for p in modules
        if p.name != OWNER
        for line, name in kernels_imports(p)
        if name not in kernels.__all__
    ]
    assert private == [], f"modules import names {OWNER} does not export: {private}"


def test_every_exported_name_exists():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "skorochaos" if path.stem == "__init__" else f"skorochaos.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{path.name}: {n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"__all__ names that do not exist: {missing}"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_the_tracer_wraps_names_that_exist():
    from skorochaos import chaos, kernels  # loads every package module the tracer wraps

    tracing = load_tracing()
    original = chaos.eval_many
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert chaos.eval_many is not original
    finally:
        tracer.uninstall()
    assert chaos.eval_many is original
    # the entry count of a SymKernel span reads the fourth positional argument
    assert list(inspect.signature(kernels.SymKernel.__init__).parameters)[3] == "values"


# Definitions that no package module refers to, kept on purpose.
UNREFERENCED_OK = {
    "BFSummand.value_at": "the paper's forward x backward product M_t N_t, which the tests check the summands against",
    "ChaosFunctional.variance": "the isometry's second moment beside covariance, read by the tests' moment oracles",
}


def definitions(path):
    """(line, qualified name) of every function, class and method, dunder methods left out."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append((node.lineno, prefix + node.name))
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body, "")
    return out


def references(path):
    """Every name the module reads as a bare name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_definition_is_referenced():
    modules = sorted(PACKAGE.glob("*.py"))
    referenced = set().union(*(references(p) for p in modules))
    traced = {(mod, fn) for mod, fn, _ in load_tracing().TRACED.values()}
    unreferenced = [
        f"{p.name}:{line} {name}"
        for p in modules
        for line, name in definitions(p)
        if name.rsplit(".", 1)[-1] not in referenced and (p.stem, name) not in traced and name not in UNREFERENCED_OK
    ]
    assert unreferenced == [], f"definitions no package module refers to: {unreferenced}"


# Builtin sum() calls over integers, which every interpreter adds exactly.
INTEGER_SUMS = {("grid.py", "exact_below_count"), ("kernels.py", "contract")}


def builtin_sum_calls(path):
    """(line, enclosing function) of every call of the builtin ``sum`` in the module."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "sum":
                out.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return out


def test_floats_are_summed_by_explicit_left_folds():
    calls = [
        f"{p.name}:{line} in {function}"
        for p in sorted(PACKAGE.glob("*.py"))
        for line, function in builtin_sum_calls(p)
        if (p.name, function) not in INTEGER_SUMS
    ]
    assert calls == [], f"builtin sum() outside the integer counts: {calls}"
