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
it wraps must exist.
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


def test_the_tracer_wraps_names_that_exist():
    from skorochaos import chaos, kernels  # loads every package module the tracer wraps

    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
