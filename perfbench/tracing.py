"""Outside-in tracing: spans around calls into skorochaos's public functions.

The tracer wraps the functions in ``TRACED`` from outside the package.
Several modules bind these names with ``from .x import y`` at import
time, so every module attribute that holds the original function is
rebound, not only the one where it is defined.  ``SymKernel.__init__``
is wrapped on the class.  ``uninstall`` puts every original back.

Spans are kept in memory as (name, parent, start, CPU start, end, CPU
end); a layer's self time is its span minus its child spans.  Each
thread keeps its own span stack, so a span opened in a worker thread has
no parent.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

Counter = Callable[[tuple, dict, object], dict[str, int]]


def _nnz(F) -> int:
    # Through the public ``items()`` so the count survives a change of kernel storage.
    return sum(sum(1 for _ in f.items()) for f in F.kernels.values())


def _eval_many_counts(args, kwargs, result) -> dict[str, int]:
    functionals = args[0] if args else kwargs["functionals"]
    count = result.shape[1]
    return {"functionals": len(functionals), "term_paths": sum(_nnz(F) for F in functionals) * count}


def _symkernel_counts(args, kwargs, result) -> dict[str, int]:
    values = args[3] if len(args) > 3 else kwargs.get("values", ())
    return {"entries": len(values)}


# module -> public functions whose calls become spans named "<module>.<function>"
_FUNCTIONS = {
    "paths": ("sample_paths",),
    "chaos": ("eval_many", "conditional_expectation", "multiply", "malliavin_derivative"),
    "kernels": ("project", "contract", "sym_tensor_product", "reverse_kernel", "tensor_power"),
    "skorohod": (
        "skorohod_process",
        "martingale_defect",
        "max_increment_energy",
        "extract_region_kernels",
        "resynthesize",
        "projected_synthesis_process",
        "step_approximation",
        "ito_skorohod_integrand",
    ),
    "bf": ("two_sided_approximation",),
    "reversal": (
        "clark_ocone_integrand",
        "hermite_projection",
        "backward_ito_eval",
        "semimartingale_decomposition_check",
        "quadratic_covariation",
    ),
    "stopping": ("optional_sampling_check", "stopped_integral"),
}
_COUNTERS: dict[str, Counter] = {
    "paths.sample_paths": lambda args, kwargs, result: {"draws": int(result.increments.size)},
    "chaos.eval_many": _eval_many_counts,
}
# span name -> (module, attribute, counter or None)
TRACED: dict[str, tuple[str, str, Counter | None]] = {
    f"{mod}.{fn}": (mod, fn, _COUNTERS.get(f"{mod}.{fn}")) for mod, fns in _FUNCTIONS.items() for fn in fns
}
SYMKERNEL_INIT = "kernels.symkernel_init"
COUNTS = (
    "paths.sample_paths.draws",
    "chaos.eval_many.functionals",
    "chaos.eval_many.term_paths",
    f"{SYMKERNEL_INIT}.entries",
)


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = [name, stack[-1] if stack else None, time.perf_counter(), time.process_time(), 0.0, 0.0]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            rec[5] = time.process_time()
            stack.pop()

    def _wrap(self, name: str, fn, counter: Counter | None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += n
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "skorochaos" or n.startswith("skorochaos.")]
        for name, (mod, attr, counter) in TRACED.items():
            original = getattr(sys.modules[f"skorochaos.{mod}"], attr)
            wrapped = self._wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapped)
        cls = sys.modules["skorochaos.kernels"].SymKernel
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap(SYMKERNEL_INIT, cls.__init__, _symkernel_counts)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def metrics(self, experiments) -> dict[str, float]:
        """Per-layer metrics of one traced pass.

        ``<name>.s`` is self time, ``<name>.cpu_s`` self CPU time of the
        process (all threads) and ``<name>.calls`` the call count, for every
        traced function, called or not; ``experiments.<name>.wall_s`` is the
        whole span of each experiment and ``experiments.self_s`` the part
        of those spans that no layer span covers.
        """
        child_wall: dict[int, float] = defaultdict(float)
        child_cpu: dict[int, float] = defaultdict(float)
        for _, parent, t0, c0, t1, c1 in self.spans:
            if parent is not None:
                child_wall[id(parent)] += t1 - t0
                child_cpu[id(parent)] += c1 - c0
        wall: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        cpu: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            name, _, t0, c0, t1, c1 = rec
            wall[name] += (t1 - t0) - child_wall[id(rec)]
            total[name] += t1 - t0
            cpu[name] += (c1 - c0) - child_cpu[id(rec)]
            calls[name] += 1
        out: dict[str, float] = {}
        for name in [*TRACED, SYMKERNEL_INIT]:
            out[f"{name}.s"] = wall[name]
            out[f"{name}.cpu_s"] = cpu[name]
            out[f"{name}.calls"] = calls[name]
        for key in COUNTS:
            out[key] = self.counts[key]
        for e in experiments:
            out[f"experiments.{e}.wall_s"] = total[f"experiments.{e}"]
        out["experiments.self_s"] = sum(wall[f"experiments.{e}"] for e in experiments)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON: one [name, parent index, start, end] row each."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t_base = self.spans[0][2] if self.spans else 0.0
        rows = [
            [name, None if parent is None else index[id(parent)], t0 - t_base, t1 - t_base]
            for name, parent, t0, _, t1, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"], "spans": rows}, fp, separators=(",", ":"))
