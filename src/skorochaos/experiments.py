"""Named experiments behind the command line, each a config-to-table map.

Every experiment takes an ExperimentConfig, runs its checks, and returns
an ExperimentResult holding the CSV table plus a list of assertion
failures (empty on success).  Tables are deterministic given the config:
path sampling is counter-based per path index and statistics are always
reduced over fully assembled arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from .bf import two_sided_approximation
from .chaos import (
    ChaosFunctional,
    conditional_expectation,
    constant_functional,
    eval_many,
    hermite_functional,
)
from .grid import GenericityError, Grid, Partition, verify_region_partition
from .kernels import MAX_CELLS, from_step, sym_tensor_product, tensor_power
from .paths import StepFunction, reverse_batch, sample_paths
from .reversal import (
    backward_ito_eval,
    clark_ocone_integrand,
    hermite_projection,
    quadratic_covariation,
    reverse_functional,
    semimartingale_decomposition_check,
    tail_difference,
)
from .skorohod import (
    brownian_path_process,
    brownian_terminal_process,
    ChaosProcess,
    extract_region_kernels,
    ito_skorohod_integrand,
    max_increment_energy,
    max_martingale_defect,
    projected_synthesis_process,
    region_energy_bound,
    resynthesis_residual,
    skorohod_process,
    step_approximation,
)
from .stopping import GridStoppingTime, optional_sampling_check, stopped_integral

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "FIELDS",
    "SPECS",
    "run_experiment",
    "format_value",
]

_EXACT = 1e-12
_PATHWISE = 1e-10


class Field(NamedTuple):
    """One config field: its type, help text and range check."""

    type: type
    help: str
    ok: Callable[[Any], bool] | None = None
    rule: str = ""  # what ``ok`` demands, for the error message


FIELDS: dict[str, Field] = {
    "N": Field(int, "grid cells (power of two)", lambda v: v >= 1 and v & (v - 1) == 0, "must be a power of two"),
    "L": Field(int, "chaos order cap for the kernel family", lambda v: 0 <= v <= 4, "out of range 0..4"),
    "paths": Field(int, "Monte Carlo path count", lambda v: v >= 2, "must be at least 2"),
    "seed": Field(
        int, "base seed for counter-based path sampling", lambda v: 0 <= v < 2**64, "out of range 0..2**64-1"
    ),
    "depth": Field(int, "finest dyadic partition depth", lambda v: v >= 0, "must be nonnegative"),
    "M": Field(int, "dimension of the sampled cube", lambda v: 1 <= v <= 6, "out of range 1..6"),
    "samples": Field(int, "number of generic sample points", lambda v: v >= 1, "must be at least 1"),
    "n": Field(int, "highest chaos order exercised", lambda v: 1 <= v <= 3, "out of range 1..3"),
    "t": Field(float, "grid-aligned time for time-indexed checks"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation: which check, at what size, which seed."""

    experiment: str
    N: int = 16
    L: int = 2
    paths: int = 10_000
    seed: int = 1
    depth: int = 4
    out: str | None = None
    # no experiment takes it: only the benchmark harness (perfbench/) sets it and records it
    workers: int = 1
    M: int = 3
    t: float = 0.25
    samples: int = 1000
    n: int = 2

    def validate(self) -> None:
        """Check the fields this experiment takes, then its cross-field rules."""
        spec = SPECS.get(self.experiment)
        if spec is None:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in spec.fields:
            f, value = FIELDS[name], getattr(self, name)
            if not _has_type(value, f.type):
                raise ValueError(f"{name}={value!r} is not {'an integer' if f.type is int else 'a real number'}")
            if f.ok is not None and not f.ok(value):
                raise ValueError(f"{name}={value!r} {f.rule}")
        for rule in spec.rules:
            rule(self)


def _has_type(value: Any, kind: type) -> bool:
    """int fields take integers, float fields any real number; neither takes a bool."""
    abstract = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, abstract) and not isinstance(value, bool)


def _within_cell_cap(cfg: ExperimentConfig) -> None:
    if cfg.N > MAX_CELLS:
        raise ValueError(f"N={cfg.N} exceeds the kernel cell cap {MAX_CELLS}")


def _depth_divides_grid(cfg: ExperimentConfig) -> None:
    if (cfg.N >> cfg.depth) << cfg.depth != cfg.N:
        raise ValueError(f"depth={cfg.depth} does not divide an N={cfg.N} grid")


def _quarters_are_boundaries(cfg: ExperimentConfig) -> None:
    # stopping's depth-2 partition and time 0.5, and reversal's bracket rows at 0.25..1, sit on quarter boundaries
    if cfg.N < 4:
        raise ValueError(f"N={cfg.N} is below 4, so the quarter times this experiment reads are not grid boundaries")


def _t_is_boundary(cfg: ExperimentConfig) -> None:
    Grid(cfg.N).boundary_index(cfg.t)


def _theorem1_depth_can_pass(cfg: ExperimentConfig) -> None:
    # the residual energy of theorem1's integrand halves per level, 4.5 at depth 0 to 0.5625 (12.5%) at 3
    if cfg.depth < 4:
        raise ValueError(
            f"depth={cfg.depth} is below 4: the energy halves per level, so the final energy"
            " stays above 10% of the initial and the run fails at every N and seed"
        )


def format_value(v: object) -> str:
    """CSV cell text; floats carry 17 significant digits."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def csv_text(self) -> str:
        lines = [
            f"# {name}={format_value(getattr(self.config, name))}"
            for name in SPECS[self.config.experiment].echo
        ]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"


def _new_result(cfg: ExperimentConfig) -> ExperimentResult:
    return ExperimentResult(cfg, SPECS[cfg.experiment].columns)


def _run_geometry(cfg: ExperimentConfig) -> ExperimentResult:
    res = _new_result(cfg)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    points: list[tuple[float, ...]] = []
    attempts = 0
    while len(points) < cfg.samples:
        attempts += 1
        if attempts > 100 * cfg.samples:
            raise GenericityError("could not sample enough generic points")
        x = tuple(rng.random(cfg.M).tolist())
        if len(set(x)) == cfg.M and cfg.t not in x:
            points.append(x)
    report = verify_region_partition(cfg.M, cfg.t, points)
    covered = report.covered == report.n_points
    disjoint = report.multi_covered == 0
    res.rows.append((cfg.M, cfg.t, report.n_points, covered, disjoint))
    if not covered:
        res.failures.append(
            f"geometry: {report.n_points - report.covered} of {report.n_points} points uncovered"
        )
    if not disjoint:
        res.failures.append(f"geometry: {report.multi_covered} points hit two regions")
    if report.disagreements:
        res.failures.append(
            f"geometry: {report.disagreements} of {report.n_points} points where the count criterion"
            " and the union of t-sections disagree"
        )
    return res


def _isometry_kernels(grid: Grid, top: int):
    """Deterministic kernel family with nonzero cross inner products.

    f_n = ha^(x)n and g_m = sym(ha^(x)(m-1) (x) hb) for n, m = 1..top.
    """
    k = np.arange(grid.n_cells)
    ha = StepFunction(grid, 0.7 + 0.6 * (k + 1) / grid.n_cells)
    hb = StepFunction(grid, np.where(k < grid.n_cells // 2, 1.0, -0.8))
    fs = [tensor_power(ha, n) for n in range(1, top + 1)]
    gs = [from_step(hb) if m == 1 else sym_tensor_product(tensor_power(ha, m - 1), from_step(hb))
          for m in range(1, top + 1)]
    return fs, gs


def _run_isometry(cfg: ExperimentConfig) -> ExperimentResult:
    res = _new_result(cfg)
    grid = Grid(cfg.N)
    batch = sample_paths(grid, cfg.paths, cfg.seed)
    top = max(cfg.L, 1)
    fs, gs = _isometry_kernels(grid, top)
    # every I_n(f_n) and I_m(g_m) in one call, rows f_1..f_top then g_1..g_top
    vals = eval_many([ChaosFunctional(grid, 0.0, {h.order: h}) for h in fs + gs], batch)
    for n in range(1, top + 1):
        for m in range(n, top + 1):
            f, g = fs[n - 1], gs[m - 1]
            exact = math.factorial(n) * f.inner(g) if n == m else 0.0
            prod = vals[n - 1] * vals[top + m - 1]
            est = float(np.mean(prod))
            se = float(np.std(prod, ddof=1) / np.sqrt(cfg.paths))
            z = (est - exact) / se
            res.rows.append((n, m, exact, est, se, z))
            if abs(z) > 3.0:
                res.failures.append(f"isometry: order pair ({n},{m}) off by z={z:.2f}")
    return res


def _integrand_family(grid: Grid) -> dict[str, ChaosProcess]:
    """The integrands of the exact checks by CSV name, in ``martingale``'s row order."""
    term = brownian_terminal_process(grid)
    path = brownian_path_process(grid)
    return {
        "deterministic_one": ChaosProcess.constant(grid, constant_functional(grid, 1.0)),
        "terminal_value": term,
        "running_value": path,
        "terminal_plus_running": term.add(path),
    }


def _run_martingale(cfg: ExperimentConfig) -> ExperimentResult:
    res = _new_result(cfg)
    grid = Grid(cfg.N)
    pairs = grid.n_cells * (grid.n_cells + 1) // 2
    for name, u in _integrand_family(grid).items():
        worst = max_martingale_defect(skorohod_process(u))
        res.rows.append((name, pairs, worst))
        if worst > _EXACT:
            res.failures.append(f"martingale: {name} has defect {worst:.3e}")
    return res


def _run_theorem1(cfg: ExperimentConfig) -> ExperimentResult:
    res = _new_result(cfg)
    grid = Grid(cfg.N)
    u = _integrand_family(grid)["terminal_plus_running"]
    Y = skorohod_process(u)
    v = ito_skorohod_integrand(u)
    vhats = []
    for d in range(cfg.depth + 1):
        step, bf = two_sided_approximation(v, Partition.dyadic(grid, d))
        Z = bf.as_skorohod()
        direct = projected_synthesis_process(step)
        split_gap = max(F.max_abs() for F in Z.sub(direct).functionals)
        if split_gap > _EXACT:
            res.failures.append(f"theorem1: depth {d} split differs from projection by {split_gap:.3e}")
        vhat = max_increment_energy(Y.sub(Z))
        bound = v.sub(step.as_process()).sobolev_norm_sq()
        res.rows.append((d, vhat, bound))
        vhats.append(vhat)
        if vhat > bound + _EXACT:
            res.failures.append(f"theorem1: depth {d} energy {vhat:.6f} exceeds bound {bound:.6f}")
    for d in range(1, len(vhats)):
        if not vhats[d] < vhats[d - 1]:
            res.failures.append(f"theorem1: energy not strictly decreasing at depth {d}")
    if vhats and vhats[-1] > 0.10 * vhats[0] + _EXACT:
        res.failures.append(
            f"theorem1: final energy {vhats[-1]:.6f} above 10% of initial {vhats[0]:.6f}"
        )
    return res


def _ducnualart_integrand(grid: Grid) -> ChaosProcess:
    """Mixed-order nonadapted integrand used for the region-kernel check."""
    base = _integrand_family(grid)["terminal_plus_running"]
    second = ChaosFunctional(grid, 0.0, {2: tensor_power(StepFunction.constant(grid, 1.0), 2)})
    return base.add(ChaosProcess.constant(grid, second))


def _run_ducnualart(cfg: ExperimentConfig) -> ExperimentResult:
    res = _new_result(cfg)
    grid = Grid(cfg.N)
    u = _ducnualart_integrand(grid)
    Y = skorohod_process(u)
    kernels = extract_region_kernels(u, Y)
    resid = resynthesis_residual(Y, kernels)
    lhs = region_energy_bound(kernels)
    vhat = max_increment_energy(Y)
    for l, q in sorted(kernels):
        res.rows.append((f"kernel_norm_sq_l{l}_q{q}", kernels[l, q].norm_sq()))
    res.rows.append(("resynthesis_max_residual", resid))
    res.rows.append(("majoration_lhs", lhs))
    res.rows.append(("vhat", vhat))
    if resid > _EXACT:
        res.failures.append(f"ducnualart: resynthesis residual {resid:.3e}")
    if lhs > 1.05 * vhat:
        res.failures.append(f"ducnualart: energy sum {lhs:.6f} above 1.05 x {vhat:.6f}")
    return res


def _run_reversal(cfg: ExperimentConfig) -> ExperimentResult:
    res = _new_result(cfg)
    grid = Grid(cfg.N)
    batch = sample_paths(grid, cfg.paths, cfg.seed)
    rev = reverse_batch(batch)
    b = grid.boundary_index(cfg.t)

    if cfg.N <= MAX_CELLS:
        n = grid.n_cells
        one = StepFunction.constant(grid, 1.0)
        Fs = [hermite_functional(one, k) for k in range(1, max(cfg.n, 2) + 1)]
        # rows 7(k - 1) .. 7k - 1: F-hat, then its tail differences and its conditioned parts at 0, b, n
        panel = []
        for F in Fs[: cfg.n]:
            Fh = reverse_functional(F)
            panel += [Fh, *(reverse_functional(tail_difference(F, bb)) for bb in (0, b, n))]
            panel += [conditional_expectation(Fh, n - bb, n) for bb in (0, b, n)]
        reversed_rows = eval_many(panel, rev)
        tails = eval_many([tail_difference(F, b) for F in Fs], batch)
        for k in range(1, cfg.n + 1):
            fh, *rest = reversed_rows[7 * (k - 1) : 7 * k]
            worst = 0.0
            for tail, cond in zip(rest[:3], rest[3:]):
                worst = max(worst, float(np.max(np.abs(tail - (fh - cond)))))
            res.rows.append((cfg.N, cfg.t, f"two_sided_projection_residual_n{k}", worst, 0.0))
            if worst > _PATHWISE:
                res.failures.append(f"reversal: projection identity residual {worst:.3e} at n={k}")

            closed = hermite_projection(k, one, b, batch)
            hres = float(np.max(np.abs(tails[k - 1] - closed))) if closed is not None else 0.0
            res.rows.append((cfg.N, cfg.t, f"hermite_max_residual_n{k}", hres, 0.0))
            if hres > _PATHWISE:
                res.failures.append(f"reversal: hermite residual {hres:.3e} at n={k}")

        # the backward-Ito gap of F_2 = X_1^2 - 1, whose tail difference is row 1 of tails
        s = backward_ito_eval(clark_ocone_integrand(Fs[1]), rev, b)
        gap_sq = (tails[1] - s) ** 2
        mse = float(np.mean(gap_sq))
        mse_se = float(np.std(gap_sq, ddof=1) / np.sqrt(cfg.paths))
        res.rows.append((cfg.N, cfg.t, "backward_ito_gap_mse", mse, mse_se))

    # the integrand 2 X-hat at every reversed boundary, for the decomposition and the bracket
    rbv = rev.boundary_values()
    q = 2.0 * rbv
    bv = batch.boundary_values()
    y = 2.0 * bv[:, -1] * bv[:, b] - bv[:, b] ** 2 - cfg.t
    residual = semimartingale_decomposition_check(q, y, batch, b)
    msq = float(np.mean(residual**2))
    msq_se = float(np.std(residual**2, ddof=1) / np.sqrt(cfg.paths))
    rms = math.sqrt(msq)
    rms_se = msq_se / (2.0 * rms) if rms > 0 else 0.0
    res.rows.append((cfg.N, cfg.t, "decomposition_residual_rms", rms, rms_se))

    curve = quadratic_covariation(grid, q, rbv)
    for tt in (0.25, 0.5, 0.75, 1.0):
        vals = curve[:, grid.boundary_index(tt)]
        gap = float(np.mean(vals) - 2.0 * tt)
        se = float(np.std(vals, ddof=1) / np.sqrt(cfg.paths))
        res.rows.append((cfg.N, tt, "bracket_vs_2t", gap, se))
        if abs(gap) > 3.0 * se:
            res.failures.append(f"reversal: bracket at t={tt} off by {gap / se:.2f} standard errors")
    return res


def _run_stopping(cfg: ExperimentConfig) -> ExperimentResult:
    res = _new_result(cfg)
    grid = Grid(cfg.N)
    batch = sample_paths(grid, cfg.paths, cfg.seed)
    family = _integrand_family(grid)
    Y = skorohod_process(family["terminal_value"])
    S = GridStoppingTime.first_exit(grid, -0.5, 0.5)
    T = GridStoppingTime.deterministic(grid, grid.boundary_index(1.0))
    rule = f"{S.label()}->{T.label()}"
    for variable, n_paths, est, se, z in optional_sampling_check(Y, S, T, batch):
        res.rows.append((rule, variable, n_paths, est, se, z))
        if abs(z) > 3.0:
            res.failures.append(f"stopping: optional sampling z={z:.2f} for {variable}")

    small = sample_paths(grid, min(cfg.paths, 100), (cfg.seed + 1) % 2**64)
    rules = [
        GridStoppingTime.deterministic(grid, grid.boundary_index(0.5)),
        GridStoppingTime.level_hitting(grid, 0.3),
        GridStoppingTime.first_exit(grid, -0.5, 0.5),
        GridStoppingTime.level_hitting(grid, 10.0),
    ]
    for name in ("terminal_value", "terminal_plus_running"):
        v = ito_skorohod_integrand(family[name])
        for d in (1, 2):
            step = step_approximation(v, Partition.dyadic(grid, d))
            for rule_t, (lhs, rhs) in zip(rules, stopped_integral(step, rules, small)):
                gap = float(np.max(np.abs(lhs - rhs)))
                label = f"stop_gap_{name}_depth{d}"
                res.rows.append((rule_t.label(), label, small.count, gap, 0.0, 0.0))
                if gap > _PATHWISE:
                    res.failures.append(
                        f"stopping: stopped-integral gap {gap:.3e} for {rule_t.label()} on {name} depth {d}"
                    )
    return res


class ExperimentSpec(NamedTuple):
    """What an experiment runs, prints and takes; the CLI is built from it."""

    run: Callable[[ExperimentConfig], ExperimentResult]
    summary: str
    columns: tuple[str, ...]
    fields: tuple[str, ...]
    rules: tuple[Callable[[ExperimentConfig], None], ...] = ()  # cross-field checks

    @property
    def echo(self) -> tuple[str, ...]:
        return ("experiment", *self.fields)


SPECS: dict[str, ExperimentSpec] = {
    "geometry": ExperimentSpec(
        _run_geometry, "region tiling brute force on sampled points",
        ("M", "t", "n_points", "covered", "disjoint"), ("M", "t", "samples", "seed")),
    "isometry": ExperimentSpec(
        _run_isometry, "Monte Carlo product moments vs kernel inner products",
        ("n", "m", "exact", "estimate", "std_error", "z"), ("N", "L", "paths", "seed"),
        (_within_cell_cap,)),
    "martingale": ExperimentSpec(
        _run_martingale, "conditioned increments of the integral process, exact",
        ("integrand", "n_pairs", "max_defect"), ("N", "seed"), (_within_cell_cap,)),
    "theorem1": ExperimentSpec(
        _run_theorem1, "two-sided approximation energy vs its integrand bound",
        ("depth", "vhat", "sobolev_bound"), ("N", "L", "depth", "seed"),
        (_within_cell_cap, _depth_divides_grid, _theorem1_depth_can_pass)),
    "ducnualart": ExperimentSpec(
        _run_ducnualart, "region-kernel extraction, re-synthesis residual, energy majoration",
        ("statistic", "value"), ("N", "L", "seed"), (_within_cell_cap,)),
    # no cell cap: above it reversal skips its kernel checks and keeps the pathwise ones
    "reversal": ExperimentSpec(
        _run_reversal, "reversed-time identities and decomposition residuals",
        ("N", "t", "statistic", "value", "std_error"), ("N", "n", "t", "paths", "seed"),
        (_quarters_are_boundaries, _t_is_boundary)),
    "stopping": ExperimentSpec(
        _run_stopping, "optional sampling and stopped integrals",
        ("rule", "test_variable", "n_paths", "estimate", "std_error", "z"), ("N", "paths", "seed"),
        (_within_cell_cap, _quarters_are_boundaries)),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    cfg.validate()
    return SPECS[cfg.experiment].run(cfg)
