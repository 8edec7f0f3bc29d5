"""Exact finite-chaos calculus for anticipating integrals on a grid.

The model is a Brownian motion observed through its increments on a
uniform grid of half-open cells.  Every random variable of interest is a
finite chaos expansion with explicitly stored symmetric kernels, so
integrals, derivatives, conditional expectations, and time reversal are
all finite exact computations; Monte Carlo enters only where a check is
genuinely statistical.
"""

from .grid import Grid, Partition, verify_region_partition
from .paths import PathBatch, StepFunction, isonormal_eval, reverse_batch, sample_paths
from .kernels import (
    MAX_CELLS,
    MAX_ORDER,
    SymKernel,
    from_step,
    sym_tensor_product,
    tensor_power,
)
from .chaos import (
    ChaosFunctional,
    conditional_expectation,
    constant_functional,
    eval_functional,
    eval_many,
    first_order,
    hermite_functional,
    malliavin_derivative,
    multiply,
)
from .skorohod import (
    ChaosProcess,
    SkorohodProcess,
    StepProcess,
    brownian_path_process,
    brownian_terminal_process,
    extract_region_kernels,
    ito_skorohod_integrand,
    martingale_defect,
    max_increment_energy,
    max_martingale_defect,
    projected_synthesis_process,
    region_energy_bound,
    resynthesize,
    resynthesis_residual,
    skorohod_process,
    step_approximation,
)
from .bf import BFProcess, BFSummand, bf_from_step, split_two_sided, two_sided_approximation
from .reversal import (
    backward_ito_eval,
    clark_ocone_integrand,
    hermite_projection,
    quadratic_covariation,
    reverse_functional,
    semimartingale_decomposition_check,
    tail_difference,
)
from .stopping import GridStoppingTime, optional_sampling_check, stopped_integral
from .experiments import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "Partition",
    "verify_region_partition",
    "PathBatch",
    "StepFunction",
    "isonormal_eval",
    "reverse_batch",
    "sample_paths",
    "MAX_CELLS",
    "MAX_ORDER",
    "SymKernel",
    "from_step",
    "sym_tensor_product",
    "tensor_power",
    "ChaosFunctional",
    "conditional_expectation",
    "constant_functional",
    "eval_functional",
    "eval_many",
    "first_order",
    "hermite_functional",
    "malliavin_derivative",
    "multiply",
    "ChaosProcess",
    "SkorohodProcess",
    "StepProcess",
    "brownian_path_process",
    "brownian_terminal_process",
    "extract_region_kernels",
    "ito_skorohod_integrand",
    "martingale_defect",
    "max_increment_energy",
    "max_martingale_defect",
    "projected_synthesis_process",
    "region_energy_bound",
    "resynthesize",
    "resynthesis_residual",
    "skorohod_process",
    "step_approximation",
    "BFProcess",
    "BFSummand",
    "bf_from_step",
    "split_two_sided",
    "two_sided_approximation",
    "backward_ito_eval",
    "clark_ocone_integrand",
    "hermite_projection",
    "quadratic_covariation",
    "reverse_functional",
    "semimartingale_decomposition_check",
    "tail_difference",
    "GridStoppingTime",
    "optional_sampling_check",
    "stopped_integral",
    "ExperimentConfig",
    "run_experiment",
]
