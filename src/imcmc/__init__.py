"""Involution-based MCMC kernels with exact finite-state verification."""

from .core import (
    AcceptanceRule,
    AuxiliaryConditional,
    ChainResult,
    DeterministicKernel,
    ImcmcKernel,
    Involution,
    JointPoint,
    KernelComposition,
    Layout,
    LogDensity,
    TagConditional,
    chain_rngs,
    compose,
    float_density,
    log_accept,
    make_rng,
    random_points,
    run_chain,
    verify_involution,
    verify_jacobian,
)
from .diagnostics import (
    EssReport,
    acceptance_rate,
    check_detailed_balance,
    check_stationary,
    ess_batch_means,
    marginal_matrix,
    moment_estimates,
    stationary_pmf,
    transition_matrix,
    transition_matrix_direct,
)
from .errors import (
    ConfigError,
    DegenerateSeriesError,
    DensityError,
    EnumerationError,
    FixedPointError,
    ImcmcError,
)

__version__ = "0.1.0"
