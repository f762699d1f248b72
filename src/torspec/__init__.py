"""Spectra and density evolution of non-local jump operators with periodic
potentials on the unit torus.

The toolkit discretizes convolution-type jump generators perturbed by
nonpositive periodic potentials on a uniform torus grid, computes their
essential and discrete spectra, locates the maximum eigenvalue by three
independent methods with cross-validation, evaluates an explicit
spectral-gap bound, and integrates the density evolution to confirm
extinction.
"""

__version__ = "0.1.0"

from .errors import (
    BracketFailure,
    ConfigError,
    DegenerateKernel,
    DegenerateSymbol,
    DimensionMismatch,
    FloatingPointFailure,
    GridMismatch,
    IneligiblePotential,
    MethodDisagreement,
    MuBelowEdge,
    NegativeEntry,
    NonPositiveVector,
    NotConverged,
    NotNormalized,
    NotPrimitive,
    ParseError,
    PositivePotential,
    QRNotConverged,
    TailNotResolved,
    TorspecError,
    Unstable,
    ValidationError,
    ZeroNorm,
)
from .grid import TorusGrid
from .kernels import (
    ContinuousKernel,
    GenericKernel,
    KernelStats,
    Potential,
    PotentialDiagnostics,
    WoundKernel,
    constant_kernel,
    constant_potential,
    convolution_kernel,
    cosine_potential,
    exponential_kernel,
    gaussian_kernel,
    jump_rate,
    kernel_from_csv,
    kernel_stats,
    modulated_convolution,
    potential_from_csv,
    step_potential,
    tophat_kernel,
    wind_kernel,
    wound_from_function,
    zero_potential,
)
from .discretize import (
    FourierSymbol,
    OperatorMatrix,
    assemble_birman_schwinger,
    assemble_generator,
    fourier_symbol,
)
from .eigen import (
    PerronResult,
    full_spectrum,
    perron,
)
from .spectral import (
    AnalysisOptions,
    BisectionResult,
    EssentialSpectrum,
    SpectrumReport,
    analyze,
    essential_spectrum,
    max_eigenvalue_bisection,
    max_eigenvalue_shifted_power,
)
from .gapbound import GapBound, GapVerdict, gap_constants, verify_gap
from .evolution import (
    EvolutionTrace,
    ExtinctionSummary,
    check_extinction,
    evolve,
    fit_decay_rate,
)
from .config import RunConfig, config_from_dict, load_config
from .cli import main, run_command
