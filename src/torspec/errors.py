"""Exception types shared across the toolkit.

Each type carries, as ``exit_code``, the exit code of a command-line run
it ends: 2 for a HypothesisViolation, 1 for a ConfigError, and 3 for any
other TorspecError (structural mistakes and numerical failures).
"""


class TorspecError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 3


# -- hypothesis violations (the analyzed model is outside the guaranteed regime)

class HypothesisViolation(TorspecError):
    """Base class for a model outside the hypotheses of the extinction result."""

    exit_code = 2


class DegenerateKernel(HypothesisViolation):
    """Kernel carries no usable mass (zero samples, or a vanishing row integral)."""


class NotPrimitive(HypothesisViolation):
    """No kernel-matrix power up to the configured cap is entrywise positive."""


class PositivePotential(HypothesisViolation):
    """Potential has a strictly positive sample."""


class IneligiblePotential(HypothesisViolation):
    """The gap bound requires a potential that is strictly negative somewhere."""


class DegenerateSymbol(HypothesisViolation):
    """All mass of the kernel symbol is concentrated: no nonzero-mode contraction."""


# -- structural mistakes ------------------------------------------------------

class GridMismatch(TorspecError):
    """Operands sampled on different grids."""


class DimensionMismatch(TorspecError):
    """Array shapes incompatible with the operator or grid."""


# -- numerical failures -------------------------------------------------------

class TailNotResolved(TorspecError):
    """Winding truncation cap reached before the tail bound met the tolerance."""


class MuBelowEdge(TorspecError):
    """Spectral shift at or below the admissible edge of the denominator."""


class NegativeEntry(TorspecError):
    """Matrix handed to a nonnegative-matrix routine has a negative entry."""


class NonPositiveVector(TorspecError):
    """Certificate vector must be entrywise positive."""


class NotConverged(TorspecError):
    """Iteration cap reached before the convergence criterion was met."""


class QRNotConverged(NotConverged):
    """Dense eigensolver failed to converge."""


class BracketFailure(TorspecError):
    """Could not bracket the unit spectral radius near the essential edge."""


class MethodDisagreement(TorspecError):
    """Independent eigenvalue methods differ beyond the cross-check tolerance."""


class Unstable(TorspecError):
    """Time integration grew beyond the dissipativity guard."""


class ZeroNorm(TorspecError):
    """Trace norm vanished inside the requested fit window."""


class FloatingPointFailure(TorspecError):
    """A floating-point operation overflowed, divided by zero, or gave an invalid result."""


# -- configuration ------------------------------------------------------------

class ConfigError(Exception):
    """Base class for configuration problems."""

    exit_code = 1


class ParseError(ConfigError):
    """Config or CSV file is structurally malformed (bad syntax, unknown key)."""


class ValidationError(ConfigError):
    """Config parses but violates an invariant; message lists every violation."""
