"""Exception types shared across the package."""


class WellSpectraError(Exception):
    """Base class for all package errors."""


class UnknownFamily(WellSpectraError):
    """Requested potential family is not recognized."""


class EmptySublevel(WellSpectraError):
    """The sublevel set {V < e} contains no grid node.

    Legal situation: every downstream counting function is zero.
    Raised as a signal so callers can short-circuit.
    """


class DetachedComponent(WellSpectraError):
    """The sublevel set {V < e} fills the whole grid, so it has no boundary
    neighbor; every smaller set has a grid edge leaving it.  A set that only
    reaches a box face is not refused (see ``assemble.classify_nodes``).
    """


class SingularDirichletBlock(WellSpectraError):
    """The interior stiffness block failed its positive-definiteness check."""


class FactorizationBreakdown(WellSpectraError):
    """Symmetric-indefinite factorization could not be completed or validated."""


class OnEigenvalue(WellSpectraError):
    """A shift landed on the spectrum (zero pivot within tolerance).

    Callers should perturb the shift (relative nudge of 1e-9) and retry.
    """


class ResolventViolation(WellSpectraError):
    """Shift lies in the spectrum of the interior Dirichlet pencil."""


class SizeCap(WellSpectraError):
    """Dense-path problem size exceeds the desk-scale cap."""


class EnumerationCap(WellSpectraError):
    """Lattice enumeration would exceed the allowed work budget."""


class MissingVectors(WellSpectraError):
    """Operation requires eigenvectors but the spectral summary has none."""


class DimensionTooLow(WellSpectraError):
    """Bound evaluators require ambient dimension n >= 3."""


class SubcriticalExponent(WellSpectraError):
    """Boundary Sobolev exponent s <= 2; effective dimension undefined."""


class MissingConstant(WellSpectraError):
    """A configuration-supplied constant (e.g. the semiclassical one) is unset."""


class ConfigError(WellSpectraError):
    """Scenario configuration failed to parse or validate."""
