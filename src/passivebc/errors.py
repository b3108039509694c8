"""Exception hierarchy shared by all passivebc modules.

Every numeric gate in the library raises a dedicated subclass of
:class:`PassivebcError` so that callers (and the CLI) can map failures to
exit codes and name the violated invariant in the message.
"""

from __future__ import annotations


class PassivebcError(Exception):
    """Base class for all library errors."""


class NonFiniteValue(PassivebcError):
    """An input matrix, array or scalar holds NaN or infinity."""


class UnknownChoice(PassivebcError):
    """A named choice (an input or initial-state kind, a node flavor, a
    verify suite) is not one the library offers."""


class NonPositiveParameter(PassivebcError):
    """A width or a mode number that must be positive is not."""


# ---------------------------------------------------------------- spaces


class NonSymmetricGram(PassivebcError):
    """Gram matrix is not symmetric within tolerance."""


class NonPositiveGram(PassivebcError):
    """Gram matrix has a non-positive eigenvalue."""

    def __init__(self, label: str, min_eig: float, max_eig: float,
                 rtol: float):
        super().__init__(f"gram of space {label!r} is not positive definite "
                         f"(smallest eigenvalue {min_eig:.3e} is at most "
                         f"{rtol:g} times the largest, {max_eig:.3e})")
        self.min_eig = min_eig
        self.max_eig = max_eig


class RankDeficient(PassivebcError):
    """A map required to be injective has a nontrivial kernel."""


# ---------------------------------------------------------------- triplets


class GreenIdentityViolated(PassivebcError):
    """Bilinear Green identity does not hold within tolerance."""

    def __init__(self, residual: float, worst_entry: float, where: str = ""):
        suffix = f" in {where}" if where else ""
        super().__init__(f"green identity violated{suffix}: residual "
                         f"{residual:.3e}, worst entry {worst_entry:.3e}")
        self.residual = residual
        self.worst_entry = worst_entry


class TraceNotSurjective(PassivebcError):
    """Stacked trace maps do not reach the full boundary space."""


class DegenerateCoreProjection(PassivebcError):
    """Core projection restricted to a domain basis is not injective."""


class NotALift(PassivebcError):
    """An operator passed where the second-order lift of a dual pair is
    needed is not one."""


# ---------------------------------------------------------------- extensions


class IllPosedRestriction(PassivebcError):
    """Constraint kernel does not have the dimension of the core space."""


class SingularCoreProjection(PassivebcError):
    """Core projection on the constraint kernel is (numerically) singular."""


# ---------------------------------------------------------------- nodes


class NotAContraction(PassivebcError):
    """Boundary parameter exceeds unit norm on the dual boundary space."""

    def __init__(self, norm: float):
        super().__init__(f"NotAContraction: dual-space operator norm "
                         f"{norm:.6g} exceeds 1")
        self.norm = norm


class MassNotSPD(PassivebcError):
    """Mass operator is not symmetric positive definite on its space."""


class CoreGramNotBlockDiagonal(PassivebcError):
    """Core Gram couples the position and momentum blocks of an operator's
    core coordinates, which the mass weighting keeps apart."""


class DampingNotDissipative(PassivebcError):
    """Negative of the damping operator fails the dissipativity test."""


class NonPositiveBeta(PassivebcError):
    """Cayley parameter must be a positive real number."""


class InconsistentBoundaryData(PassivebcError):
    """Supplied input sample does not match the input map on the state."""


# ---------------------------------------------------------------- simulation


class IncompatibleInitialData(PassivebcError):
    """Initial core state cannot be completed to satisfy the input map."""

    def __init__(self, residual: float):
        super().__init__(f"initial data incompatible with input map "
                         f"(residual {residual:.3e})")
        self.residual = residual


class SingularBoundaryBlock(PassivebcError):
    """Boundary-coordinate block of the input map is singular."""


class SingularStepMatrix(PassivebcError):
    """Implicit midpoint step matrix is (numerically) singular."""


class InvalidTimeGrid(PassivebcError):
    """The final time is not a whole number of positive, finite steps, or
    a step size is zero or NaN."""


class TimeGridTooLarge(PassivebcError):
    """The time grid and its states cannot be allocated."""


class ShapeMismatch(PassivebcError):
    """An input signal, input sample or state has the wrong channel count
    or dimension for the node it is applied to, a Gram the wrong shape for
    its space, or a map, mass, damping or boundary injection the wrong
    shape for the spaces it joins."""


# ---------------------------------------------------------------- wave model


class InvalidCoefficients(PassivebcError):
    """Coefficient arrays violate positivity or shape requirements."""


class NonConstantCoefficients(PassivebcError):
    """Operation requires spatially constant coefficients."""


# ---------------------------------------------------------------- scenarios


class ScenarioError(PassivebcError):
    """Scenario file is malformed or violates the schema, or the run's
    output path is a directory or cannot be made."""
