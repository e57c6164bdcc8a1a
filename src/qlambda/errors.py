"""Exception hierarchy shared across the package.

PhysicsDomainError groups everything a driver maps to a "bad physics input"
exit status; the integration and convergence guards stay separate because
they signal numerical trouble rather than invalid kinematics.
"""


class QLambdaError(Exception):
    """Base class for all package errors."""


class ConfigError(QLambdaError):
    """Malformed or inconsistent configuration input."""


class PhysicsDomainError(QLambdaError):
    """Input lies outside the physical domain of an operation."""


class SpacelikeVector(PhysicsDomainError):
    """Invariant mass requested for a vector with negative squared norm."""


class NonpositiveEnergy(PhysicsDomainError):
    """Energy component must be strictly positive."""


class SuperluminalBoost(PhysicsDomainError):
    """Boost velocity magnitude must be below 1 (in units of c)."""


class BelowThreshold(PhysicsDomainError):
    """Total energy below the production threshold of the process."""


class MasslessAtRest(PhysicsDomainError):
    """A massless spinor needs a nonzero three-momentum."""


class ZeroWavevector(PhysicsDomainError):
    """Polarization vectors are undefined for a zero wavevector."""


class DegenerateLevels(PhysicsDomainError):
    """Coupled levels with equal energies have no rotating-frame period."""


class IncommensurateGaps(PhysicsDomainError):
    """Level gaps admit no common period."""


class PoleEncountered(PhysicsDomainError):
    """An energy denominator vanished."""


class OffShellInput(PhysicsDomainError):
    """External momenta must be on shell and conserve four-momentum."""


class ForwardSingularity(PhysicsDomainError):
    """Momentum transfer vanished (forward scattering pole)."""


class RealPairThreshold(PhysicsDomainError):
    """Photon energy reaches the real pair-production threshold."""


class SignMismatch(PhysicsDomainError):
    """Correction factors must share a sign between frames."""


class CorrectionTooLarge(PhysicsDomainError):
    """First-order expansion requested outside its validity window."""


class ZeroReference(PhysicsDomainError):
    """The reference value a ratio is taken against is zero."""


class StepTooLarge(QLambdaError):
    """Integrator norm drift exceeded the guard tolerance."""


class GridTooCoarse(QLambdaError):
    """Refining the quadrature grid moved the result beyond tolerance."""
