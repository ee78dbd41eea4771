"""Exception types shared across the toolkit."""


class GtsError(Exception):
    """Base class for all toolkit errors."""


class CarrierMismatch(GtsError):
    pass


class UnrepresentablePoint(GtsError):
    pass


class NonOpenMember(GtsError):
    def __init__(self, member):
        super().__init__(f"family member is not open: {member}")
        self.member = member


class PolicyMismatch(GtsError):
    pass


class UnsupportedSubset(GtsError):
    pass


class NonSmallFactor(GtsError):
    pass


class OverlapNotOpen(GtsError):
    pass


class IncompatibleTraces(GtsError):
    pass


class BallNotOpen(GtsError):
    pass


class UnsupportedCarrier(GtsError):
    pass


class UnsupportedPresentation(GtsError):
    pass


class NonPosetCategory(GtsError):
    pass


class NonFiniteCarrier(GtsError):
    pass


class PointNotCovered(GtsError):
    pass


class NoInfimum(GtsError):
    pass


class PreconditionUnmet(GtsError):
    pass


class TheoremViolation(GtsError):
    """Raised when a machine-checked theorem fails on a concrete instance.

    This signals a bug (or a corrupted presentation), not bad user input.
    """
