"""Exception hierarchy shared by all mwk modules."""


class MWKError(Exception):
    """Base class for all mwk errors."""


class NotPrime(MWKError):
    pass


class EvenCharacteristic(MWKError):
    pass


class SizeBound(MWKError):
    pass


class FieldMismatch(MWKError):
    pass


class ZeroPolynomial(MWKError):
    pass


class DegreeBound(MWKError):
    pass


class NotRegularAtPlace(MWKError):
    pass


class Inhomogeneous(MWKError):
    pass


class DegreeMismatch(MWKError):
    pass


class NotAUniformizer(MWKError):
    pass


class PlaceMismatch(MWKError):
    pass


class TorsionViolation(MWKError):
    pass


class NotAdmissible(MWKError):
    pass


class ParseError(MWKError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownSuite(MWKError, KeyError):
    """No verification suite has the given id."""
