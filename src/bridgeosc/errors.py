"""Exception types shared across the package, and its check of counts."""


class BridgeError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(BridgeError, ValueError):
    """A parameter record violates its validity constraints."""


class UnsupportedFamilyError(BridgeError):
    """The requested quantity is not defined for this equation family."""


class EmptyTrajectoryError(BridgeError, ValueError):
    """An operation needing samples received an empty trajectory."""


def _count(value, name: str) -> int:
    """value as an int >= 1: 4, 4.0 or np.int64(4), but not 1.5, NaN or inf."""
    if not (isinstance(value, int) or float(value).is_integer()) or int(value) < 1:
        raise InvalidParameterError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)
