"""Exception types shared across the package, and its checks of numbers."""
import numbers


class BridgeError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(BridgeError, ValueError):
    """A parameter record violates its validity constraints."""


class ConfigError(BridgeError, ValueError):
    """A scenario config lacks a key, or a key or record has the wrong shape."""


class UnsupportedFamilyError(BridgeError):
    """The requested quantity is not defined for this equation family."""


class EmptyTrajectoryError(BridgeError, ValueError):
    """An operation needing samples received an empty trajectory."""


def _number(value, name: str) -> float:
    """value as a float: an int or a float (numpy's too) in float range, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameterError(f"{name} is beyond float range") from None


def _count(value, name: str) -> int:
    """value as an int >= 1: 4, 4.0 or np.int64(4), but not True, 1.5, NaN or inf."""
    whole = isinstance(value, int) or _number(value, name).is_integer()
    if isinstance(value, bool) or not whole or int(value) < 1:
        raise InvalidParameterError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)
