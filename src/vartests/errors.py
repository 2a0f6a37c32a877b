"""Exception types shared across the package, and the conversion of arguments that raises them."""

from __future__ import annotations

from typing import Any, Callable


class ValidationError(ValueError):
    """Malformed input: bad shapes, out-of-range parameters, unknown names."""


class DegenerateDataError(ValueError):
    """The data admit no statistic (zero spread, 0/0); never silently NaN."""


class KurtosisError(DegenerateDataError):
    """Pooled kurtosis estimate is <= 1, so the Box-Anderson factor is undefined."""


def _converted(convert: Callable[[Any], Any], value: Any) -> Any:
    """``convert(value)``; a value it refuses raises a ``ValidationError`` with its message."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(str(exc)) from None


def _each_converted(convert: Callable[[Any], Any], values: Any, field: str) -> tuple:
    """``convert`` applied to each of ``values``, as by ``_converted``; a string in place of the sequence names ``field``."""
    if isinstance(values, (str, bytes)):
        raise ValidationError(f"{field} must be a sequence, not the string {values!r}")
    return _converted(lambda each: tuple(map(convert, each)), values)
