"""Distance values: exact rationals, floats for the one lossy space, infinity.

A distance is an ``int``, a ``fractions.Fraction`` or a ``float``
(``math.inf`` plays the role of infinity between components).  All catalog
spaces keep exact arithmetic except the logarithmic line, which is
irrational by nature and uses 64-bit floats with a fixed comparison
tolerance carried on the space handle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

__all__ = ["Dist", "INF", "as_dist", "parse_dist", "dist_to_jsonable", "is_finite"]

Dist = Union[int, Fraction, float]

INF = math.inf

# most digits parse_dist reads in a number, as int() does by default
_MAX_DIGITS = 4300
_DIGITS_BOUND = 10 ** _MAX_DIGITS


def as_dist(value) -> Dist:
    """Normalize a user-supplied numeric value to a Dist.

    Integers stay integers, Fractions stay Fractions and are reduced to
    int when integral, and other floats stay floats as given (callers that
    need exactness should pass rationals).  So infinity stays ``INF``, and
    -inf stays negative for the callers' positivity checks to refuse.  NaN
    is rejected.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a distance")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN is not a distance")
        return value
    if isinstance(value, str):
        return parse_dist(value)
    raise TypeError(f"cannot interpret {value!r} as a distance")


def parse_dist(text: str) -> Dist:
    """Parse "7", "17/4", "2.5", "1e-12" or "inf" into a Dist (exact where
    possible).  As ``int()`` does, refuse more than ``_MAX_DIGITS`` digits:
    in the numerator or denominator, or in a power of ten."""
    text = text.strip()
    if text.lower() in ("inf", "infinity"):
        return INF
    try:
        if "/" in text or "." in text or "e" in text.lower():
            exponent = text.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > _MAX_DIGITS:
                raise ValueError("exponent too large")
            frac = Fraction(text)
            if max(abs(frac.numerator), frac.denominator) >= _DIGITS_BOUND:
                raise ValueError("too many digits")
            return int(frac) if frac.denominator == 1 else frac
        return int(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse distance {text!r}") from exc


def dist_to_jsonable(value: Dist):
    """Render a Dist for JSON: int stays int, Fraction becomes "p/q"."""
    if isinstance(value, bool):
        raise TypeError("bool is not a distance")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    raise TypeError(f"not a distance: {value!r}")


def is_finite(value: Dist) -> bool:
    return not (isinstance(value, float) and math.isinf(value))
