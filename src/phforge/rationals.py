"""Exact scalar helpers: rational string round-trips."""

from __future__ import annotations

import re
from fractions import Fraction

# Fraction computes 10**exponent for any exponent, so a huge one takes
# minutes; the bound is CPython's default limit on an int's decimal digits
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer) into a Fraction.

    Raises ValueError on malformed input, including zero denominators and
    decimal exponents above ``_MAX_EXPONENT`` in magnitude.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    exponent = _EXPONENT.search(text)
    digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
        raise ValueError(f"exponent above {_MAX_EXPONENT} in magnitude in {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Canonical string form, integer values without the '/1'."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
