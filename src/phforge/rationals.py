"""Exact scalar helpers: rational string round-trips."""

from __future__ import annotations

import re
from fractions import Fraction

# Fraction computes 10**exponent, so a huge exponent takes minutes; exponents and
# digit runs are bounded by CPython's default int digit limit, whatever limit is set
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer) into a Fraction.

    Raises ValueError on malformed input, including zero denominators and
    exponents or digit runs beyond ``_MAX_EXPONENT``, quoting 40 characters.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    quoted = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
    exponent = _EXPONENT.search(text)
    digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
        raise ValueError(f"exponent above {_MAX_EXPONENT} in magnitude in {quoted}")
    if len(text) > _MAX_EXPONENT and max(map(len, re.split(r"\D", text.replace("_", "")))) > _MAX_EXPONENT:
        raise ValueError(f"more than {_MAX_EXPONENT} digits in {quoted}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {quoted}") from None
    except ValueError:
        raise ValueError(f"malformed rational {quoted}") from None


def format_rational(x: Fraction) -> str:
    """Canonical string form, integer values without the '/1'."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
