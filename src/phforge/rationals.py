"""Exact scalar helpers: rational string round-trips."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer) into a Fraction.

    Raises ValueError on malformed input, including zero denominators.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
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
