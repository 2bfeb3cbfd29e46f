"""Exact linear algebra over the rationals: RREF and kernels."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def rref(rows: list[list[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Fraction-free Gauss-Jordan: each row is cleared of denominators once and
    eliminated over the integers, kept primitive after every update; the
    RREF is unique, so dividing each pivot row by its pivot at the end gives
    the same rows as elimination over Q.
    """
    m = []
    for row in rows:
        row = list(map(Fraction, row))
        den = lcm(*[v.denominator for v in row])
        m.append([v.numerator * (den // v.denominator) for v in row])
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv, prow = m[r][c], m[r]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                row = [pv * a - f * b for a, b in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    red = [[Fraction(a, row[c]) for a in row] for row, c in zip(m, pivots)]
    return red + [[Fraction(0)] * ncols for _ in m[len(pivots):]], pivots


def nullspace(rows: list[list[Fraction]], ncols: int | None = None):
    """Kernel basis with the standard free-variable convention.

    Each basis vector has a 1 in one free column and the pivot entries
    solved from the RREF.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty system")
        ncols = len(rows[0])
    if not rows:
        red, pivots = [], []
    else:
        red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def primitive_integer_vector(v: list[Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers with positive first nonzero."""
    denoms = [f.denominator for f in v]
    scale = lcm(*denoms) if denoms else 1
    ints = [int(f * scale) for f in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints
