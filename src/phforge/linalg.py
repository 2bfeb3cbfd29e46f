"""Exact linear algebra over the integers: primitive kernel bases."""

from __future__ import annotations

from math import gcd
from operator import mul


def nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Kernel basis of an integer matrix: one primitive integer vector per free column.

    Forward elimination over the integers, then back-substitution per free
    column (fraction-free elimination: Bareiss, Math. Comp. 22, 1968;
    Geddes, Czapor & Labahn, *Algorithms for Computer Algebra*, ch. 9).
    The forward pass takes as pivot the first row with a nonzero entry in
    column c and updates only the rows below it, and in them only the
    columns after c: their entries up to column c are zero once eliminated,
    so they are left as they are and never read again.  With f / pv = b / a
    in lowest terms (f the row's entry in column c, pv the pivot), the
    update is a row - b pivot row, divided by its content.  Free column f
    then gives the kernel vector v with a 1 at f, 0 at every other free
    column and the pivot entries solved upward; v is scaled by the reduced
    denominator of each pivot entry it solves, so it stays integral, and is
    finally scaled to coprime integers with a positive first nonzero entry.
    That vector is unique, so it is the one elimination over Q would give.
    It is the package's one elimination: it gives the residue kernel, and
    it solves a nonsingular square system A x = b_j for several b_j at once,
    since with the b_j as trailing columns of [A | b_1 ... b_r] each free
    column n + j gives the kernel vector (-x_j v, 0.., v, ..0).
    """
    m = [list(row) for row in rows]
    pivots = []  # (column, pivot entry, the pivot row's entries after the column)
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv, tail = m[r][c], m[r][c + 1 :]
        for row in m[r + 1 :]:
            f = row[c]
            if f:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                new = [a * x - b * y for x, y in zip(row[c + 1 :], tail)]
                g = gcd(*new)
                row[c + 1 :] = [x // g for x in new] if g > 1 else new
        pivots.append((c, pv, tail))
    basis = []
    pivot_cols = {c for c, _, _ in pivots}
    for f in (c for c in range(ncols) if c not in pivot_cols):
        v = [0] * ncols
        v[f] = 1
        # a pivot right of f solves to 0: its row meets only zeros of v
        for p, pv, tail in reversed(pivots):
            if p > f:
                continue
            s = sum(map(mul, tail, v[p + 1 :]))
            if s:
                g = gcd(s, pv)
                if pv < 0:
                    g = -g
                d = pv // g
                if d != 1:
                    v[p + 1 :] = [x * d for x in v[p + 1 :]]
                v[p] = -s // g
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append([x // g for x in v])
    return basis
