"""Exact linear algebra over the integers: primitive kernel bases."""

from __future__ import annotations

from math import gcd, lcm


def nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Kernel basis of an integer matrix: one primitive integer vector per free column.

    Gauss-Jordan over the integers: each update cross-multiplies two rows
    and divides the result by its content.  Free column f gives the kernel
    vector with a 1 at f and the pivot entries solved from the reduced rows,
    scaled to coprime integers with a positive first nonzero entry; that
    vector is unique, so it is the one elimination over Q would give.
    It is the package's one elimination: it gives the residue kernel, and
    it solves a nonsingular square system A x = b_j for several b_j at once,
    since with the b_j as trailing columns of [A | b_1 ... b_r] each free
    column n + j gives the kernel vector (-x_j v, 0.., v, ..0).
    """
    m = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv, prow = m[r][c], m[r]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                row = [pv * a - f * b for a, b in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        scale = lcm(*[m[r][p] for r, p in enumerate(pivots) if m[r][f]])
        v = [0] * ncols
        v[f] = scale
        for r, p in enumerate(pivots):
            v[p] = -m[r][f] * (scale // m[r][p])
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append([x // g for x in v])
    return basis
