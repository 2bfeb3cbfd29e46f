"""Strict positivity of the speed numerator via sum-of-squares feasibility.

A numerator mu of even degree m is strictly positive iff some Gram matrix G
with mu(t) = v(t) G v(t)^T is positive definite, here in the weighted basis
v(t)_i = w_i t^i, w_i = sqrt(C(n-1, i)), n = m/2 + 1, where G = I/n stands
for (1 + t^2)^(n-1) / n.  The residue conditions are linear in mu, so they
carve a slice out of the symmetric matrices.  The search maximises
lambda_min(G) over the trace-one slice through its dual (moment) form,
min nu s.t. Z = nu*I + H_w(h) >= 0, tr Z = 1, h in K^perp, where K^perp is
the complement of the residue kernel K in the numerator coefficients and
H_w(h)_il = w_i w_l h_(i+l) (Loefberg & Parrilo, "From coefficients to
samples", CDC 2004; Nesterov, "Squared functional systems and optimization
problems", 2000).  Its m + 1 - dim K unknowns are 3, 9 or 15 for one, two
or three pole factors of the reference generator, against up to 363 slice
coordinates.  Every dual iterate passed Cholesky, so by weak duality its nu
bounds the optimum, and the primal witness is recovered from Z.  Floating
output is never trusted: the witness's kernel coordinates are rounded on a
power-of-two grid, and the exact mu they give is certified by an exact
count of its real roots (Descartes' rule of signs, ``sturm_real_root_count``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Real

import numpy as np

from .errors import EmptyKernelError
from .polynomial import Polynomial
from .ratfunc import sturm_real_root_count
from .synthesis import SolutionSpace

FEASIBLE = "feasible"
INDETERMINATE = "indeterminate"
# the barrier path: t grows by PATH_GROWTH per outer step, each of at most
# MAX_NEWTON Newton steps; an outer step is centred once the squared Newton
# decrement falls below CENTRED
PATH_GROWTH = 10.0
MAX_NEWTON = 40
CENTRED = 1e-12


@dataclass(frozen=True)
class RegularityCertificate:
    """Exact evidence that a numerator polynomial has no real zeros."""

    regular: bool
    real_root_count: int
    leading_coefficient: Fraction

    def __bool__(self):
        return self.regular


def certify_regular(mu: Polynomial) -> RegularityCertificate:
    """Exact strict-positivity certificate: no real roots, positive leading.

    For an even-degree polynomial without real roots, a positive leading
    coefficient is equivalent to positivity everywhere; the exact root
    count is the certificate, independent of any floating arithmetic.
    """
    if mu.is_zero:
        return RegularityCertificate(False, 0, Fraction(0))
    roots = sturm_real_root_count(mu)
    lead = Fraction(mu.leading())
    return RegularityCertificate(roots == 0 and lead > 0, roots, lead)


class GramSlice:
    """The trace-one Gram matrices whose numerator lies in the residue kernel.

    ``dimension`` is n, the Gram matrices' size, and ``space`` the
    ``SolutionSpace`` the slice was built from.  ``kernel_rows`` holds the
    float coefficients of its basis vectors, one row each, padded to 2n - 1,
    basis vector k divided by 2^L_k, with L_k = ``unit_bits[k]`` the bit
    length of its largest |coefficient|, so that coefficient lies in
    [1/2, 1).  ``weights`` holds the w_i.  ``maps`` holds the traceless
    Hankel matrices A_j = H_w(r_j) - offsets[j] * I of an orthonormal basis
    r_j of K^perp, with ``offsets[j]`` = tr H_w(r_j) / n.  Since
    <H_w(h), G> = h . A_w(G), where A_w(G)_k = sum_{i+l=k} w_i w_l G_il is
    G's numerator, G lies in the slice exactly when tr G = 1 and
    <H_w(r_j), G> = 0 for every j.  The arrays are read-only.
    """

    def __init__(
        self, dimension: int, space: SolutionSpace, unit_bits, kernel_rows, weights, maps, offsets
    ):
        self.dimension = dimension
        self.space = space
        self.unit_bits = tuple(unit_bits)
        self.kernel_rows, self.weights, self.maps, self.offsets = kernel_rows, weights, maps, offsets
        for array in (kernel_rows, weights, maps, offsets):
            array.flags.writeable = False

    @property
    def slice_dimension(self) -> int:
        """k + n(n+1)/2 - (m+1): kernel coordinates plus zero-antidiagonal matrices."""
        n = self.dimension
        return self.space.dimension + n * (n + 1) // 2 - (2 * n - 1)


def _hankel(weights, h) -> np.ndarray:
    """H_w(h) for each row h of coefficients: entry (i, l) is w_i w_l h_(i+l)."""
    n = len(weights)
    return np.outer(weights, weights) * h[..., np.add.outer(np.arange(n), np.arange(n))]


def _numerator(weights, gram) -> np.ndarray:
    """A_w(G), the adjoint of H_w: the weighted antidiagonal sums of G."""
    n = len(weights)
    cells = (np.outer(weights, weights) * gram).ravel()
    return np.bincount(np.add.outer(np.arange(n), np.arange(n)).ravel(), cells, 2 * n - 1)


def build_gram_slice(space: SolutionSpace) -> GramSlice:
    """The Gram slice of the problem's residue kernel, in the dual's terms.

    K^perp is read off one complete QR factorisation of the float kernel
    basis.  An empty kernel admits no curve at all and raises
    EmptyKernelError.
    """
    if not space.basis:
        raise EmptyKernelError(
            "residue conditions admit only the zero numerator; "
            "raise the pole multiplicities"
        )
    n = space.problem.m // 2 + 1
    weights = np.sqrt([float(math.comb(n - 1, i)) for i in range(n)])
    # ||H_w(h)||_F^2 = sum_k C(m, k) h_k^2, so the complement q_j of the kernel
    # scaled by 1/sqrt(C(m, k)), scaled back, gives orthonormal H_w(r_j)
    scale = np.sqrt([float(math.comb(2 * n - 2, k)) for k in range(2 * n - 1)])
    unit_bits = [max(map(abs, b.ints)).bit_length() for b in space.basis]
    rows = np.zeros((space.dimension, 2 * n - 1))
    for row, b, bits in zip(rows, space.basis, unit_bits):
        row[: len(b.ints)] = [x / (1 << bits) for x in b.ints]
    q, _ = np.linalg.qr((rows / scale).T, mode="complete")
    hankel = _hankel(weights, q[:, space.dimension :].T / scale)
    offsets = np.trace(hankel, axis1=1, axis2=2) / n
    maps = hankel - offsets[:, None, None] * np.eye(n)
    return GramSlice(n, space, unit_bits, rows, weights, maps, offsets)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of one semidefinite feasibility search over a margin ladder.

    ``feasible`` status always comes with an exact certificate: the
    witness's kernel coordinates are rounded on a power-of-two grid and the
    numerator they give, ``witness_mu``, is re-verified by a root count, so
    a floating solver cannot produce a false positive.  ``witness_x`` holds
    the float kernel coordinates of the numerator of the Gram matrix that
    was gated (or of the best one found; None if the search had no start).
    ``min_eigenvalue`` is that Gram matrix's least eigenvalue, at trace one
    in the weighted basis.  ``margin`` is the ladder margin that certified
    (None unless feasible); ``relaxation_log`` holds one
    ``(margin, status, min_eigenvalue)`` entry per margin tried, in order.
    ``optimum_bound`` is the upper bound on the optimum eigenvalue that
    proved the result's margin unreachable: the nu of a dual point whose Z
    passed Cholesky, in an unbiased search; None when no bound ruled the
    margin out.
    """

    status: str
    witness_x: tuple | None
    witness_mu: Polynomial | None
    min_eigenvalue: float
    certificate: RegularityCertificate | None = None
    margin: float | None = None
    relaxation_log: tuple = ()
    optimum_bound: float | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE


def _barrier_derivatives(flat, inv):
    """Gradient and Hessian of -log det Z along the maps, from L^-1, L Z's Cholesky factor.

    ``flat`` holds the symmetric n x n maps A_j as rows of length n*n.  With
    M_j = L^-1 A_j L^-T, tr(Z^-1 A_j) = tr M_j and
    tr(Z^-1 A_j Z^-1 A_l) = <M_j, M_l>, so the gradient is -tr M_j and the
    Hessian is the Gram matrix of the M_j.
    """
    d, n = len(flat), len(inv)
    white = (inv @ flat.reshape(d, n, n) @ inv.T).reshape(d, n * n)
    return -white[:, :: n + 1].sum(axis=1), white @ white.T


def _dual_path(g: GramSlice, shift):
    """Yield ``(best_gram, best_lam, bound)`` at the start and after each outer step.

    The dual point is Z(c) = I/n + shift + sum_j c_j A_j with
    nu(c) = 1/n - offsets . c, so tr Z = 1 by construction and, without a
    shift, Z = nu*I + H_w(sum_j c_j r_j).  Damped Newton steps (Nesterov's
    1/(1 + decrement) rule) minimise t*nu(c) - log det Z(c), t growing by
    PATH_GROWTH per outer step.  One Cholesky factor of Z per step tests that
    the step stays inside the cone, and its one inverse gives the Newton
    system and the primal point.

    ``bound`` is the least nu of any iterate so far: for every slice point
    G, nu = <Z, G> >= lambda_min(G) as Z >= 0 has trace one, so nu bounds
    the optimum (weak duality).  A nonzero shift adds <shift, G> to <Z, G>,
    so a shifted path bounds another objective and its ``bound`` is inf.

    After each outer step the primal point G = (Z^-1 + yI)/t,
    y = (t - tr Z^-1)/n, which lies in the slice when Z is central, is
    projected onto the slice.  ``best_gram`` is the projected G with the
    largest least eigenvalue ``best_lam`` so far; it is replaced, never
    mutated.  A shift that leaves I/n + shift indefinite gives the one
    snapshot (None, -inf, inf).  The path ends once the gap n/t is below
    1e-13 or an outer step cannot be centred, which means float precision
    has run out.
    """
    d, n, _ = g.maps.shape
    flat = g.maps.reshape(d, n * n)
    eye = np.eye(n)
    # an orthonormal basis of span{I, H_w(r_j)}: G is in the slice exactly
    # when basis.T @ G.ravel() == target
    constraints = np.vstack([eye.ravel(), flat + np.outer(g.offsets, eye.ravel())])
    basis, r = np.linalg.qr(constraints.T)
    target = np.linalg.solve(r.T, np.eye(d + 1)[0])
    z0 = eye / n + shift

    def primal(inv, t):
        z_inv = inv.T @ inv
        gram = (z_inv + (t - np.trace(z_inv)) / n * eye) / t
        gram -= (basis @ (basis.T @ gram.ravel() - target)).reshape(n, n)
        return gram, float(np.linalg.eigvalsh(gram)[0])

    try:
        inv = np.linalg.inv(np.linalg.cholesky(z0))
    except np.linalg.LinAlgError:
        yield None, -math.inf, math.inf
        return
    c = np.zeros(d)
    t = 1.0
    bounded = not shift.any()
    bound = 1.0 / n if bounded else math.inf
    best_gram, best_lam = primal(inv, t)
    yield best_gram, best_lam, bound
    centred = True
    while centred and n / t >= 1e-13:
        t *= PATH_GROWTH
        centred = False
        for _ in range(MAX_NEWTON):
            grad, hess = _barrier_derivatives(flat, inv)
            grad -= t * g.offsets
            step = np.linalg.solve(hess, -grad)
            decrement = float(-grad @ step)
            if not decrement >= CENTRED:
                # a negative or NaN decrement means the float Newton system broke down
                centred = decrement >= 0.0
                break
            alpha = 1.0 / (1.0 + math.sqrt(decrement))
            for _ in range(60):
                try:
                    factor = np.linalg.cholesky(z0 + ((c + alpha * step) @ flat).reshape(n, n))
                    break
                except np.linalg.LinAlgError:
                    alpha /= 2.0
            else:
                break  # float precision leaves no step inside the cone
            c = c + alpha * step
            inv = np.linalg.inv(factor)
            if bounded:
                bound = min(bound, 1.0 / n - float(g.offsets @ c))
        gram, lam = primal(inv, t)
        if lam > best_lam:
            best_gram, best_lam = gram, lam
        yield best_gram, best_lam, bound


def _coordinates(g: GramSlice, gram) -> np.ndarray:
    """The float kernel coordinates of G's numerator A_w(G) along the rows of ``g.kernel_rows``."""
    return np.linalg.lstsq(g.kernel_rows.T, _numerator(g.weights, gram), rcond=None)[0]


def _gate(g: GramSlice, gram, lam) -> FeasibilityResult | None:
    """The exact gate of ``sdp_feasible_point`` at ``gram`` (least eigenvalue ``lam``), or None."""
    y = _coordinates(g, gram)
    top = float(np.max(np.abs(y)))
    # all-zero kernel coordinates give mu = 0, which certifies nothing
    for bits in (20, 40) if top > 0.0 else ():
        grid = np.rint(y / top * 2.0**bits).astype(np.int64).tolist()
        coefficients = [Fraction(c, 1 << (bits + u)) for c, u in zip(grid, g.unit_bits)]
        mu = g.space.combination(coefficients)
        cert = certify_regular(mu)
        if cert:
            return FeasibilityResult(FEASIBLE, tuple(map(float, y)), mu, float(lam), cert)
    return None


def sdp_feasible_point(
    g: GramSlice,
    margin: float | Sequence[float] = 1e-3,
    *,
    objective_bias=None,
) -> FeasibilityResult:
    """Search the slice for G with lambda_min(G) >= margin under tr G = 1.

    The solver follows the dual barrier path of ``_dual_path`` (any method
    achieving the eigenvalue bound conforms equally).  ``margin`` is one
    positive finite margin or a ladder of them, tried in order until one
    certifies.  One path serves the whole ladder and is computed only as far
    as the ladder reads it, by one rule: a margin m is decided at the first
    outer step whose best point reaches m or whose bound (the least nu so
    far, in an unbiased search) lies below m.  If that best point falls
    short of m, the bound has ruled m out.  Otherwise the exact gate runs on
    it and, if that fails or no step decided m, on the best point at the end
    of the path if that reaches m; each point is gated at most once per
    call.  The gate divides the coordinates y of the point's numerator
    A_w(G) along the rows of ``g.kernel_rows`` by their largest absolute
    value and rounds them on the grid 2^-bits, bits = 20 and, if that fails,
    40.  With basis vector k over 2^L_k as its row (L_k =
    ``g.unit_bits[k]``), the exact numerator is one ``g.space.combination``
    with coefficients grid_k / 2^(bits + L_k), certified by the exact root
    count.  A margin ruled out, never reached or whose gates fail yields
    ``indeterminate``, which is not a proof of infeasibility, with the best
    eigenvalue at the step that ruled it out and the bound in
    ``optimum_bound``, or else at the end of the path.  The result is the
    first feasible margin's, else the last margin's, with the log of every
    margin tried.

    ``objective_bias`` b, one entry per kernel coordinate, steers the solver
    to other interior points, as other cost functions would: the search
    maximises lambda_min(G) + <H_w(K b), G> with K b = sum_k b_k
    g.kernel_rows[k], by shifting every dual point by the fixed traceless
    matrix tr H_w(K b)/n * I - H_w(K b).  A biased search reports no bound.
    """
    margins = (margin,) if isinstance(margin, Real) else tuple(margin)
    if not margins or not all(math.isfinite(m) and m > 0 for m in margins):
        raise ValueError("margins must be positive and finite")
    n = g.dimension
    shift = np.zeros((n, n))
    if objective_bias is not None:
        if len(objective_bias) != g.space.dimension:
            raise ValueError(
                f"objective_bias has {len(objective_bias)} entries, "
                f"the kernel has dimension {g.space.dimension}"
            )
        h = _hankel(g.weights, np.asarray([float(v) for v in objective_bias]) @ g.kernel_rows)
        shift = np.trace(h) / n * np.eye(n) - h

    snapshots = _dual_path(g, shift)
    start = next(snapshots)
    gated = set()  # lams gated so far, all failed: best_lam rises strictly as best_gram moves
    log = []
    for m in margins:
        # each copy yields the outer steps drawn so far, then draws new ones from the path
        snapshots, walk, rest = itertools.tee(snapshots, 3)
        snapshot = next((s for s in walk if s[1] >= m or s[2] < m), None)
        result = bound = None
        if snapshot is not None and snapshot[1] < m:
            # the bound proves m unreachable: report the best point so far
            best_gram, best_lam, bound = snapshot
        else:
            if snapshot is not None and snapshot[1] not in gated:
                gated.add(snapshot[1])
                result = _gate(g, *snapshot[:2])
            if result is None:
                *_, (best_gram, best_lam, _) = start, *rest  # the end of the path
                if best_lam >= m and best_lam not in gated:
                    gated.add(best_lam)
                    result = _gate(g, best_gram, best_lam)
        if result is None:
            result = FeasibilityResult(
                INDETERMINATE, None, None, float(best_lam), optimum_bound=bound
            )
        log.append((m, result.status, result.min_eigenvalue))
        if result.is_feasible:
            return replace(result, margin=m, relaxation_log=tuple(log))
    # the last margin's best point, whose coordinates only the returned result needs
    witness = None if best_gram is None else tuple(map(float, _coordinates(g, best_gram)))
    return replace(result, witness_x=witness, relaxation_log=tuple(log))


def average_solutions(mus, weights) -> Polynomial:
    """Positively weighted sum of speed numerators from one residue kernel.

    The curve integrated from mu is linear in mu, so ``synthesize_curve`` of
    the sum equals the same weighted sum of the solution curves; strictly
    positive numerators form a convex cone, so regular summands give a
    regular sum.
    """
    mus = list(mus)
    weights = [Fraction(w) for w in weights]
    if not mus or len(mus) != len(weights):
        raise ValueError("one positive weight per numerator required")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    out = Polynomial.zero()
    for mu, w in zip(mus, weights):
        out = out + mu * w
    return out
