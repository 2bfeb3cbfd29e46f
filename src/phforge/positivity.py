"""Strict positivity of the speed numerator via sum-of-squares feasibility.

A numerator mu of even degree m is strictly positive iff it is a sum of
squares, i.e. iff some symmetric Gram matrix M with mu(t) = (1,t,..,t^{m/2})
M (1,t,..)^T is positive definite.  The residue conditions are linear in mu,
so they carve a linear slice out of the symmetric matrices; finding a
positive definite point in that slice is a semidefinite feasibility problem.
The slice is written down in closed form, in floats: the Gram matrix only
guides the search, and the one exact object is the numerator mu.

The solver here is a dense, self-contained barrier interior point.  The
Gram matrix is n x n with n = m/2 + 1 and the slice has d coordinates:
n = 11, d = 57 on (t^2+4)^8 (t^2+t+3)^6, and n = 27, d = 363 on
(t^2+4)^10 (t^2+t+3)^10 (t^2+t+2)^10.  Each Newton step is a few BLAS
products over the basis matrices kept flat as a d x n^2 array: the batched
W B_a W, one (d x n^2)(n^2 x d) product for the Hessian, and one d x n^2
matrix-vector product for the gradient.  One call computes one central path
for a whole ladder of margins; a margin only decides at which point of that
path the exact gate is tried.  At a centred point the barrier's duality gap
n/t_bar bounds the optimum, so without a bias the path stops as soon as that
bound rules out every margin still open.  Floating output is never trusted:
the witness's kernel coordinates are rounded on a power-of-two grid, and
strict positivity of the exact mu they give is certified with a Sturm count.
"""

from __future__ import annotations

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
INFEASIBLE = "infeasible-numerically"
INDETERMINATE = "indeterminate"
# caps on the barrier path: outer steps (each multiplies t_bar by 20) and
# Newton steps per outer step
MAX_OUTER = 60
MAX_NEWTON = 40


@dataclass(frozen=True)
class RegularityCertificate:
    """Exact evidence that a numerator polynomial has no real zeros."""

    regular: bool
    real_root_count: int
    leading_coefficient: Fraction
    degree: int

    def __bool__(self):
        return self.regular


def certify_regular(mu: Polynomial) -> RegularityCertificate:
    """Exact strict-positivity certificate: no real roots, positive leading.

    For an even-degree polynomial without real roots, a positive leading
    coefficient is equivalent to positivity everywhere; the Sturm count is
    the certificate, independent of any floating arithmetic.
    """
    if mu.is_zero:
        return RegularityCertificate(False, 0, Fraction(0), -1)
    roots = sturm_real_root_count(mu)
    lead = Fraction(mu.leading())
    return RegularityCertificate(roots == 0 and lead > 0, roots, lead, mu.degree)


class GramSlice:
    """Float basis of the symmetric matrices whose numerator lies in the kernel.

    The numerator of a Gram matrix is its antidiagonal sums.  ``kernel``
    holds the residue kernel's basis, each vector scaled exactly by a power
    of two so that its largest coefficient lies in [1/2, 1).  The first
    ``len(kernel)`` basis matrices are their Hankel matrices: entry (i, j)
    is coefficient i + j over the number of cells on that antidiagonal, so
    its numerator is the scaled vector.  The rest are the standard basis of
    symmetric matrices whose antidiagonal sums are zero.  The first slice
    coordinates are therefore the kernel coordinates of the numerator, and
    no other coordinate changes it.  ``float_basis`` is read-only.
    """

    def __init__(self, dimension: int, kernel, float_basis):
        self.dimension = dimension
        self.kernel = tuple(kernel)
        self.float_basis = float_basis
        self.float_basis.flags.writeable = False

    @property
    def slice_dimension(self) -> int:
        return len(self.float_basis)


def _scaled_to_unit(b: Polynomial) -> Polynomial:
    """b times the power of two that puts its largest |coefficient| in [1/2, 1).

    Every kernel basis vector is a primitive integer vector, so that power is
    one over 2 to the bit length of its largest |coefficient|.
    """
    return b * Fraction(1, 1 << max(map(abs, b.ints)).bit_length())


def build_gram_slice(space: SolutionSpace) -> GramSlice:
    """All symmetric matrices whose induced numerator lies in the kernel.

    The slice dimension is kernel_dim + (n(n+1)/2 - (m+1)) free Gram
    directions, n = m/2 + 1, m the problem's numerator degree.  An empty
    kernel admits no curve at all and raises EmptyKernelError.
    """
    if not space.basis:
        raise EmptyKernelError(
            "residue conditions admit only the zero numerator; "
            "raise the pole multiplicities"
        )
    m = space.problem.m
    n = m // 2 + 1
    kernel = [_scaled_to_unit(b) for b in space.basis]
    anti = np.add.outer(np.arange(n), np.arange(n))
    cells = np.minimum(anti, 2 * n - 2 - anti) + 1
    mats = []
    for b in kernel:
        coeffs = np.zeros(2 * n - 1)
        coeffs[: b.degree + 1] = b.float_coeffs()
        mats.append(coeffs[anti] / cells)
    for k in range(m + 1):
        # upper cells (i, k - i), i <= k - i; each other one trades against the last
        upper = [(i, k - i) for i in range(max(0, k - n + 1), k // 2 + 1)]
        r, s = upper[-1]
        for i, j in upper[:-1]:
            mat = np.zeros((n, n))
            mat[i, j] = mat[j, i] = 1.0
            mat[r, s] = mat[s, r] = -2.0 if r == s else -1.0
            mats.append(mat)
    return GramSlice(n, kernel, np.array(mats))


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of one semidefinite feasibility search over a margin ladder.

    ``feasible`` status always comes with an exact certificate: the
    witness's kernel coordinates are rounded on a power-of-two grid and the
    numerator they give, ``witness_mu``, is re-verified by a Sturm count, so
    a floating solver cannot produce a false positive.  ``witness_x`` holds
    the float slice coordinates of the point that was gated (or of the best
    point found).  ``margin`` is the ladder margin that certified (None
    unless feasible); ``relaxation_log`` holds one
    ``(margin, status, min_eigenvalue)`` entry per margin tried, in order.
    ``optimum_bound`` is the upper bound on the optimum eigenvalue that
    proved the result's margin unreachable, the central path's duality gap
    at a centred step of an unbiased search; None when no bound ruled the
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


def _newton_system(flat, w, hess):
    """Barrier derivatives at W = (M(x) - s*I)^-1, as BLAS products.

    ``flat`` holds the n x n basis matrices B_a as rows of length n*n, and
    every B_a and W is symmetric, so each trace below is a Frobenius
    product: tr(W B_a) = <B_a, W>, tr(W B_a W B_b) = <W B_a W, B_b>.
    Writes the Hessian of -log det over (x, s) into the (d+1) x (d+1)
    ``hess``: tr(W B_a W B_b), the column -tr(W B_a W) and tr(W W).
    Returns tr(W B_a) for every a.
    """
    d, n = len(flat), len(w)
    wbw = (w @ flat.reshape(d, n, n) @ w).reshape(d, n * n)
    hess[:d, :d] = wbw @ flat.T
    hess[:d, d] = hess[d, :d] = -wbw[:, :: n + 1].sum(axis=1)
    w_flat = w.ravel()
    hess[d, d] = w_flat @ w_flat
    return flat @ w_flat


def _central_path(basis, traces, t_norm2, bias):
    """Yield ``(best_x, best_lam, bound)`` at the start and after each outer step.

    The barrier path maximizes s subject to M(x) - s*I >= 0 and
    trace M(x) = 1 (plus the bias term); it does not depend on any margin.
    ``best_x`` is replaced, never mutated, so every snapshot stays valid.
    ``bound`` is an upper bound on the optimum lambda* of the unbiased
    problem: at a central point W/t_bar is dual feasible with duality gap
    n/t_bar (Vandenberghe & Boyd, SIAM Review 38, 1996), so lambda* <=
    s + n/t_bar, doubled here against float error.  It is finite only after
    an outer step whose Newton loop ended centred (decrement < 1e-16) and
    when the bias is zero, since a bias makes the gap bound s + bias.x.
    """
    d, n, _ = basis.shape
    flat = basis.reshape(d, n * n)

    def matrix(x):
        m = (x @ flat).reshape(n, n)
        return (m + m.T) / 2

    x = traces / t_norm2
    m_now = matrix(x)
    lam0 = float(np.linalg.eigvalsh(m_now)[0])
    s = lam0 - 0.1 * (abs(lam0) + 1.0)
    best_lam = lam0
    best_x = x.copy()
    yield best_x, best_lam, math.inf
    unbiased = not bias.any()
    # KKT system of the Newton step: the Hessian block, bordered by the
    # trace constraint's row and column; the right-hand side is minus the
    # gradient of -t_bar*(s + bias.x) - log det(M(x) - s*I), then a 0 that
    # keeps trace M(x) fixed
    kkt = np.zeros((d + 2, d + 2))
    kkt[:d, d + 1] = kkt[d + 1, :d] = traces
    hess = kkt[: d + 1, : d + 1]
    rhs = np.zeros(d + 2)
    eye = np.eye(n)
    t_bar = 1.0
    for _ in range(MAX_OUTER):
        centred = False
        for _ in range(MAX_NEWTON):
            slack = m_now - s * eye
            try:
                w = np.linalg.inv(slack)
            except np.linalg.LinAlgError:
                break
            w = (w + w.T) / 2
            rhs[:d] = t_bar * bias + _newton_system(flat, w, hess)
            rhs[d] = t_bar - np.trace(w)
            try:
                dz = np.linalg.solve(kkt, rhs)[: d + 1]
            except np.linalg.LinAlgError:
                dz = np.linalg.lstsq(kkt, rhs, rcond=None)[0][: d + 1]
            decrement = float(rhs[: d + 1] @ dz)
            step = 1.0
            for _ in range(60):
                x_new = x + step * dz[:d]
                s_new = s + step * dz[d]
                m_new = matrix(x_new)
                try:
                    np.linalg.cholesky(m_new - s_new * eye)
                    break
                except np.linalg.LinAlgError:
                    step *= 0.5
            else:
                break
            x, s, m_now = x_new, s_new, m_new
            lam = float(np.linalg.eigvalsh(m_now)[0])
            if lam > best_lam:
                best_lam, best_x = lam, x.copy()
            if decrement < 1e-16:
                centred = True
                break
        yield best_x, best_lam, s + 2.0 * n / t_bar if centred and unbiased else math.inf
        if n / t_bar < 1e-13:
            break
        t_bar *= 20.0


def sdp_feasible_point(
    g: GramSlice,
    margin: float | Sequence[float] = 1e-3,
    *,
    objective_bias=None,
) -> FeasibilityResult:
    """Search the slice for M with lambda_min >= margin under trace(M) = 1.

    The solver maximizes s subject to M(x) - s*I >= 0 and trace M(x) = 1 by
    a log-det barrier method with Newton steps (a dense self-contained
    interior point; any method achieving the eigenvalue bound conforms
    equally).  ``margin`` is one positive finite margin or a ladder of them,
    tried in order until one certifies; the call computes one central path
    for the whole ladder, and only as far as the ladder reads it.  A margin
    only places the exact gate: at the first outer step whose best point
    reaches it, and if that fails, at the end of the path.  An unbiased
    search stops reading the path for a margin as soon as an outer step
    that ended centred proves it unreachable: there the duality gap bounds
    the optimum by s + n/t_bar, taken as s + 2n/t_bar against float error.
    The gate rounds only the point's kernel coordinates, the first
    ``len(g.kernel)`` slice coordinates: it divides them by their largest
    absolute value, rounds them on the grid 2^-20 and, if that fails,
    2^-40, and certifies the exact numerator sum y_k * g.kernel[k] with the
    Sturm count, so the floating search is never trusted; each point is
    gated at most once per call.  A margin the path never reaches, or whose
    gates fail, yields ``indeterminate`` with the best achieved eigenvalue,
    which is not a proof of infeasibility; for a margin ruled out early that
    is the best eigenvalue when it was ruled out, and the bound is
    ``optimum_bound``.  The result is the first feasible margin's, else the
    last margin's, with the log of every margin tried.

    ``objective_bias`` adds a small linear term b.x to the maximized s and
    steers the solver to different interior points, the analogue of solving
    the feasibility problem with different cost functions.  It needs one
    entry per slice coordinate.
    """
    margins = (margin,) if isinstance(margin, Real) else tuple(margin)
    if not margins or not all(math.isfinite(m) and m > 0 for m in margins):
        raise ValueError("margins must be positive and finite")
    if objective_bias is not None and len(objective_bias) != g.slice_dimension:
        raise ValueError(
            f"objective_bias has {len(objective_bias)} entries, "
            f"the slice has dimension {g.slice_dimension}"
        )

    def infeasible():
        log = tuple((m, INFEASIBLE, float("-inf")) for m in margins)
        return FeasibilityResult(INFEASIBLE, None, None, float("-inf"), relaxation_log=log)

    if g.slice_dimension == 0:
        return infeasible()
    raw = g.float_basis
    # Frobenius normalization only conditions the float search; coordinates
    # are mapped back to the original basis before the gate rounds them.
    scale = np.sqrt(np.einsum("aij,aij->a", raw, raw))
    basis = raw / scale[:, None, None]
    traces = np.einsum("aii->a", basis)
    t_norm2 = float(traces @ traces)
    if t_norm2 == 0.0:
        # no trace-normalized point exists in the slice
        return infeasible()
    bias = np.zeros(len(basis))
    if objective_bias is not None:
        # given in original slice coordinates; x_orig = x_scaled / scale
        bias = np.asarray([float(v) for v in objective_bias]) / scale

    steps = _central_path(basis, traces, t_norm2, bias)
    path = [next(steps)]  # snapshots computed so far; path[0] is the start

    def deciding(m):
        """The first outer-step snapshot that reaches m or whose bound rules m out.

        None if the path ends first.
        """
        k = 1
        while True:
            if k == len(path):
                snapshot = next(steps, None)
                if snapshot is None:
                    return None
                path.append(snapshot)
            _, lam, bound = path[k]
            if lam >= m or bound < m:
                return path[k]
            k += 1

    gates = {}
    kernel_dim = len(g.kernel)

    def exact_gate(x_scaled, lam):
        # best_lam rises strictly whenever best_x moves, so it names the point
        if lam not in gates:
            gates[lam] = None
            x_orig = np.asarray(x_scaled) / scale
            y = x_orig[:kernel_dim]
            top = float(np.max(np.abs(y)))
            # all-zero kernel coordinates give mu = 0, which certifies nothing
            for bits in (20, 40) if top > 0.0 else ():
                grid = np.rint(y / top * 2.0**bits).astype(np.int64).tolist()
                mu = Polynomial.zero()
                for c, b in zip(grid, g.kernel):
                    mu = mu + b * c
                mu = mu * Fraction(1, 1 << bits)
                cert = certify_regular(mu)
                if cert:
                    gates[lam] = FeasibilityResult(
                        FEASIBLE, tuple(map(float, x_orig)), mu, float(lam), cert
                    )
                    break
        return gates[lam]

    log = []
    for m in margins:
        snapshot = deciding(m)
        result = bound = None
        if snapshot is not None and snapshot[1] < m:
            # the bound proves m unreachable: report the best point so far
            best_x, best_lam, bound = snapshot
        else:
            if snapshot is not None:
                result = exact_gate(*snapshot[:2])
            if result is None:
                path.extend(steps)
                best_x, best_lam, _ = path[-1]
                if best_lam >= m:
                    result = exact_gate(best_x, best_lam)
        if result is None:
            result = FeasibilityResult(
                INDETERMINATE,
                tuple(map(float, best_x / scale)),
                None,
                float(best_lam),
                optimum_bound=bound,
            )
        log.append((m, result.status, result.min_eigenvalue))
        if result.is_feasible:
            return replace(result, margin=m, relaxation_log=tuple(log))
    return replace(result, relaxation_log=tuple(log))


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
