"""Tangent indicatrix, speed, hull test and the sampled framing motion.

The curve parameter lives on the projective line, identified with the unit
circle through ``angle_parameters``; every float evaluation goes through
``polynomial.two_chart_eval``, which switches charts at |t| = 1 so the
closure point t = infinity is an ordinary point.  The tangent indicatrix is
a ``RationalCurve`` too, closed and on the unit sphere, and is sampled as
any curve is.  Exact identities (unit norm of the tangent indicatrix,
rationality of the speed) are verified in exact arithmetic; the convex-hull
test and the sampled framing motion are the only floating parts.
``sample_motion`` returns the motion as one ``SampledMotion`` record of
arrays (positions, rotations, frame columns), not as per-sample objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonPythagoreanError
from .polynomial import Polynomial, poly_sqrt, two_chart_eval
from .quaternion import QI, QuaternionPolynomial, rotate_vector
from .ratfunc import RationalFunction
from .synthesis import RationalCurve

# the hull test's bound on the min-norm residual and on the separating gap,
# and the relative stopping tolerance of Wolfe's min-norm iteration
HULL_TOLERANCE = 1e-8
MIN_NORM_TOLERANCE = 1e-12


def angle_parameters(n: int) -> list[float]:
    """n parameters equidistant in circle angle, starting at t = infinity.

    Sample j has angle theta = 2 pi j / n and parameter tan((pi - theta) / 2),
    infinite at theta = 0 (the closure point).  The angles, ``fmod`` and
    half-angles are exact IEEE operations in numpy; sine and cosine go
    through ``math``, whose last bit numpy's may round differently.
    """
    theta = np.fmod(2.0 * math.pi * np.arange(n, dtype=float) / n, 2.0 * math.pi)
    half = ((math.pi - theta) / 2.0).tolist()
    s = np.fromiter(map(math.sin, half), float, n)
    c = np.fromiter(map(math.cos, half), float, n)
    t = np.divide(s, c, out=np.full(n, math.inf), where=theta != 0.0)
    return t.tolist()


# (1 + t^2) / 2 = -dt/dtheta, the circle-chart weight of the parameter speed
_HALF_CIRCLE = Polynomial((Fraction(1, 2), 0, Fraction(1, 2)))


def tangent_indicatrix(a: QuaternionPolynomial) -> RationalCurve:
    """Indicatrix A i A* / (A A*) of a rotational generator: a curve on the unit sphere, no mu.

    It is closed: no numerator outgrows deg A A* = 2 deg A, and an i-reduced
    A has no real root.  sum(num_c^2) = den^2 is checked exactly.
    """
    if a.is_zero:
        raise ValueError("zero generator")
    nums, den = rotate_vector(a, QI).vector_polys(), a.norm_poly()
    if sum((n * n for n in nums), Polynomial.zero()) != den * den:
        raise ValueError("components do not satisfy the unit-norm identity")
    return RationalCurve(nums, den)


def speed_function(c: RationalCurve) -> RationalFunction:
    """Circle-chart speed L(t) = |r'(t)| (1 + t^2) / 2, exactly rational.

    With r = (N_x, N_y, N_z) / den, |r'|^2 = S / den^4 for the polynomial
    S = sum (N_i' den - N_i den')^2, so |r'| is rational exactly when S is a
    polynomial square; the whole computation stays over den.  Raises
    NonPythagoreanError when it is not.  The numerator's leading coefficient
    is positive without a sign flip: ``poly_sqrt`` returns the root with
    positive leading coefficient, and den is monic.  For regular curves this
    is the everywhere-positive branch.
    """
    dd = c.den.derivative()
    ssq = Polynomial.zero()
    for n in c.nums:
        h = n.derivative() * c.den - n * dd
        ssq = ssq + h * h
    root = poly_sqrt(ssq)
    if root is None:
        raise NonPythagoreanError("squared speed is not a rational square")
    return RationalFunction(root * _HALF_CIRCLE, c.den * c.den)


def _mu_speed(a: QuaternionPolynomial, alpha: Polynomial, mu: Polynomial) -> RationalFunction:
    """Circle-chart speed mu |A|^2 (1 + t^2) / (2 alpha) of the curve with r' = (mu/alpha) A i A*.

    |A i A*| = |A|^2, so where mu > 0 the speed |r'| = mu |A|^2 / alpha
    needs no square root; the reduced form then equals ``speed_function``'s.
    """
    return RationalFunction(mu * a.norm_poly() * _HALF_CIRCLE, alpha)


@dataclass(frozen=True)
class HullCertificate:
    """Outcome of the origin-in-convex-hull test on indicatrix samples.

    status True carries convex-combination weights with residual
    |sum w_i T_i|; status False carries a separating direction d with
    d . T_i >= gap > 0 for every sample; None is indeterminate and reports
    both best values.  ``support`` holds the (parameter, weight) pairs of
    the combination with weight > 1e-12, in sample order (None for status
    False); every other sample has weight zero.
    """

    status: bool | None
    support: tuple | None
    residual: float
    direction: tuple | None
    gap: float


def _min_norm_point(points: np.ndarray):
    """Wolfe's algorithm: min-norm point of conv(points), its active set and weights."""
    npts = len(points)
    start = int(np.argmin(np.einsum("ij,ij->i", points, points)))
    active = [start]
    weights = np.array([1.0])
    x = points[start].copy()
    for _ in range(8 * npts + 64):
        dots = points @ x
        j = int(np.argmin(dots))
        if dots[j] > float(x @ x) - MIN_NORM_TOLERANCE * (1.0 + float(x @ x)):
            break
        if j not in active:
            active.append(j)
            weights = np.append(weights, 0.0)
        for _ in range(len(points) + 8):
            sub = points[active]
            k = len(active)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = sub @ sub.T
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            v = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if np.all(v > 1e-14):
                weights = v
                break
            shrink = []
            for i in range(k):
                if weights[i] - v[i] > 1e-18:
                    shrink.append(weights[i] / (weights[i] - v[i]))
                else:
                    shrink.append(np.inf)
            theta = min(1.0, min(shrink))
            weights = (1 - theta) * weights + theta * v
            keep = weights > 1e-14
            active = [a for a, k_ in zip(active, keep) if k_]
            weights = weights[keep]
            weights = weights / weights.sum()
        x = weights @ points[active]
    return x, active, weights


def convex_hull_contains_origin(T: RationalCurve, samples: int = 256) -> HullCertificate:
    """Sampling-based origin containment test with explicit certificates.

    Samples the indicatrix uniformly in circle angle over both charts and
    runs a min-norm-point descent; the hull hypothesis is open-condition
    stable, so certificates at finite sampling density are meaningful.  A
    borderline outcome (tiny positive distance without a clean separating
    margin) is reported as indeterminate rather than guessed.
    """
    if samples < 16:
        raise ValueError("at least 16 samples required")
    params = angle_parameters(samples)
    # row-major: the hull test's matrix products round differently on a transposed view
    pts = np.ascontiguousarray(T.eval_floats(params))
    x, active, weights = _min_norm_point(pts)
    support = tuple((params[i], w) for i, w in sorted(zip(active, weights)) if w > 1e-12)
    residual = float(np.linalg.norm(x))
    if residual <= HULL_TOLERANCE:
        return HullCertificate(True, support, residual, None, 0.0)
    d = x / residual
    gap = float(np.min(pts @ d))
    if gap > HULL_TOLERANCE:
        return HullCertificate(False, None, residual, tuple(d), gap)
    return HullCertificate(None, support, residual, tuple(d), gap)


@dataclass(frozen=True, eq=False)
class SampledMotion:
    """The framing motion at ``parameters``, as arrays with one row per sample.

    ``positions`` is n x 3 and ``rotations`` n x 4 (w, x, y, z), sign-aligned
    along the trajectory.  ``frames`` is n x 3 x 3 with ``frames[j, k]`` the
    k-th frame column at sample j: the rotated image of the k-th basis
    vector.  Column 0 (tangent) is parallel to the curve derivative, columns
    1 and 2 (binormal-like, complement) span the normal plane.
    """

    parameters: list[float]
    positions: np.ndarray
    rotations: np.ndarray
    frames: np.ndarray


def _motion(a: QuaternionPolynomial, c: RationalCurve, ts: list[float]):
    """Unit generator values, frame columns and positions at the parameters ts.

    A is evaluated homogeneously, a nonzero multiple of A(t) in the second
    chart; all frame formulas are scale invariant, so this is equivalent and
    stable.  Each column of values is first scaled by the power of two that
    brings its largest |component| into [1/2, 1), so the squared norm cannot
    overflow; a power-of-two scale is exact, so q is the same float vector
    wherever the unscaled norm stayed finite.  Returns arrays q[4, n],
    frame[column, axis, n], position[n, 3].
    """
    vals = two_chart_eval(a.component_polys(), a.degree, ts)
    vals = np.ldexp(vals, -np.frexp(np.abs(vals).max(axis=0))[1])
    w, x, y, z = vals
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    if not norm.all():
        raise ZeroDivisionError(f"generator vanishes at t = {ts[int(np.argmin(norm))]}")
    q = vals / norm
    w, x, y, z = q
    frame = []
    for vx, vy, vz in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        # q v q* for unit q, expanded
        tx = 2.0 * (y * vz - z * vy)
        ty = 2.0 * (z * vx - x * vz)
        tz = 2.0 * (x * vy - y * vx)
        frame.append(
            (
                vx + w * tx + (y * tz - z * ty),
                vy + w * ty + (z * tx - x * tz),
                vz + w * tz + (x * ty - y * tx),
            )
        )
    return q, np.array(frame), c.eval_floats(ts)


def sample_motion(a: QuaternionPolynomial, c: RationalCurve, n: int) -> SampledMotion:
    """The motion at n parameters equidistant in circle angle, as arrays.

    The first sample sits at the closure point t = infinity; consecutive
    rotation quaternions are sign-aligned (hemisphere-aligned) to resolve
    the double cover along the trajectory.  The CLI writers take each
    array's columns with one ``tolist()`` and write every float once, by
    filling a row template (``cli._rows``); no per-sample object is built.
    """
    if n < 2:
        raise ValueError("at least 2 poses required")
    ts = angle_parameters(n)
    q, frame, positions = _motion(a, c, ts)
    prod = q[:, :-1] * q[:, 1:]
    sign = 1.0
    signs = [sign]
    for dot in (prod[0] + prod[1] + prod[2] + prod[3]).tolist():
        # flip when the rotation points away from the aligned previous one
        sign = -1.0 if sign * dot < 0.0 else 1.0
        signs.append(sign)
    return SampledMotion(ts, positions, (q * np.array(signs)).T, frame.transpose(2, 0, 1))
