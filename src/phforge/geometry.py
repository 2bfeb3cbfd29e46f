"""Tangent indicatrix, speed, hull test and the sampled framing motion.

The curve parameter lives on the projective line, identified with the unit
circle through ``angle_parameters``; every float evaluation goes through
``polynomial.two_chart_eval``, which switches charts at |t| = 1 so the
closure point t = infinity is an ordinary point.  The tangent indicatrix is
a ``RationalCurve`` too, closed and on the unit sphere, and is sampled as
any curve is.  Exact identities are verified, and the hull test decided,
in exact arithmetic; the sampled framing motion is the only floating part.
``sample_motion`` returns the motion as one ``SampledMotion`` record of
arrays (positions, rotations, frame columns), not as per-sample objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import NonPythagoreanError
from .polynomial import Polynomial, _canonical, _primitive, poly_sqrt, two_chart_eval
from .positivity import build_gram_slice, certify_empty, relaxation_margins, sdp_feasible_point
from .quaternion import QI, QuaternionPolynomial, rotate_vector
from .ratfunc import RationalFunction
from .synthesis import RationalCurve, SolutionSpace


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
    """Exact outcome of the origin-in-convex-hull test of an indicatrix T = w / |A|^2, w = A i A*.

    status False carries ``direction``, a primitive integer d with d . w > 0
    on the projective line, so d . x = 0 separates the origin from T; True
    carries ``moment``, a primitive integer h proving that no nonzero d . w
    is >= 0 (``positivity.certify_empty``); None (indeterminate) neither.
    """

    status: bool | None
    direction: tuple | None = None
    moment: tuple | None = None


def indicatrix_space(T: RationalCurve) -> SolutionSpace:
    """The span of T's numerators, of degree deg T.den, with the integer rows of its complement.

    A kernel vector of the columns ends at a dependent numerator; the rest, primitive, are the basis.
    """
    m = T.den.degree
    columns = [[*n.ints] + [0] * (m - n.degree) for n in T.nums]
    dependent = {max(c for c, x in enumerate(v) if x) for v in linalg.nullspace(list(zip(*columns)), 3)}
    basis = [_primitive(v) for c, v in enumerate(columns) if c not in dependent]
    return SolutionSpace(m, linalg.nullspace(basis, m + 1), [_canonical(v, 1) for v in basis])


def convex_hull_contains_origin(T: RationalCurve) -> HullCertificate:
    """Whether the origin lies in the convex hull of the indicatrix T, decided exactly.

    It lies outside exactly when some d . w > 0 on the projective line.  One
    ``sdp_feasible_point`` search of the Gram slice of ``indicatrix_space``
    on the default ladder gates such a d . w, of degree deg T.den, and d is
    solved for exactly, or rules every margin out at a dual point whose
    moment starts ``certify_empty``; else (optimum 0, say) it is indeterminate.
    """
    space = indicatrix_space(T)
    result = sdp_feasible_point(build_gram_slice(space), relaxation_margins())
    if result.is_feasible:
        # sum_c v_c T.nums[c].ints + v_mu mu.ints = 0, with nums[c].ints = den_c T.nums[c]
        columns = [[*p.ints] + [0] * (space.degree - p.degree) for p in (*T.nums, result.witness_mu)]
        *v, v_mu = linalg.nullspace(list(zip(*columns)), 4)[-1]
        direction = _primitive([-v_mu * x * n.den for x, n in zip(v, T.nums)])
        return HullCertificate(False, direction=tuple(direction))
    if result.moment is not None and (moment := certify_empty(space, result.moment)):
        return HullCertificate(True, moment=moment)
    return HullCertificate(None)


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
