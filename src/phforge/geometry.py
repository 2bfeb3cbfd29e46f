"""Tangent indicatrix, speed, hull test and the sampled framing motion.

The curve parameter lives on the projective line, identified with the unit
circle through ``angle_parameters``; every float evaluation goes through
``polynomial.two_chart_eval``, which switches charts at |t| = 1 so the
closure point t = infinity is an ordinary point.  Exact identities (unit
norm of the tangent indicatrix, rationality of the speed) are verified in
exact arithmetic; the convex-hull test and the sampled framing motion are
the only floating parts.  ``sample_motion`` returns the motion as one
``SampledMotion`` record of arrays (positions, rotations, frame columns),
not as per-sample objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonPythagoreanError
from .polynomial import Polynomial, poly_sqrt, two_chart_eval, two_chart_quotients
from .quaternion import QI, QuaternionPolynomial, rotate_vector
from .ratfunc import RationalFunction
from .synthesis import RationalCurve

# the hull test's bound on the min-norm residual and on the separating gap,
# and the relative stopping tolerance of Wolfe's min-norm iteration
HULL_TOLERANCE = 1e-8
MIN_NORM_TOLERANCE = 1e-12


def parameter_of_angle(theta: float) -> float:
    """Parameter t with circle angle theta; theta = 0 is the closure point."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta == 0.0:
        return math.inf
    half = (math.pi - theta) / 2.0
    c = math.cos(half)
    if c == 0.0:
        return math.inf
    return math.sin(half) / c


def angle_parameters(n: int) -> list[float]:
    """n parameters equidistant in circle angle, starting at t = infinity."""
    return [parameter_of_angle(2.0 * math.pi * j / n) for j in range(n)]


class TangentIndicatrix:
    """Unit tangent direction as a homogeneous rational map to the sphere.

    Stored dehomogenized with the homogeneity degree kept alongside, so
    second-chart evaluation pads the coefficient reversal correctly.  The
    defining identity sum(num_c^2) = den^2 holds exactly.
    """

    def __init__(self, nums, den: Polynomial, homogeneous_degree: int):
        nums = tuple(nums)
        if len(nums) != 3:
            raise ValueError("three components required")
        if any(n.degree > homogeneous_degree for n in nums) or den.degree > homogeneous_degree:
            raise ValueError("homogeneity degree below component degree")
        total = Polynomial.zero()
        for n in nums:
            total = total + n * n
        if total != den * den:
            raise ValueError("components do not satisfy the unit-norm identity")
        self.nums = nums
        self.den = den
        self.homogeneous_degree = homogeneous_degree

    def sample(self, n: int) -> tuple[list[float], np.ndarray]:
        params = angle_parameters(n)
        vals = two_chart_quotients(self.nums, self.den, self.homogeneous_degree, params)
        # row-major: the hull test's matrix products round differently on a transposed view
        return params, np.ascontiguousarray(vals.T)


# (1 + t^2) / 2 = -dt/dtheta, the circle-chart weight of the parameter speed
_HALF_CIRCLE = Polynomial((Fraction(1, 2), 0, Fraction(1, 2)))


def tangent_indicatrix(a: QuaternionPolynomial) -> TangentIndicatrix:
    """Indicatrix A i A* / (A A*) of a rotational generator."""
    if a.is_zero:
        raise ValueError("zero generator")
    nums = rotate_vector(a, QI).vector_polys()
    return TangentIndicatrix(nums, a.norm_poly(), 2 * a.degree)


def speed_function(c: RationalCurve) -> RationalFunction:
    """Circle-chart speed L(t) = |r'(t)| (1 + t^2) / 2, exactly rational.

    With r = (N_x, N_y, N_z) / den, |r'|^2 = S / den^4 for the polynomial
    S = sum (N_i' den - N_i den')^2, so |r'| is rational exactly when S is a
    polynomial square; the whole computation stays over den.  Raises
    NonPythagoreanError when it is not.  The sign is normalized so the
    numerator has positive leading coefficient; for regular curves this is
    the everywhere-positive branch.
    """
    dd = c.den.derivative()
    ssq = Polynomial.zero()
    for n in c.nums:
        h = n.derivative() * c.den - n * dd
        ssq = ssq + h * h
    if ssq.is_zero:
        return RationalFunction.zero()
    root = poly_sqrt(ssq)
    if root is None:
        raise NonPythagoreanError("squared speed is not a rational square")
    speed = RationalFunction(root * _HALF_CIRCLE, c.den * c.den)
    if speed.numerator.leading() < 0:
        speed = -speed
    return speed


@dataclass(frozen=True)
class HullCertificate:
    """Outcome of the origin-in-convex-hull test on indicatrix samples.

    status True carries convex-combination weights with residual
    |sum w_i T_i|; status False carries a separating direction d with
    d . T_i >= gap > 0 for every sample; None is indeterminate and reports
    both best values.
    """

    status: bool | None
    parameters: tuple
    weights: tuple | None
    residual: float
    direction: tuple | None
    gap: float


def _min_norm_point(points: np.ndarray):
    """Wolfe's algorithm: min-norm point of conv(points) with its weights."""
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
    full = np.zeros(npts)
    for a, w in zip(active, weights):
        full[a] += w
    return x, full


def convex_hull_contains_origin(T: TangentIndicatrix, samples: int = 256) -> HullCertificate:
    """Sampling-based origin containment test with explicit certificates.

    Samples the indicatrix uniformly in circle angle over both charts and
    runs a min-norm-point descent; the hull hypothesis is open-condition
    stable, so certificates at finite sampling density are meaningful.  A
    borderline outcome (tiny positive distance without a clean separating
    margin) is reported as indeterminate rather than guessed.
    """
    if samples < 16:
        raise ValueError("at least 16 samples required")
    params, pts = T.sample(samples)
    x, weights = _min_norm_point(pts)
    residual = float(np.linalg.norm(x))
    if residual <= HULL_TOLERANCE:
        return HullCertificate(True, tuple(params), tuple(weights), residual, None, 0.0)
    d = x / residual
    gap = float(np.min(pts @ d))
    if gap > HULL_TOLERANCE:
        return HullCertificate(False, tuple(params), None, residual, tuple(d), gap)
    return HullCertificate(None, tuple(params), tuple(weights), residual, tuple(d), gap)


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
    stable.  Returns arrays q[4, n], frame[column, axis, n], position[n, 3].
    """
    vals = two_chart_eval(a.component_polys(), a.degree, ts)
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
    the double cover along the trajectory.  Writers turn each array into
    Python floats with one ``tolist()``; no per-sample object is built.
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
