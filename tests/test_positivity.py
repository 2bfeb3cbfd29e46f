import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from phforge import (
    EmptyKernelError,
    PoleStructure,
    Polynomial as P,
    QuadraticFactor,
    QuaternionPolynomial as QP,
    SynthesisProblem,
    average_solutions,
    build_gram_slice,
    build_residue_system,
    certify_regular,
    sdp_feasible_point,
    sturm_real_root_count,
    synthesize_curve,
)
from phforge import positivity
from phforge.positivity import _barrier_derivatives, _dual_path, _hankel, _numerator
from phforge.quaternion import QJ, QONE

from helpers import MU0, MU2, antidiagonal_sums, generator_deg3, poles_single

# the three symmetric matrices spanning the residue-compatible Gram slice
# for the degree-3 generator with denominator (t^2+4)^6
SLICE_M0 = ((F(1512, 11), F(0), F(1)), (F(0), F(0), F(0)), (F(1), F(0), F(0)))
SLICE_M1 = ((F(756, 11), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(0)))
SLICE_M2 = ((F(53264, 11), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(1)))
FEASIBLE_X = (F(-1, 100), F(1, 50), F(11, 53264))
INFEASIBLE_RAY_X2 = F(-189, 13316)


def reference_slice():
    space = build_residue_system(
        SynthesisProblem(generator_deg3(), poles_single(0, 4, 6))
    )
    return space, build_gram_slice(space)


def generator_slice(*factors):
    """The reference generator's Gram slice for poles (t^2 + b t + c)^m."""
    poles = PoleStructure(tuple(QuadraticFactor(b, c, m) for b, c, m in factors))
    return build_gram_slice(build_residue_system(SynthesisProblem(generator_deg3(), poles)))


@pytest.fixture(scope="module")
def two_factor_slice():
    return generator_slice((0, 4, 6), (1, 3, 4))


@pytest.fixture(scope="module")
def single_factor_slice():
    return generator_slice((0, 4, 10))


def combine(mats, x):
    n = len(mats[0])
    return [
        [sum(F(xi) * m[i][j] for xi, m in zip(x, mats)) for j in range(n)]
        for i in range(n)
    ]


def eigvals(mat):
    return np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in mat]))


def hankel_constraints(slice_):
    """The matrices H_w(r_j) = A_j + offsets_j * I of the K^perp basis."""
    return slice_.maps + slice_.offsets[:, None, None] * np.eye(slice_.dimension)


def complement_basis(slice_):
    """The K^perp basis r_j, read off the first row and last column of each H_w(r_j)."""
    n, w = slice_.dimension, slice_.weights
    cells = [(0, k) for k in range(n)] + [(k, n - 1) for k in range(1, n)]
    return np.array([[h[i, l] / (w[i] * w[l]) for i, l in cells] for h in hankel_constraints(slice_)])


def scaled_basis(slice_):
    """The kernel basis as the slice's rows hold it, each vector over 2^L.

    L is the bit length of the vector's largest |coefficient|, so that
    coefficient lies in [1/2, 1).
    """
    return [b * F(1, 1 << max(map(abs, b.ints)).bit_length()) for b in slice_.space.basis]


def weighted(mat):
    """The Gram matrix in the weighted basis of a Gram matrix in the monomial basis."""
    n = len(mat)
    w = np.sqrt([float(math.comb(n - 1, i)) for i in range(n)])
    return np.array([[float(v) for v in row] for row in mat]) / np.outer(w, w)


class TestGramSlice:
    def test_reference_slice_matches_known_span(self):
        _, slice_ = reference_slice()
        assert slice_.dimension == 3
        assert slice_.slice_dimension == 3
        # m + 1 - k = 5 - 2 equations cut the slice out of the 6 symmetric 3 x 3
        # matrices, and the three known matrices satisfy all of them
        hankel = hankel_constraints(slice_)
        assert hankel.shape == (3, 3, 3)
        known = [weighted(m) for m in (SLICE_M0, SLICE_M1, SLICE_M2)]
        assert np.linalg.matrix_rank(np.array(known).reshape(3, 9)) == 3
        for mat in known:
            scale = np.abs(mat).max() * np.abs(hankel).max()
            assert np.allclose(np.einsum("aij,ij->a", hankel, mat), 0.0, rtol=0.0, atol=1e-13 * scale)

    def test_slice_polynomials_lie_in_kernel(self):
        space, slice_ = reference_slice()
        assert slice_.space is space
        for b, scaled in zip(space.basis, scaled_basis(slice_)):
            assert space.contains(scaled)
            # an exact power-of-two multiple with largest coefficient in [1/2, 1)
            ratio = scaled.leading() / b.leading()
            assert scaled == b * ratio and ratio > 0
            assert all(v & (v - 1) == 0 for v in (ratio.numerator, ratio.denominator))
            assert F(1, 2) <= max(abs(c) for c in scaled.coeffs) < 1

    def test_one_by_one_slice(self):
        # degree-1 generator, single factor squared: m = 0, kernel = constants
        prob = SynthesisProblem(QP([QJ, QONE]), poles_single(0, 1, 2))
        space = build_residue_system(prob)
        assert prob.m == 0 and space.dimension == 1
        slice_ = build_gram_slice(space)
        assert slice_.dimension == 1 and slice_.slice_dimension == 1
        (b,) = scaled_basis(slice_)
        assert b.degree == 0 and F(1, 2) <= abs(b.leading()) < 1
        # K^perp is empty: the kernel is every numerator
        assert slice_.maps.shape == (0, 1, 1) and slice_.offsets.shape == (0,)
        assert slice_.weights.tolist() == [1.0]
        res = sdp_feasible_point(slice_, 1e-3)
        assert res.is_feasible and res.min_eigenvalue == 1.0 and res.witness_mu.degree == 0

    @pytest.mark.parametrize("slice_name", ["two_factor_slice", "single_factor_slice"])
    def test_antidiagonal_sums_are_kernel_coordinates(self, slice_name, request):
        slice_ = request.getfixturevalue(slice_name)
        n, kernel_dim = slice_.dimension, slice_.space.dimension
        assert slice_.slice_dimension == kernel_dim + n * (n + 1) // 2 - (2 * n - 1)
        # the maps are traceless, symmetric and orthonormal; adding back the
        # offsets gives weighted Hankel matrices
        maps = slice_.maps
        assert maps.shape == (2 * n - 1 - kernel_dim, n, n)
        assert np.allclose(np.trace(maps, axis1=1, axis2=2), 0.0, rtol=0.0, atol=1e-15)
        assert np.array_equal(maps, maps.transpose(0, 2, 1))
        flat = maps.reshape(len(maps), -1)
        assert np.allclose(flat @ flat.T + np.outer(slice_.offsets, slice_.offsets) * n, np.eye(len(maps)), atol=1e-12)
        assert np.allclose(hankel_constraints(slice_), _hankel(slice_.weights, complement_basis(slice_)), atol=1e-15)
        # the kernel rows are the scaled basis's float coefficients, bit for bit,
        # and no array can be written
        rows = slice_.kernel_rows
        assert rows.shape == (kernel_dim, 2 * n - 1)
        for row, b in zip(rows, scaled_basis(slice_)):
            assert row.tolist() == b.float_coeffs() + [0.0] * (2 * n - 2 - b.degree)
        assert not any(a.flags.writeable for a in (rows, slice_.weights, maps, slice_.offsets))
        # the gated witness's kernel coordinates give its numerator
        res = sdp_feasible_point(slice_, LADDER)
        mu = np.zeros(2 * n - 1)
        mu[: res.witness_mu.degree + 1] = res.witness_mu.float_coeffs()
        y = np.asarray(res.witness_x)
        assert np.allclose(mu, y @ rows / np.abs(y).max(), rtol=0.0, atol=2.0**-19)

    @pytest.mark.parametrize("slice_name", ["two_factor_slice", "single_factor_slice"])
    def test_complement_is_orthogonal_to_kernel(self, slice_name, request):
        slice_ = request.getfixturevalue(slice_name)
        r = complement_basis(slice_)
        for b in scaled_basis(slice_):
            exact = np.zeros(r.shape[1])
            exact[: b.degree + 1] = [float(c) for c in b.coeffs]
            # relative to the sizes of the summands
            assert np.all(np.abs(r @ exact) <= 1e-13 * np.abs(r).max(axis=1) * np.abs(exact).sum())

    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_hankel_adjoint_identity(self, n):
        # <H_w(h), G>_F = h . A_w(G) on random inputs, weighted or not
        rng = np.random.default_rng(n)
        for weights in (np.ones(n), rng.uniform(0.5, 3.0, n)):
            for _ in range(3):
                h = rng.standard_normal(2 * n - 1)
                gram = rng.standard_normal((n, n))
                lhs = float(np.sum(_hankel(weights, h) * gram))
                rhs = float(h @ _numerator(weights, gram))
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_empty_kernel_is_infeasible_by_construction(self):
        space = build_residue_system(
            SynthesisProblem(generator_deg3(), poles_single(0, 4, 4))
        )
        with pytest.raises(EmptyKernelError):
            build_gram_slice(space)


class TestFeasibility:
    def test_known_point_is_feasible(self):
        mat = combine((SLICE_M0, SLICE_M1, SLICE_M2), FEASIBLE_X)
        assert eigvals(mat)[0] > 0
        assert antidiagonal_sums(mat) == MU0
        assert certify_regular(MU0)

    def test_known_ray_is_infeasible(self):
        for chi in (-1.0, -0.1, 0.1, 1.0):
            x = F(chi).limit_denominator(10)
            mat = combine((SLICE_M0, SLICE_M1, SLICE_M2), (x, -2 * x, INFEASIBLE_RAY_X2))
            assert eigvals(mat)[0] <= 0

    def test_cusped_numerator_ray(self):
        # the Gram matrices representing mu2 form the line (chi, 1-2chi, x2);
        # the bottom-right entry is negative, so none of them is feasible
        for chi in (F(-1), F(0), F(1, 2), F(2)):
            mat = combine(
                (SLICE_M0, SLICE_M1, SLICE_M2), (chi, 1 - 2 * chi, INFEASIBLE_RAY_X2)
            )
            assert antidiagonal_sums(mat) == MU2
            assert eigvals(mat)[0] <= 0

    def test_solver_finds_certified_point(self):
        _, slice_ = reference_slice()
        res = sdp_feasible_point(slice_, margin=1e-4)
        assert res.is_feasible
        assert res.min_eigenvalue >= 1e-4
        assert certify_regular(res.witness_mu)
        assert sturm_real_root_count(res.witness_mu) == 0

    def test_margin_beyond_optimum_is_indeterminate(self):
        # the trace-normalized optimum for this slice is about 4.0e-4: the best
        # point lies below it and the dual bound that ruled 1e-3 out above it
        _, slice_ = reference_slice()
        res = sdp_feasible_point(slice_, margin=1e-3)
        assert res.status == "indeterminate"
        assert res.min_eigenvalue <= 4.0e-4 <= res.optimum_bound < 1e-3

    def test_all_cusped_family_is_indeterminate_and_grid_confirms(self):
        # same generator, denominator (t^2-2t+5)^6: solutions exist but all
        # have real roots
        prob = SynthesisProblem(generator_deg3(), poles_single(-2, 5, 6))
        space = build_residue_system(prob)
        assert space.dimension == 2
        slice_ = build_gram_slice(space)
        res = sdp_feasible_point(slice_, margin=1e-4)
        assert res.status == "indeterminate"
        for k in range(72):
            phi = math.pi * k / 72
            mu = space.combination(
                (
                    F(round(math.cos(phi) * 10**6), 10**6),
                    F(round(math.sin(phi) * 10**6), 10**6),
                )
            )
            if mu.is_zero:
                continue
            assert not certify_regular(mu)
            assert not certify_regular(mu * -1)

    def test_thin_feasible_case(self):
        # denominator (t^2-2t+2)^9: feasible, with tiny eigenvalue margin
        prob = SynthesisProblem(generator_deg3(), poles_single(-2, 2, 9))
        space = build_residue_system(prob)
        slice_ = build_gram_slice(space)
        res = sdp_feasible_point(slice_, margin=1e-8)
        assert res.is_feasible
        assert certify_regular(res.witness_mu)
        curve = synthesize_curve(prob, res.witness_mu)
        assert curve.den.degree <= 16


LADDER = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def einsum_barrier_derivatives(maps, z):
    """Reference derivatives of -log det Z along the maps: each trace summed term by term."""
    za = np.einsum("ij,ajk->aik", np.linalg.inv(z), maps)
    return -np.einsum("aii->a", za), np.einsum("aij,bji->ab", za, za)


class TestNewtonSystem:
    @pytest.mark.parametrize("d, n", [(1, 1), (3, 3), (12, 5), (25, 7), (57, 11), (60, 11)])
    def test_matches_einsum_reference(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        for _ in range(3):
            raw = rng.standard_normal((d, n, n))
            maps = (raw + raw.transpose(0, 2, 1)) / 2
            a = rng.standard_normal((n, n))
            z = a @ a.T + 0.1 * np.eye(n)  # a positive definite dual point
            inv = np.linalg.inv(np.linalg.cholesky(z))
            grad, hess = _barrier_derivatives(maps.reshape(d, n * n), inv)
            ref_grad, ref_hess = einsum_barrier_derivatives(maps, z)
            # against the largest entry: summation order moves single entries
            # that cancel, not the system
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * np.abs(ref_grad).max())
            np.testing.assert_allclose(hess, ref_hess, rtol=0, atol=1e-12 * np.abs(ref_hess).max())


def full_path(slice_):
    """Every snapshot of the unbiased dual path, run to its end."""
    n = slice_.dimension
    return list(_dual_path(slice_, np.zeros((n, n)), True))


def without_bounds(path):
    """The dual path with every bound replaced by inf: nothing is ruled out."""

    def steps(*args):
        for best_gram, best_lam, _ in path(*args):
            yield best_gram, best_lam, math.inf

    return steps


# the module's slices and the benchmark's synth pole structures, on the
# reference generator, plus (0,4)^5, whose ladder is ruled out entirely
POLE_CASES = {
    "(0,4)^5": ((0, 4, 5),),
    "(0,4)^6": ((0, 4, 6),),
    "(0,4)^8": ((0, 4, 8),),
    "(0,4)^10": ((0, 4, 10),),
    "(0,4)^6.(1,3)^4": ((0, 4, 6), (1, 3, 4)),
    "(0,4)^8.(1,3)^6": ((0, 4, 8), (1, 3, 6)),
    "(-2,5)^6": ((-2, 5, 6),),
    "(-2,2)^9": ((-2, 2, 9),),
}


def one_margin_at_a_time(slice_, margins, bias=None):
    """Reference ladder: a separate single-margin call per margin."""
    log = []
    for m in margins:
        res = sdp_feasible_point(slice_, m, objective_bias=bias)
        log.append((m, res.status, res.min_eigenvalue))
        if res.is_feasible:
            break
    return res, tuple(log)


class TestRelaxationLadder:
    @pytest.mark.parametrize("slice_name", ["two_factor_slice", "single_factor_slice"])
    def test_one_call_matches_separate_calls(self, slice_name, request):
        slice_ = request.getfixturevalue(slice_name)
        ladder = sdp_feasible_point(slice_, LADDER)
        single, log = one_margin_at_a_time(slice_, LADDER)
        assert ladder.relaxation_log == log
        assert ladder.status == single.status
        assert ladder.witness_x == single.witness_x
        assert ladder.witness_mu == single.witness_mu
        assert ladder.margin == (log[-1][0] if single.is_feasible else None)

    def test_two_factor_slice_certifies_on_grid(self, two_factor_slice):
        res = sdp_feasible_point(two_factor_slice, LADDER)
        assert res.status == "feasible"
        assert certify_regular(res.witness_mu)
        # mu is the gated point's kernel coordinates, over their largest
        # absolute value, rounded on the grid 2^-20 or else 2^-40
        assert len(res.witness_x) == two_factor_slice.space.dimension
        y = np.asarray(res.witness_x)
        on_grid = []
        for bits in (20, 40):
            grid = np.rint(y / np.abs(y).max() * 2.0**bits).astype(np.int64).tolist()
            mu = P([0])
            for c, b in zip(grid, scaled_basis(two_factor_slice)):
                mu = mu + b * F(c, 2**bits)
            on_grid.append(mu)
        assert res.witness_mu in on_grid

    def test_gate_at_first_step_reaching_margin(self, single_factor_slice):
        # 1e-3 lies above the optimum, so the duality gap rules it out part of
        # the way along the path; 1e-6 then certifies at the first outer step
        # whose best eigenvalue reaches it, before the end of the path
        res = sdp_feasible_point(single_factor_slice, (1e-3, 1e-6))
        (_, status_out, _), (_, status, lam) = res.relaxation_log
        assert status_out == "indeterminate"
        assert status == "feasible"
        assert 1e-6 <= lam < full_path(single_factor_slice)[-1][1]

    def test_margin_above_optimum_is_ruled_out(self, single_factor_slice):
        path = full_path(single_factor_slice)
        res = sdp_feasible_point(single_factor_slice, 1e-3)
        assert res.status == "indeterminate"
        # the bound holds for the whole path, and the path stopped before its end
        assert path[-1][1] <= res.optimum_bound < 1e-3
        assert res.min_eigenvalue < path[-1][1]
        bias = [1e-9] * single_factor_slice.space.dimension
        assert sdp_feasible_point(single_factor_slice, 1e-3, objective_bias=bias).optimum_bound is None

    def test_bound_holds_without_centring(self, single_factor_slice, monkeypatch):
        # every dual iterate that passed Cholesky bounds the optimum, centred or
        # not; one Newton step per outer step never centres, and the path ends
        # after that outer step
        best_lam = full_path(single_factor_slice)[-1][1]
        monkeypatch.setattr(positivity, "MAX_NEWTON", 1)
        short = full_path(single_factor_slice)
        assert len(short) == 2
        assert all(best_lam <= bound < math.inf for _, _, bound in short)
        res = sdp_feasible_point(single_factor_slice, 1e-3)
        assert res.optimum_bound is None or res.optimum_bound >= best_lam

    @pytest.mark.parametrize("poles", POLE_CASES.values(), ids=POLE_CASES)
    def test_early_exit_matches_full_path(self, poles, monkeypatch):
        slice_ = generator_slice(*poles)
        path = full_path(slice_)
        best_lam = path[-1][1]
        res = sdp_feasible_point(slice_, LADDER)
        # an indeterminate margin above its logged eigenvalue was ruled out or
        # never reached, not gated: the full path never reaches it either
        for m, status, lam in res.relaxation_log:
            if status == "indeterminate" and lam < m:
                assert m > best_lam
        if res.optimum_bound is not None:
            assert best_lam <= res.optimum_bound < res.relaxation_log[-1][0]
        monkeypatch.setattr(positivity, "_dual_path", without_bounds(_dual_path))
        full = sdp_feasible_point(slice_, LADDER)
        assert (res.status, res.margin, res.witness_mu) == (full.status, full.margin, full.witness_mu)
        assert [e[:2] for e in res.relaxation_log] == [e[:2] for e in full.relaxation_log]
        assert full.optimum_bound is None

    def test_biased_call_matches_separate_calls(self, single_factor_slice):
        base = sdp_feasible_point(single_factor_slice, LADDER)
        assert base.is_feasible
        rng = random.Random(3)
        bias = [rng.gauss(0.0, 1.0) * 0.5 * base.margin / (abs(v) + 1.0) for v in base.witness_x]
        ladder = sdp_feasible_point(single_factor_slice, LADDER, objective_bias=bias)
        single, log = one_margin_at_a_time(single_factor_slice, LADDER, bias)
        assert ladder.relaxation_log == log
        assert ladder.witness_x == single.witness_x
        assert ladder.witness_mu == single.witness_mu

    def test_single_margin_is_a_one_step_ladder(self):
        _, slice_ = reference_slice()
        res = sdp_feasible_point(slice_, 1e-4)
        assert res.margin == 1e-4
        assert res.relaxation_log == ((1e-4, "feasible", res.min_eigenvalue),)

    def test_non_finite_or_non_positive_margins_rejected(self):
        _, slice_ = reference_slice()
        for margin in (math.inf, math.nan, 0.0, -1e-3, (1e-3, math.inf), (1e-3, math.nan), ()):
            with pytest.raises(ValueError):
                sdp_feasible_point(slice_, margin)

    def test_bias_needs_one_entry_per_coordinate(self):
        # one entry per kernel coordinate
        _, slice_ = reference_slice()
        assert slice_.space.dimension == 2
        for bias in ([1e-6], [1e-6] * 3, [1e-6] * 4):
            with pytest.raises(ValueError, match="objective_bias"):
                sdp_feasible_point(slice_, 1e-4, objective_bias=bias)
        assert sdp_feasible_point(slice_, 1e-4, objective_bias=[1e-6] * 2).is_feasible

    def test_bias_without_a_start_is_indeterminate(self):
        # a bias so large that I/n + shift is indefinite leaves the path no start
        _, slice_ = reference_slice()
        res = sdp_feasible_point(slice_, 1e-4, objective_bias=[1e3, -1e3])
        assert res.status == "indeterminate" and res.witness_x is None
        assert res.min_eigenvalue == -math.inf and res.optimum_bound is None


class TestDualPath:
    @pytest.mark.parametrize("poles", POLE_CASES.values(), ids=POLE_CASES)
    def test_snapshots_lie_in_slice_and_bound_the_optimum(self, poles):
        slice_ = generator_slice(*poles)
        path = full_path(slice_)
        best_lam = path[-1][1]
        hankel = hankel_constraints(slice_)
        for gram, lam, bound in path:
            # weak duality: the nu of every dual iterate lies above every primal lambda
            assert bound >= best_lam >= lam
            assert lam == np.linalg.eigvalsh(gram)[0]
            # trace one, and the weighted antidiagonal sums lie in the kernel
            assert abs(np.trace(gram) - 1.0) <= 1e-12
            sums = _numerator(slice_.weights, gram)
            assert np.abs(np.einsum("aij,ij->a", hankel, gram)).max() <= 1e-12 * np.abs(sums).max()
            # and so are a combination of the kernel basis, up to the rounding
            # of that combination's terms
            rows = slice_.kernel_rows
            y = np.linalg.lstsq(rows.T, sums, rcond=None)[0]
            assert np.abs(y @ rows - sums).max() <= 1e-12 * (np.abs(y) @ np.abs(rows)).max()


# ROADMAP table rows that exited 3 before the dual path: (0,4)^6 divides every
# alpha, so the (0,4)^6 numerator MU0 lifts to a certificate for each of them
TABLE_ROWS = {
    "(0,4)^16": ((0, 4, 16),),
    "(0,4)^18": ((0, 4, 18),),
    "(0,4)^10.(1,3)^10": ((0, 4, 10), (1, 3, 10)),
    "(0,4)^8.(1,3)^6.(1,2)^4": ((0, 4, 8), (1, 3, 6), (1, 2, 4)),
    "(0,4)^10.(1,3)^8.(1,2)^6": ((0, 4, 10), (1, 3, 8), (1, 2, 6)),
    "(0,4)^10.(1,3)^10.(1,2)^10": ((0, 4, 10), (1, 3, 10), (1, 2, 10)),
}


class TestTableRows:
    @pytest.mark.parametrize("poles", TABLE_ROWS.values(), ids=TABLE_ROWS)
    def test_lifted_certificate_and_no_negative_bound(self, poles):
        factors = tuple(QuadraticFactor(b, c, m) for b, c, m in poles)
        problem = SynthesisProblem(generator_deg3(), PoleStructure(factors))
        space = build_residue_system(problem)
        # alpha / (t^2+4)^6 is a product of pole quadratics, each positive on
        # the real line, so the lift is strictly positive where MU0 is
        rest = [QuadraticFactor(0, 4, factors[0].multiplicity - 6), *factors[1:]]
        quotient = P([1])
        for f in rest:
            assert f.discriminant < 0
            quotient = quotient * f.poly() ** f.multiplicity
        assert quotient * P([4, 0, 1]) ** 6 == problem.alpha
        assert certify_regular(MU0)
        lift = MU0 * quotient
        assert space.contains(lift)
        # a certificate exists, so the optimum is positive and no bound may say otherwise
        res = sdp_feasible_point(build_gram_slice(space), LADDER)
        assert res.optimum_bound is None or res.optimum_bound > 0


class TestCertificates:
    def test_cusped_numerator_rejected(self):
        assert not certify_regular(P([7036, 0, -89]))

    def test_obviously_positive(self):
        cert = certify_regular(P([1, 0, 0, 0, 1]))
        assert cert and cert.real_root_count == 0

    def test_feasible_numerator_certified(self):
        cert = certify_regular(MU0)
        assert cert.regular and cert.leading_coefficient == F(11, 53264)

    def test_negative_leading_rejected(self):
        assert not certify_regular(P([-1, 0, -1]))

    def test_zero_rejected(self):
        assert not certify_regular(P([0]))


class TestAverageSolutions:
    def test_single_curve_identity(self):
        prob = SynthesisProblem(generator_deg3(), poles_single(0, 4, 6))
        out = average_solutions([MU0], [F(1)])
        assert out == MU0
        assert synthesize_curve(prob, out) == synthesize_curve(prob, MU0)
        assert average_solutions([MU0], [F(5, 2)]) == MU0 * F(5, 2)

    def test_small_perturbation_stays_regular(self):
        # bisect for the largest eps with mu0 + eps*mu2 root-free, then take half
        lo, hi = F(0), F(1)
        for _ in range(40):
            mid = (lo + hi) / 2
            if sturm_real_root_count(MU0 + MU2 * mid) == 0:
                lo = mid
            else:
                hi = mid
        eps = lo / 2
        assert eps > 0
        assert certify_regular(average_solutions([MU0, MU2], [F(1), eps]))

    def test_equal_weights_of_regular_curves_regular(self):
        other = MU0 + MU2 * F(1, 100)
        assert certify_regular(other)
        out = average_solutions([MU0, other], [F(1), F(1)])
        assert certify_regular(out)
        assert out == MU0 * 2 + MU2 * F(1, 100)

    def test_one_weight_per_numerator_required(self):
        for mus, weights in (([MU0, MU2], [F(1)]), ([MU0], [F(1), F(1)]), ([], [])):
            with pytest.raises(ValueError):
                average_solutions(mus, weights)

    def test_nonpositive_weights_rejected(self):
        for w in (F(0), F(-1)):
            with pytest.raises(ValueError):
                average_solutions([MU0], [w])
