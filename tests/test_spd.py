import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dtrtri

from mahabench.errors import DimensionMismatch, NotPositiveDefinite, NotRepairable
from mahabench.rng import Rng
from mahabench.spd import (
    DEFAULT_JITTER_SCHEDULE,
    cholesky,
    ensure_pd,
    factor_stack,
    logdet,
    quad_form,
    solve_spd,
)


def brute_force_det(a: np.ndarray) -> float:
    """Cofactor expansion along the first row; independent of any solver."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * brute_force_det(minor)
    return total


class TestSymmetricInput:
    def test_symmetrizes_on_entry(self):
        a = np.array([[2.0, 2.0], [0.0, 2.0]])
        repaired, f, _ = ensure_pd(a)
        assert np.array_equal(repaired, repaired.T)
        assert repaired[0, 1] == 1.0
        assert np.allclose(cholesky(a) @ cholesky(a).T, [[2.0, 1.0], [1.0, 2.0]], rtol=1e-12)
        assert np.array_equal(f, cholesky(a))

    def test_rejects_non_square(self):
        for bad in (np.zeros((2, 3)), np.zeros(2), np.zeros((0, 0))):
            with pytest.raises(DimensionMismatch):
                cholesky(bad)
            with pytest.raises(DimensionMismatch):
                ensure_pd(bad)
            with pytest.raises(DimensionMismatch):
                factor_stack(bad[None])


class TestCholesky:
    def test_diagonal_case(self):
        f = cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(f, np.diag([2.0, 3.0]))

    def test_identity_case(self):
        f = cholesky(np.eye(3))
        assert np.allclose(f, np.eye(3))

    def test_two_by_two_hand_recurrence(self):
        # hand Cholesky of [[2,1],[1,2]]: l11=sqrt(2), l21=1/sqrt(2),
        # l22=sqrt(2 - 1/2); frozen to 8 decimals and reconstructed
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        f = cholesky(a)
        expected = np.array([[1.41421356, 0.0], [0.70710678, 1.22474487]])
        assert np.allclose(f, expected, atol=1e-8)
        assert np.allclose(f @ f.T, a, rtol=1e-12)

    def test_failure_carries_pivot(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert info.value.pivot == 1

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.zeros((2, 2)))
        assert info.value.pivot == 0


class TestSolve:
    def test_identity_factor(self):
        f = cholesky(np.eye(2))
        assert np.allclose(solve_spd(f, [3.0, -1.0]), [3.0, -1.0])

    def test_diagonal_factor(self):
        f = cholesky(np.diag([4.0, 1.0]))
        assert np.allclose(solve_spd(f, [8.0, 5.0]), [2.0, 5.0])

    def test_two_by_two_inverse_by_hand(self):
        # inverse of [[2,1],[1,2]] is [[2,-1],[-1,2]]/3
        f = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(solve_spd(f, [1.0, 1.0]), [1.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_dimension_mismatch(self):
        f = cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve_spd(f, np.ones(2))

    def test_bits_match_cho_solve(self):
        # one vector and a whole identity block, the inverse riemann builds
        rng = Rng(8)
        for trial in range(200):
            d = 1 + trial % 16
            a = rng.normal((d, d))
            f = cholesky(a @ a.T + 0.1 * np.eye(d))
            for v in (rng.normal(d), np.eye(d)):
                assert solve_spd(f, v).tobytes() == cho_solve((f, True), v).tobytes()

    def test_non_finite_input_is_rejected(self):
        f = cholesky(np.eye(2))
        with pytest.raises(ValueError):
            solve_spd(f, [np.nan, 0.0])
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 0.0], [np.inf, 1.0]]), np.ones(2))

    def test_residuals_on_random_systems(self):
        # 1000 random SPD systems up to dim 64
        rng = Rng(2024)
        for trial in range(1000):
            d = 1 + trial % 64
            a = rng.normal((d, d))
            spd_mat = a @ a.T + np.eye(d)
            v = rng.normal(d)
            x = solve_spd(cholesky(spd_mat), v)
            residual = np.linalg.norm(spd_mat @ x - v) / np.linalg.norm(v)
            assert residual <= 1e-10


class TestLogdet:
    def test_identity(self):
        assert logdet(cholesky(np.eye(5))) == 0.0

    def test_diagonal(self):
        assert logdet(cholesky(np.diag([4.0, 1.0]))) == pytest.approx(np.log(4.0))

    def test_two_by_two(self):
        # det([[2,1],[1,2]]) = 3
        f = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert logdet(f) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_matches_cofactor_expansion(self):
        rng = Rng(7)
        for trial in range(200):
            d = 1 + trial % 4
            a = rng.normal((d, d))
            spd_mat = a @ a.T + np.eye(d)
            assert logdet(cholesky(spd_mat)) == pytest.approx(
                np.log(brute_force_det(spd_mat)), abs=1e-9
            )


class TestEnsurePd:
    def test_pd_input_unchanged(self):
        repaired, f, jitter = ensure_pd(np.eye(2))
        assert np.array_equal(repaired, np.eye(2))
        assert np.array_equal(f, np.eye(2))
        assert jitter == 0.0

    def test_zero_matrix_takes_first_working_jitter(self):
        repaired, f, jitter = ensure_pd(np.zeros((2, 2)))
        assert jitter == DEFAULT_JITTER_SCHEDULE[1] == 1e-10
        assert np.array_equal(repaired, 1e-10 * np.eye(2))
        assert np.allclose(f, 1e-5 * np.eye(2))

    def test_rank_one_matrix_repaired(self):
        # eigenvalues {0, 2}: the zero pivot triggers repair at 1e-10
        repaired, _, jitter = ensure_pd(np.ones((2, 2)))
        assert jitter == 1e-10
        assert np.array_equal(repaired, np.ones((2, 2)) + 1e-10 * np.eye(2))

    def test_not_repairable(self):
        with pytest.raises(NotRepairable):
            ensure_pd(np.array([[-5.0, 0.0], [0.0, -5.0]]))
        with pytest.raises(NotRepairable):
            factor_stack([np.eye(2), -5.0 * np.eye(2)])

    def test_non_finite_matrix_not_repairable(self):
        # LAPACK's dpotrf reports success on NaN input; the factor must not
        # come back as NaN
        for bad in (np.nan, np.inf):
            with pytest.raises(NotRepairable):
                ensure_pd(np.array([[1.0, bad], [bad, 1.0]]))
            with pytest.raises(NotRepairable):
                factor_stack([np.eye(2), np.array([[1.0, bad], [bad, 1.0]])])

    def test_reconstruction_property(self):
        # cholesky(ensure_pd(S + S^T S + I)) reconstructs within 1e-10
        rng = Rng(99)
        for trial in range(100):
            d = 2 + trial % 8
            s = rng.normal((d, d))
            m = (s + s.T) / 2 + s.T @ s + np.eye(d)
            repaired, f, _ = ensure_pd(m)
            rebuilt = f @ f.T
            err = np.linalg.norm(rebuilt - repaired) / np.linalg.norm(repaired)
            assert err <= 1e-10


class TestFactorStack:
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 6),
        d=st.integers(1, 6),
        ranks=st.lists(st.integers(0, 6), min_size=6, max_size=6),
        noise=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_ensure_pd_per_class(self, k, d, ranks, noise, seed):
        # full-rank, rank-deficient and slightly asymmetric or indefinite
        # covariances: every output is the per-class ensure_pd result, bit
        # for bit, each exact factor is scipy's public dpotrf of its matrix
        # and each inverse is dtrtri of its factor
        rng = Rng(seed)
        covs = []
        for j in range(k):
            a = rng.normal((d, min(ranks[j], d)))
            ridge = np.eye(d) if ranks[j] > d else 0.0
            covs.append(a @ a.T + ridge + noise * rng.normal((d, d)))
        covs = np.stack(covs)
        try:
            expected = [ensure_pd(c) for c in covs]
        except NotRepairable:
            with pytest.raises(NotRepairable):
                factor_stack(covs)
            return
        repaired, factors, inverses, jitter = factor_stack(covs)
        assert repaired.shape == factors.shape == inverses.shape == (k, d, d)
        assert jitter.shape == (k,)
        for j, (cov, factor, step) in enumerate(expected):
            assert np.array_equal(repaired[j], cov)
            assert np.array_equal(factors[j], factor)
            assert jitter[j] == step
            if step == 0.0:
                public = dpotrf(cov, lower=1, clean=1)[0]
                assert public.tobytes() == factors[j].tobytes()
            assert np.array_equal(inverses[j], dtrtri(factors[j], lower=1)[0])

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 5),
        d=st.integers(1, 5),
        bad=st.integers(0, 4),
        deficit=st.sampled_from([0.0, 5e-11, 5e-9, 5e-7, 5e-5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_deficient_class_repaired_at_first_working_step(self, k, d, bad, deficit, seed):
        # class `bad` has an exactly decoupled pivot of -deficit (0: rank
        # deficient), so exact Cholesky fails and the first schedule step
        # above the deficit is the first that works
        rng = Rng(seed)
        covs = []
        for _ in range(k):
            a = rng.normal((d, d))
            covs.append(a @ a.T + np.eye(d))
        bad %= k
        pivot = rng.below(d)
        covs[bad][pivot, :] = 0.0
        covs[bad][:, pivot] = 0.0
        covs[bad][pivot, pivot] = -deficit
        repaired, factors, _, jitter = factor_stack(covs)

        def factors_at(j):
            try:
                cholesky(covs[bad] + j * np.eye(d))
                return True
            except NotPositiveDefinite:
                return False

        step = next(j for j in DEFAULT_JITTER_SCHEDULE if factors_at(j))
        assert step == min(j for j in DEFAULT_JITTER_SCHEDULE if j > deficit)
        assert jitter[bad] == step
        assert np.array_equal(repaired[bad], covs[bad] + step * np.eye(d))
        assert np.array_equal(factors[bad], cholesky(repaired[bad]))
        others = [j for j in range(k) if j != bad]
        assert np.all(jitter[others] == 0.0)
        for j in others:
            assert np.array_equal(repaired[j], covs[j])
            assert np.array_equal(factors[j], cholesky(covs[j]))


class TestQuadForm:
    def test_matches_explicit_inverse(self):
        rng = Rng(5)
        for _ in range(50):
            d = 3
            a = rng.normal((d, d))
            m = a @ a.T + np.eye(d)
            f = cholesky(m)
            diffs = rng.normal((4, d))
            expected = np.einsum("md,md->m", diffs @ np.linalg.inv(m), diffs)
            assert np.allclose(quad_form(f, diffs), expected, rtol=1e-9)

    def test_single_vector_returns_scalar(self):
        f = cholesky(np.eye(2))
        assert quad_form(f, np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_dimension_mismatch(self):
        f = cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            quad_form(f, np.ones((4, 2)))
        with pytest.raises(DimensionMismatch):
            quad_form(np.stack([f, f]), np.ones((4, 3, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 5),
        d=st.integers(1, 6),
        m=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_equals_per_factor(self, k, d, m, seed):
        rng = Rng(seed)
        factors = []
        for _ in range(k):
            a = rng.normal((d, d))
            factors.append(cholesky(a @ a.T + np.eye(d)))
        stack = np.stack(factors)
        diffs = rng.normal((m, k, d))
        stacked = quad_form(stack, diffs)
        assert stacked.shape == (m, k)
        for j, f in enumerate(factors):
            assert np.allclose(stacked[:, j], quad_form(f, diffs[:, j]), rtol=1e-12, atol=0)
        assert np.allclose(quad_form(stack, diffs[0]), stacked[0], rtol=1e-12, atol=0)
        assert np.array_equal(logdet(stack), [logdet(f) for f in factors])
