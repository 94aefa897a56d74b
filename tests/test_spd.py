import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahabench.errors import DimensionMismatch, NotPositiveDefinite, NotRepairable
from mahabench.rng import Rng
from mahabench.spd import (
    cholesky,
    ensure_pd,
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
        repaired, f = ensure_pd(a)
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
        repaired, f = ensure_pd(np.eye(2), [0.0, 1e-8])
        assert np.array_equal(repaired, np.eye(2))
        assert np.array_equal(f, np.eye(2))

    def test_zero_matrix_takes_first_working_jitter(self):
        repaired, f = ensure_pd(np.zeros((2, 2)), [0.0, 1e-6, 1e-3])
        assert np.allclose(repaired, 1e-6 * np.eye(2))
        assert np.allclose(f, 1e-3 * np.eye(2))

    def test_rank_one_matrix_repaired(self):
        # eigenvalues {0, 2}: the zero pivot triggers repair at 1e-6
        repaired, _ = ensure_pd(np.ones((2, 2)), [0.0, 1e-6])
        assert np.allclose(repaired, np.ones((2, 2)) + 1e-6 * np.eye(2))

    def test_not_repairable(self):
        with pytest.raises(NotRepairable):
            ensure_pd(np.array([[-5.0, 0.0], [0.0, -5.0]]), [0.0, 1e-6])

    def test_non_finite_matrix_not_repairable(self):
        # LAPACK's dpotrf reports success on NaN input; the factor must not
        # come back as NaN
        for bad in (np.nan, np.inf):
            with pytest.raises(NotRepairable):
                ensure_pd(np.array([[1.0, bad], [bad, 1.0]]))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ensure_pd(np.eye(2), [1e-8, 0.0])
        with pytest.raises(ValueError):
            ensure_pd(np.eye(2), [0.0, 1e-4, 1e-6])

    def test_reconstruction_property(self):
        # cholesky(ensure_pd(S + S^T S + I)) reconstructs within 1e-10
        rng = Rng(99)
        for trial in range(100):
            d = 2 + trial % 8
            s = rng.normal((d, d))
            m = (s + s.T) / 2 + s.T @ s + np.eye(d)
            repaired, f = ensure_pd(m)
            rebuilt = f @ f.T
            err = np.linalg.norm(rebuilt - repaired) / np.linalg.norm(repaired)
            assert err <= 1e-10


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
