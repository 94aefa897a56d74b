import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_large_scale_matrix_takes_a_relative_step(self):
        # a pivot of -1e-3 under a diagonal of 1e11 is roundoff at that
        # scale: no absolute step covers it, the first relative one does
        repaired, _, jitter = ensure_pd(np.diag([1e11, -1e-3]))
        assert jitter == DEFAULT_JITTER_SCHEDULE[1] * 1e11
        assert np.array_equal(repaired, np.diag([1e11 + jitter, -1e-3 + jitter]))
        with pytest.raises(NotRepairable):
            ensure_pd(np.diag([1e11, -1e8]))

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
        # covariances: an exact factor is np.linalg.cholesky's, of the whole
        # stack when that succeeds, bit for bit; a matrix numpy cannot factor
        # gets the per-class ensure_pd result, bit for bit, whose factor is
        # scipy's public dpotrf of the repaired matrix; each inverse is
        # dtrtri of its factor
        rng = Rng(seed)
        covs = []
        for j in range(k):
            a = rng.normal((d, min(ranks[j], d)))
            ridge = np.eye(d) if ranks[j] > d else 0.0
            covs.append(a @ a.T + ridge + noise * rng.normal((d, d)))
        covs = np.stack(covs)
        sym = (covs + covs.transpose(0, 2, 1)) / 2.0
        expected, repairs = [], 0
        for cov in sym:
            try:
                expected.append((cov, np.linalg.cholesky(cov), 0.0))
            except np.linalg.LinAlgError:
                repairs += 1
                try:
                    expected.append(ensure_pd(cov))
                except NotRepairable:
                    with pytest.raises(NotRepairable):
                        factor_stack(covs)
                    return
                public = dpotrf(expected[-1][0], lower=1, clean=1)[0]
                assert public.tobytes() == expected[-1][1].tobytes()
        repaired, factors, inverses, jitter = factor_stack(covs)
        assert repaired.shape == factors.shape == inverses.shape == (k, d, d)
        assert jitter.shape == (k,)
        for j, (cov, factor, step) in enumerate(expected):
            assert repaired[j].tobytes() == cov.tobytes()
            assert factors[j].tobytes() == factor.tobytes()
            assert jitter[j] == step
            assert inverses[j].tobytes() == dtrtri(factors[j], lower=1)[0].tobytes()
        if not repairs:
            assert np.linalg.cholesky(sym).tobytes() == factors.tobytes()

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
            assert factors[j].tobytes() == np.linalg.cholesky(repaired[j]).tobytes()


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
            assert np.allclose(quad_form(f, diffs, np.zeros(d)), expected, rtol=1e-9)

    def test_single_vector_returns_scalar(self):
        f = cholesky(np.eye(2))
        assert quad_form(f, np.array([4.0, 6.0]), np.array([1.0, 2.0])) == pytest.approx(25.0)

    def test_dimension_mismatch(self):
        f = cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            quad_form(f, np.ones((4, 2)), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            quad_form(np.stack([f, f]), np.ones((4, 3, 3)), np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            quad_form(np.stack([f, f]), np.ones((4, 3)), np.ones((3, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 5),
        d=st.integers(1, 6),
        m=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_equals_per_factor(self, k, d, m, seed):
        # every row against every center at once, or one class at a time
        rng = Rng(seed)
        factors = []
        for _ in range(k):
            a = rng.normal((d, d))
            factors.append(cholesky(a @ a.T + np.eye(d)))
        stack = np.stack(factors)
        rows, centers = rng.normal((m, d)), rng.normal((k, d))
        stacked = quad_form(stack, rows, centers)
        assert stacked.shape == (m, k)
        # the stacked kernel maps x - s and c_j - s, s the mean of the
        # centers, and subtracts the images; each image entry is a length-d
        # dot product, so it rounds by at most about d * eps times
        # e = |L_j^-1| (|x - s| + |c_j - s|) (absolute values entrywise), and
        # form (i, j) by at most 2 * sqrt(q) * slack + slack^2 beyond the
        # sum's own rounding, slack = 2 (d + 2) eps ||e||.  The one-class
        # forms round by less, as |x - c_j| <= |x - s| + |c_j - s|.
        shift = centers.mean(axis=0)
        spread = np.abs(rows - shift)[:, None, :] + np.abs(centers - shift)[None, :, :]
        e = np.einsum("jde,ije->ijd", np.abs(np.linalg.inv(stack)), spread)
        slack = 2 * (d + 2) * np.finfo(float).eps * np.linalg.norm(e, axis=2)

        def assert_close(got, want, slack):
            bound = 1e-12 * want + slack * (2 * np.sqrt(want) + slack)
            assert np.all(np.abs(got - want) <= bound)

        for j, f in enumerate(factors):
            assert_close(stacked[:, j], quad_form(f, rows, centers[j]), slack[:, j])
            assert_close(stacked[:, j], quad_form(f, rows - centers[j], np.zeros(d)), slack[:, j])
        assert_close(quad_form(stack, rows[0], centers), stacked[0], slack[0])
        assert np.array_equal(logdet(stack), [logdet(f) for f in factors])
