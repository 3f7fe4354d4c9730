from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseshift import linalg

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vectors(min_size=2, max_size=8):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


class TestCosineSimilarity:
    def test_identity_is_one(self):
        v = np.array([0.3, -2.0, 5.0])
        assert linalg.rowwise_cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert linalg.rowwise_cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_three_four_example(self):
        # dot = 24, norms 5 * 5 -> 24/25
        assert linalg.rowwise_cosine([3.0, 4.0], [4.0, 3.0]) == pytest.approx(0.96, abs=1e-15)

    def test_zero_norm_raises(self):
        with pytest.raises(ValueError):
            linalg.rowwise_cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            linalg.rowwise_cosine([1.0, 0.0], [0.0, 0.0])

    @given(vectors(), vectors())
    def test_bounded(self, a, b):
        n = min(len(a), len(b))
        a, b = np.array(a[:n]), np.array(b[:n])
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        c = linalg.rowwise_cosine(a, b)
        assert -1.0 - 1e-6 <= c <= 1.0 + 1e-6

    @given(vectors())
    def test_self_similarity_one(self, a):
        a = np.array(a)
        if np.linalg.norm(a) == 0:
            return
        assert linalg.rowwise_cosine(a, a) == pytest.approx(1.0, abs=1e-9)


class TestRowwiseCosine:
    def test_precomputed_norms_give_the_same_bits(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(50, 7)), rng.normal(size=(50, 7))
        want = linalg.rowwise_cosine(a, b)
        got = linalg.rowwise_cosine(a, b, linalg.row_norms(a), linalg.row_norms(b))
        assert np.array_equal(got, want)
        v = b[0]
        assert np.array_equal(linalg.rowwise_cosine(a, v, norm_b=linalg.row_norms(v)), linalg.rowwise_cosine(a, v))

    def test_zero_precomputed_norm_raises(self):
        a = np.ones((2, 3))
        with pytest.raises(ValueError, match="zero-norm"):
            linalg.rowwise_cosine(a, a, np.array([1.0, 0.0]), linalg.row_norms(a))


class TestPca:
    def test_collinear_points(self):
        r = linalg.pca(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), 1)
        assert np.allclose(r.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
        assert r.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_square(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        r = linalg.pca(x, 2)
        assert np.allclose(r.explained_variance_ratio, [0.5, 0.5], atol=1e-12)
        # covariance is (2/3) I with the n-1 divisor
        assert np.allclose(r.eigenvalues, [2 / 3, 2 / 3], atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, p = int(rng.integers(8, 13)), int(rng.integers(2, 7))
            x = rng.normal(size=(n, p)) * rng.uniform(0.1, 3.0, size=p)
            r = linalg.pca(x, p)
            centered = x - x.mean(axis=0)
            recon = r.projections @ r.components
            assert np.linalg.norm(recon - centered) < 1e-8

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        r1 = linalg.pca(x, 4)
        r2 = linalg.pca(x @ q.T, 4)
        assert np.allclose(
            r1.explained_variance_ratio, r2.explained_variance_ratio, atol=1e-8
        )

    def test_projection_variance_equals_eigenvalues(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, 6)) * [5, 3, 2, 1, 0.5, 0.1]
        r = linalg.pca(x, 4)
        variances = r.projections.var(axis=0, ddof=1)
        assert np.allclose(variances, r.eigenvalues, atol=1e-8)

    def test_ratios_nonincreasing_and_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = rng.normal(size=(12, 5))
            r = linalg.pca(x, 4)
            ratios = r.explained_variance_ratio
            assert np.all(np.diff(ratios) <= 1e-12)
            assert np.all(ratios >= 0) and ratios.sum() <= 1 + 1e-12

    def test_sign_convention(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(15, 4))
        r = linalg.pca(x, 3)
        for row in r.components:
            assert row[np.abs(row).argmax()] > 0

    def test_components_orthonormal(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(25, 6))
        r = linalg.pca(x, 5)
        assert np.allclose(r.components @ r.components.T, np.eye(5), atol=1e-8)

    def test_zero_variance_degenerate(self):
        x = np.ones((5, 3)) * 4.2
        r = linalg.pca(x, 2)
        assert r.degenerate
        assert np.all(r.explained_variance_ratio == 0.0)
        assert np.allclose(r.components @ r.components.T, np.eye(2), atol=1e-12)

    def test_parameter_validation(self):
        x = np.zeros((4, 3))
        with pytest.raises(ValueError):
            linalg.pca(x, 0)
        with pytest.raises(ValueError):
            linalg.pca(x, 4)  # > min(n-1, p)
        with pytest.raises(ValueError):
            linalg.pca(np.zeros((1, 3)), 1)
        with pytest.raises(ValueError):
            linalg.pca(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_ratios_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 4))
        r = linalg.pca(x, 3)
        assert np.all(np.diff(r.explained_variance_ratio) <= 1e-12)
        assert np.allclose(r.components @ r.components.T, np.eye(3), atol=1e-8)
