"""Tests for lattice containers and precision-matrix construction."""

import numpy as np
import pytest
from conftest import dense_difference_oracle, neighbors

from smfdenoise.lattice import (
    Raster,
    SpotMask,
    build_higmrf_precision,
    build_igmrf_precision,
)
from smfdenoise.model import HyperParams
from smfdenoise.sampler import denoise


class TestRaster:
    def test_round_trip_2d(self):
        arr = np.arange(6.0).reshape(2, 3)
        r = Raster.from_2d(arr)
        assert (r.n1, r.n2) == (2, 3)
        np.testing.assert_array_equal(r.to_2d(), arr)

    def test_row_major_layout(self):
        r = Raster(2, 2, [1.0, 2.0, 3.0, 4.0])
        assert r.to_2d()[0, 1] == 2.0
        assert r.to_2d()[1, 0] == 3.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Raster(2, 2, [1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Raster(1, 2, [1.0, np.nan])

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Raster(0, 3, [])

    def test_data_is_read_only(self):
        r = Raster(1, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            r.data[0] = 9.0


class TestSpotMask:
    def test_values_restricted_to_binary(self):
        with pytest.raises(ValueError):
            SpotMask(1, 2, [0, 2])

    def test_zeros_constructor(self):
        m = SpotMask.zeros(3, 4)
        assert m.data.sum() == 0
        assert (m.n1, m.n2) == (3, 4)


class TestNeighbors:
    """The neighbourhood of the dense difference oracle in conftest."""

    def test_interior_has_four(self):
        assert len(neighbors(1, 1, 3, 3)) == 4

    def test_corner_has_two(self):
        assert sorted(neighbors(0, 0, 3, 3)) == [(0, 1), (1, 0)]

    def test_edge_has_three(self):
        assert len(neighbors(0, 1, 3, 3)) == 3

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            neighbors(3, 0, 3, 3)


class TestIgmrfPrecision:
    def test_2x2_first_row(self):
        # D rows on 2x2: diag -2, two +1 entries; Q = D^T D.
        q = build_igmrf_precision(2, 2).matrix.toarray()
        np.testing.assert_allclose(q[0], [6.0, -4.0, -4.0, 2.0])

    def test_matches_dense_oracle(self):
        for n1, n2 in [(2, 2), (3, 4), (5, 3), (1, 6)]:
            d = dense_difference_oracle(n1, n2)
            precision = build_igmrf_precision(n1, n2)
            np.testing.assert_array_equal(precision.d_op.toarray(), d)
            np.testing.assert_allclose(precision.matrix.toarray(), d.T @ d, atol=1e-12)

    def test_symmetric_psd_with_constant_null_space(self):
        q = build_igmrf_precision(4, 5).matrix.toarray()
        np.testing.assert_array_equal(q, q.T)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() > -1e-10
        np.testing.assert_allclose(q @ np.ones(20), 0.0, atol=1e-12)

    def test_single_pixel_has_zero_precision(self):
        # a lone pixel has no neighbours, so the prior adds nothing
        q = build_igmrf_precision(1, 1)
        assert q.matrix.toarray().tolist() == [[0.0]]
        assert q.d_op.toarray().tolist() == [[0.0]]


class TestHigmrfPrecision:
    def test_2x2_all_background_difference_row(self):
        mask = SpotMask.zeros(2, 2)
        d = build_higmrf_precision(2, 2, mask, 50.0).d_op.toarray()
        np.testing.assert_allclose(d[0], [-100.0, 50.0, 50.0, 0.0])

    def test_all_spots_reduces_to_igmrf(self):
        mask = SpotMask(3, 3, np.ones(9, dtype=np.int8))
        q_het = build_higmrf_precision(3, 3, mask, 50.0).matrix.toarray()
        q_hom = build_igmrf_precision(3, 3).matrix.toarray()
        np.testing.assert_array_equal(q_het, q_hom)

    def test_matches_dense_oracle_random_masks(self):
        rng = np.random.default_rng(5)
        lam = 50.0
        for _ in range(20):
            n1 = int(rng.integers(2, 6))
            n2 = int(rng.integers(2, 6))
            mask2d = rng.integers(0, 2, size=(n1, n2)).astype(np.int8)
            d = dense_difference_oracle(n1, n2, mask2d, lam)
            precision = build_higmrf_precision(n1, n2, SpotMask.from_2d(mask2d), lam)
            np.testing.assert_array_equal(precision.d_op.toarray(), d)
            np.testing.assert_allclose(precision.matrix.toarray(), d.T @ d, atol=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        mask = SpotMask.from_2d(rng.integers(0, 2, size=(4, 4)).astype(np.int8))
        q = build_higmrf_precision(4, 4, mask, 50.0).matrix.toarray()
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-10)

    def test_background_coupling_grows_with_lam(self):
        mask = SpotMask.zeros(3, 3)
        q1 = build_higmrf_precision(3, 3, mask, 10.0).matrix.toarray()
        q2 = build_higmrf_precision(3, 3, mask, 100.0).matrix.toarray()
        assert q2[0, 0] > q1[0, 0]

    def test_lam_must_exceed_one(self):
        # HyperParams.validate is the one check on lam, and denoise runs it
        with pytest.raises(ValueError, match="lam"):
            denoise(Raster.from_2d(np.eye(3)), HyperParams(lam=1.0))


class TestPrecisionMatrix:
    def test_quad_form_near_zero_for_constant_field(self):
        q = build_igmrf_precision(3, 3)
        assert 0.0 <= q.quad_form(np.full(9, 3.7)) < 1e-10

    def test_quad_form_equals_squared_differences(self):
        q = build_igmrf_precision(2, 3)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(6)
        d = dense_difference_oracle(2, 3)
        np.testing.assert_allclose(q.quad_form(f), (d @ f) @ (d @ f), rtol=1e-12)

    def test_quad_form_matches_q_on_masked_lattices(self):
        rng = np.random.default_rng(1)
        for n1, n2 in [(1, 7), (7, 1), (6, 9)]:
            mask = SpotMask.from_2d(rng.integers(0, 2, size=(n1, n2)))
            q = build_higmrf_precision(n1, n2, mask, 50.0)
            f = rng.standard_normal(n1 * n2)
            np.testing.assert_allclose(q.quad_form(f), f @ (q.matrix @ f), rtol=1e-12)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 7), (7, 1), (20, 33), (33, 20), (30, 30)])
    @pytest.mark.parametrize("lam", [1.5, 50.0])
    def test_d_transpose_equals_scipy_bit_for_bit(self, n1, n2, lam):
        # the field draw's perturbation reads D^T x every sweep; it must give
        # the bits that scipy's CSR product gave
        rng = np.random.default_rng(n1 * 100 + n2)
        mask = SpotMask.from_2d(rng.integers(0, 2, size=(n1, n2)))
        for q in (build_higmrf_precision(n1, n2, mask, lam), build_igmrf_precision(n1, n2)):
            x = rng.standard_normal(n1 * n2) * 10.0 ** rng.integers(-3, 4, n1 * n2)
            np.testing.assert_array_equal(q.d_transpose(x), q.d_op.T @ x)

    def test_sparse_forms_are_built_on_first_access_only(self):
        q = build_igmrf_precision(3, 4)
        assert "matrix" not in vars(q) and "d_op" not in vars(q)
        assert q.matrix is q.matrix and q.d_op is q.d_op
