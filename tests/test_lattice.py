"""Tests for lattice containers and precision-matrix construction."""

import pickle

import numpy as np
import pytest
from conftest import dense_d, dense_difference_oracle, dense_q, neighbors
from scipy import sparse

from smfdenoise.lattice import (
    Raster,
    SpotMask,
    build_higmrf_precision,
    build_igmrf_precision,
)
from smfdenoise.model import HyperParams
from smfdenoise.sampler import denoise


# each test of the constructor both grids share runs on each, on values it holds
GRIDS = pytest.mark.parametrize("grid", [Raster, SpotMask])


class TestRaster:
    @GRIDS
    def test_round_trip_2d(self, grid):
        arr = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        r = grid.from_2d(arr)
        assert (r.n1, r.n2) == (2, 3)
        np.testing.assert_array_equal(r.to_2d(), arr)

    def test_row_major_layout(self):
        r = Raster(2, 2, [1.0, 2.0, 3.0, 4.0])
        assert r.to_2d()[0, 1] == 2.0
        assert r.to_2d()[1, 0] == 3.0

    @GRIDS
    def test_rejects_wrong_length(self, grid):
        with pytest.raises(ValueError):
            grid(2, 2, [1.0, 0.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Raster(1, 2, [1.0, np.nan])

    @GRIDS
    def test_rejects_bad_dims(self, grid):
        with pytest.raises(ValueError):
            grid(0, 3, [])

    @GRIDS
    def test_data_is_read_only(self, grid):
        r = grid(1, 2, [1.0, 0.0])
        with pytest.raises(ValueError):
            r.data[0] = 1

    def test_pickle_round_trip_keeps_data_read_only(self):
        # chain results come back from pool workers through pickle
        r = pickle.loads(pickle.dumps(Raster(2, 3, np.arange(6.0))))
        assert (r.n1, r.n2) == (2, 3)
        np.testing.assert_array_equal(r.data, np.arange(6.0))
        assert not r.data.flags.writeable


class TestSpotMask:
    def test_values_restricted_to_binary(self):
        with pytest.raises(ValueError):
            SpotMask(1, 2, [0, 2])

    def test_zeros_constructor(self):
        m = SpotMask.zeros(3, 4)
        assert m.data.sum() == 0
        assert (m.n1, m.n2) == (3, 4)

    def test_boolean_data_skips_the_value_scan(self, monkeypatch):
        # the sampler builds one mask per sweep from a boolean threshold
        spots = np.array([[True, False, True], [False, False, True]])
        want = SpotMask.from_2d(spots.astype(np.int8))
        monkeypatch.setattr(np, "all", lambda *a, **k: pytest.fail("scanned a boolean mask"))
        m = SpotMask.from_2d(spots)
        monkeypatch.undo()
        assert (m.n1, m.n2) == (want.n1, want.n2)
        assert m.data.dtype == want.data.dtype and m.data.flags.c_contiguous
        np.testing.assert_array_equal(m.data, want.data)
        assert not m.data.flags.writeable
        assert spots.flags.writeable  # the caller's array is copied, not frozen

    def test_boolean_data_must_fit_the_lattice(self):
        with pytest.raises(ValueError):
            SpotMask(2, 2, np.array([True, False]))

    def test_pickle_round_trip_keeps_data_read_only(self):
        m = pickle.loads(pickle.dumps(SpotMask(2, 2, [0, 1, 1, 0])))
        assert (m.n1, m.n2) == (2, 2)
        np.testing.assert_array_equal(m.data, [0, 1, 1, 0])
        assert not m.data.flags.writeable


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
        q = dense_q(2, 2, build_igmrf_precision(2, 2))
        np.testing.assert_allclose(q[0], [6.0, -4.0, -4.0, 2.0])

    def test_matches_dense_oracle(self):
        for n1, n2 in [(2, 2), (3, 4), (5, 3), (1, 6)]:
            d = dense_difference_oracle(n1, n2)
            precision = build_igmrf_precision(n1, n2)
            np.testing.assert_array_equal(dense_d(precision), d)
            np.testing.assert_allclose(dense_q(n1, n2, precision), d.T @ d, atol=1e-12)

    def test_symmetric_psd_with_constant_null_space(self):
        q = dense_q(4, 5, build_igmrf_precision(4, 5))
        np.testing.assert_array_equal(q, q.T)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() > -1e-10
        np.testing.assert_allclose(q @ np.ones(20), 0.0, atol=1e-12)

    def test_single_pixel_has_zero_precision(self):
        # a lone pixel has no neighbours, so the prior adds nothing
        q = build_igmrf_precision(1, 1)
        assert dense_q(1, 1, q).tolist() == [[0.0]]
        assert dense_d(q).tolist() == [[0.0]]


class TestHigmrfPrecision:
    def test_2x2_all_background_difference_row(self):
        mask = SpotMask.zeros(2, 2)
        d = dense_d(build_higmrf_precision(mask, 50.0))
        np.testing.assert_allclose(d[0], [-100.0, 50.0, 50.0, 0.0])

    def test_all_spots_reduces_to_igmrf(self):
        mask = SpotMask(3, 3, np.ones(9, dtype=np.int8))
        q_het = dense_q(3, 3, build_higmrf_precision(mask, 50.0))
        q_hom = dense_q(3, 3, build_igmrf_precision(3, 3))
        np.testing.assert_array_equal(q_het, q_hom)

    def test_matches_dense_oracle_random_masks(self):
        rng = np.random.default_rng(5)
        lam = 50.0
        for _ in range(20):
            n1 = int(rng.integers(2, 6))
            n2 = int(rng.integers(2, 6))
            mask2d = rng.integers(0, 2, size=(n1, n2)).astype(np.int8)
            d = dense_difference_oracle(n1, n2, mask2d, lam)
            precision = build_higmrf_precision(SpotMask.from_2d(mask2d), lam)
            np.testing.assert_array_equal(dense_d(precision), d)
            np.testing.assert_allclose(dense_q(n1, n2, precision), d.T @ d, atol=1e-12)

    def test_mask_carries_its_lattice(self):
        # a 5 x 7 mask gives a 35-pixel Q, not one read off a guessed lattice
        mask2d = np.random.default_rng(9).integers(0, 2, size=(5, 7)).astype(np.int8)
        precision = build_higmrf_precision(SpotMask.from_2d(mask2d), 50.0)
        assert (precision.n1, precision.n2, precision.n) == (5, 7, 35)
        d = dense_difference_oracle(5, 7, mask2d, 50.0)
        np.testing.assert_array_equal(dense_q(5, 7, precision), d.T @ d)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        mask = SpotMask.from_2d(rng.integers(0, 2, size=(4, 4)).astype(np.int8))
        q = dense_q(4, 4, build_higmrf_precision(mask, 50.0))
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-10)

    def test_background_coupling_grows_with_lam(self):
        mask = SpotMask.zeros(3, 3)
        q1 = dense_q(3, 3, build_higmrf_precision(mask, 10.0))
        q2 = dense_q(3, 3, build_higmrf_precision(mask, 100.0))
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
            q = build_higmrf_precision(mask, 50.0)
            f = rng.standard_normal(n1 * n2)
            np.testing.assert_allclose(q.quad_form(f), f @ (dense_q(n1, n2, q) @ f), rtol=1e-12)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 7), (7, 1), (20, 33), (33, 20), (30, 30)])
    @pytest.mark.parametrize("lam", [1.5, 50.0])
    def test_d_transpose_equals_scipy_bit_for_bit(self, n1, n2, lam):
        # the field draw's perturbation reads D^T x = -L_w x every sweep; it
        # sums in the order of scipy's product over the oracle's CSR rows
        rng = np.random.default_rng(n1 * 100 + n2)
        mask2d = rng.integers(0, 2, size=(n1, n2))
        for q, d in ((build_higmrf_precision(SpotMask.from_2d(mask2d), lam),
                      dense_difference_oracle(n1, n2, mask2d, lam)),
                     (build_igmrf_precision(n1, n2), dense_difference_oracle(n1, n2))):
            x = rng.standard_normal(n1 * n2) * 10.0 ** rng.integers(-3, 4, n1 * n2)
            np.testing.assert_array_equal(-q.laplacian(x), sparse.csr_matrix(d).T @ x)
