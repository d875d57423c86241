"""Tests for the image-quality measures."""

import math

import numpy as np
import pytest

from smfdenoise.lattice import Raster
from smfdenoise.metrics import (
    KLD_BINS,
    MetricInstabilityError,
    evaluate,
    kld,
    psnr,
    rmse,
    ssim,
)


def r(values):
    values = np.asarray(values, dtype=np.float64)
    return Raster(1, values.size, values)


class TestRmse:
    def test_identical_is_zero(self):
        assert rmse(r([1.0, 2.0]), r([1.0, 2.0])) == 0.0

    def test_unit_case(self):
        assert abs(rmse(r([1.0, 1.0]), r([0.0, 2.0])) - 1.0) < 1e-12

    def test_homogeneity(self):
        a, b = r([1.0, 3.0, -2.0]), r([0.0, 1.0, 1.0])
        assert abs(rmse(r(a.data * 5), r(b.data * 5)) - 5 * rmse(a, b)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(20)
        a, b, c = (r(rng.standard_normal(30)) for _ in range(3))
        assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(r([1.0]), r([1.0, 2.0]))


class TestPsnr:
    def test_zero_db_case(self):
        # estimate max 1, error 1
        assert abs(psnr(r([1.0, 1.0]), r([0.0, 2.0]))) < 1e-12

    def test_six_db_case(self):
        # estimate max 2, error 1
        expected = 20.0 * math.log10(2.0)
        assert abs(psnr(r([0.0, 2.0]), r([1.0, 1.0])) - expected) < 1e-12

    def test_identical_images_infinite(self):
        assert psnr(r([1.0, 2.0]), r([1.0, 2.0])) == math.inf

    def test_peak_uses_estimate(self):
        # same error, different estimate peaks -> different PSNR
        a = psnr(r([0.0, 2.0]), r([1.0, 1.0]))
        b = psnr(r([-2.0, 0.5]), r([-1.0, -0.5]))
        assert a != b

    def test_non_positive_peak_rejected(self):
        with pytest.raises(MetricInstabilityError):
            psnr(r([-1.0, -2.0]), r([0.0, 0.0]))


class TestKld:
    def test_identical_is_zero(self):
        x = r([0.0, 1.0, 2.0, 3.0])
        assert kld(x, x) == 0.0

    def test_equal_constants_zero_by_convention(self):
        assert kld(r([2.0, 2.0]), r([2.0, 2.0])) == 0.0

    def test_matches_histogram_oracle(self):
        # truth spread over all 10 bins, estimate concentrated in one
        truth = np.linspace(0.0, 10.0, 100, endpoint=False) + 0.05
        estimate = np.full(100, 0.5)
        got = kld(r(estimate), r(truth))
        n = 100
        edges = np.linspace(0.0, 10.0, KLD_BINS + 1)
        p = np.histogram(truth, bins=edges)[0] / n + 1.0 / n
        q = np.histogram(estimate, bins=edges)[0] / n + 1.0 / n
        p, q = p / p.sum(), q / q.sum()
        expected = float(np.sum(p * np.log(p / q)))
        assert abs(got - expected) < 1e-12

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = r(rng.standard_normal(50))
            b = r(rng.standard_normal(50))
            assert kld(a, b) >= 0.0

    def test_asymmetry_direction(self):
        a = r(np.concatenate([np.zeros(90), np.ones(10)]))
        b = r(np.linspace(0.0, 1.0, 100))
        assert kld(a, b) != kld(b, a)


class TestSsim:
    def test_identical_non_constant_is_one(self):
        x = r([0.0, 1.0, 2.0])
        assert abs(ssim(x, x) - 1.0) < 1e-12

    def test_golden_offset_case(self):
        assert abs(ssim(r([0.0, 1.0]), r([1.0, 2.0])) - 0.6) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        a, b = r(rng.standard_normal(40) + 2), r(rng.standard_normal(40) + 2)
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_bounded_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = r(rng.standard_normal(30) + 1.0)
            b = r(rng.standard_normal(30) + 1.0)
            assert -1.0 - 1e-9 <= ssim(a, b) <= 1.0 + 1e-9

    def test_degenerate_denominator_raises(self):
        with pytest.raises(MetricInstabilityError):
            ssim(r([0.0, 0.0]), r([0.0, 0.0]))


class TestScale:
    """Each measure is computed on the pair divided by one power of two, so
    a pair scaled by 2^k gives the same bits, RMSE scaled by 2^k, while its
    squares would pass float64's range."""

    def pair(self, k):
        rng = np.random.default_rng(25)
        truth = np.abs(rng.standard_normal(64)) + 0.5
        estimate = truth + 0.1 * rng.standard_normal(64)
        return r(np.ldexp(estimate, k)), r(np.ldexp(truth, k))

    @pytest.mark.parametrize("k", [-1000, 0, 1000])
    def test_rmse_psnr_kld_keep_their_bits(self, k):
        assert rmse(*self.pair(k)) == math.ldexp(rmse(*self.pair(0)), k)
        assert psnr(*self.pair(k)) == psnr(*self.pair(0))
        assert kld(*self.pair(k)) == kld(*self.pair(0))

    def test_ssim_keeps_its_bits(self):
        # at 2^-1000 the unscaled UQI denominator is far below UQI_DENOM_TOL
        assert ssim(*self.pair(1000)) == ssim(*self.pair(0))
        with pytest.raises(MetricInstabilityError, match="UQI denominator 0.0 within"):
            ssim(*self.pair(-1000))

    def test_finite_at_1e160(self):
        estimate, truth = self.pair(0)
        report = evaluate(r(estimate.data * 1e160), r(truth.data * 1e160))
        assert np.isfinite([report.rmse, report.psnr_db, report.kld, report.ssim]).all()

    def test_rmse_past_float64_is_inf(self):
        assert rmse(r([1e308, -1e308]), r([-1e308, 1e308])) == math.inf


class TestEvaluate:
    def test_bundles_all_four(self):
        rng = np.random.default_rng(24)
        truth = r(np.abs(rng.standard_normal(64)) + 0.5)
        estimate = r(truth.data + 0.01 * rng.standard_normal(64))
        report = evaluate(estimate, truth)
        assert report.rmse == rmse(estimate, truth)
        assert report.psnr_db == psnr(estimate, truth)
        assert report.kld == kld(estimate, truth)
        assert report.ssim == ssim(estimate, truth)
