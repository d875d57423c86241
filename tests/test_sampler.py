"""Tests for the Gibbs sweep components and the full chain."""

import numpy as np
import pytest

from smfdenoise.lattice import (
    Raster,
    SpotMask,
    build_higmrf_precision,
    build_igmrf_precision,
)
from smfdenoise.model import HyperParams, NoiseParams, make_design
from smfdenoise.sampler import (
    HIGMRF,
    IGMRF,
    SpectralSolver,
    SuperLUSolver,
    denoise,
    get_binary_image,
    sample_field_given_gamma,
    sample_gamma,
    sample_kappas,
)


class ZeroRng:
    """Stands in for a Generator; returns zero noise so draws equal their mean."""

    def standard_normal(self, n):
        return np.zeros(n)


class TestSampleGamma:
    def setup_method(self):
        self.design = make_design(3, 3)
        rng = np.random.default_rng(11)
        self.y = rng.standard_normal(9)
        self.f = rng.standard_normal(9) * 0.1

    def test_mean_matches_normal_equations(self):
        kappa_l, gp = 4.0, 0.5
        z = self.design
        c = np.linalg.inv(kappa_l * z.T @ z + gp * np.eye(3))
        expected = kappa_l * c @ z.T @ (self.y - self.f)
        got = sample_gamma(self.y, self.f, kappa_l, self.design, gp, ZeroRng())
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_covariance_empirically(self):
        kappa_l, gp = 4.0, 0.5
        z = self.design
        c = np.linalg.inv(kappa_l * z.T @ z + gp * np.eye(3))
        rng = np.random.default_rng(3)
        draws = np.array([
            sample_gamma(self.y, self.f, kappa_l, self.design, gp, rng)
            for _ in range(20000)
        ])
        np.testing.assert_allclose(np.cov(draws.T), c, atol=5e-3)


class TestSampleKappas:
    def test_known_scale_for_unit_case(self):
        # 2x2 lattice, residual sum of squares 2: shape 3, scale (1+0.1)^-1.
        design = make_design(2, 2)
        precision = build_igmrf_precision(2, 2)
        hp = HyperParams(alpha_l=1.0, beta_l=10.0)
        f = np.zeros(4)
        gamma = np.zeros(3)
        y = np.array([1.0, -1.0, 0.0, 0.0]) * np.sqrt(1.0)  # RSS = 2
        rng = np.random.default_rng(4)
        draws = np.array([
            sample_kappas(y, f, gamma, design, precision, hp, rng).kappa_l
            for _ in range(50000)
        ])
        expected_mean = 3.0 / 1.1
        assert abs(draws.mean() - expected_mean) / expected_mean < 0.02

    def test_constant_field_keeps_prior_scale(self):
        # f^T Q f = 0, so the field-precision scale stays at beta_f; the
        # empirical mean is then (N/2 + alpha_f) * beta_f.
        design = make_design(2, 2)
        precision = build_igmrf_precision(2, 2)
        hp = HyperParams(alpha_f=10.0, beta_f=0.01)
        f = np.full(4, 7.0)
        y = f.copy()
        rng = np.random.default_rng(5)
        draws = np.array([
            sample_kappas(y, f, np.zeros(3), design, precision, hp, rng).kappa_f
            for _ in range(50000)
        ])
        expected = (2.0 + 10.0) * 0.01
        assert abs(draws.mean() - expected) / expected < 0.02


def random_mask_precision(n1, n2, seed):
    rng = np.random.default_rng(seed)
    mask = SpotMask.from_2d(rng.integers(0, 2, size=(n1, n2)).astype(np.int8))
    return build_higmrf_precision(n1, n2, mask, 50.0)


class TestSampleFieldGivenGamma:
    def check_mean(self, n1, n2, precision, solver):
        n = n1 * n2
        design = make_design(n1, n2)
        noise = NoiseParams(kappa_l=2.0, kappa_f=0.5)
        rng = np.random.default_rng(14)
        y = rng.standard_normal(n)
        gamma = rng.standard_normal(3) * 0.1
        a = noise.kappa_l * np.eye(n) + noise.kappa_f * precision.matrix.toarray()
        expected = np.linalg.solve(a, noise.kappa_l * (y - design @ gamma))
        got = sample_field_given_gamma(y, gamma, noise, precision, design, ZeroRng(), solver)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def check_covariance(self, n1, n2, precision, solver):
        n = n1 * n2
        design = make_design(n1, n2)
        noise = NoiseParams(kappa_l=2.0, kappa_f=1.5)
        y = np.linspace(-0.3, 0.4, n)
        a = noise.kappa_l * np.eye(n) + noise.kappa_f * precision.matrix.toarray()
        sigma = np.linalg.inv(a)
        rng = np.random.default_rng(15)
        draws = np.array([
            sample_field_given_gamma(y, np.zeros(3), noise, precision, design, rng, solver)
            for _ in range(20000)
        ])
        err = np.linalg.norm(np.cov(draws.T) - sigma) / np.linalg.norm(sigma)
        assert err < 0.05

    def test_mean_matches_dense_solve(self):
        # spectral path, including single-row and single-column lattices
        for n1, n2 in [(1, 5), (5, 1), (2, 2), (3, 7), (8, 8)]:
            self.check_mean(n1, n2, build_igmrf_precision(n1, n2), SpectralSolver(n1, n2))

    def test_superlu_mean_matches_dense_solve(self):
        for n1, n2, seed in [(1, 5, 1), (4, 4, 2), (3, 7, 3), (8, 8, 4)]:
            precision = random_mask_precision(n1, n2, seed)
            self.check_mean(n1, n2, precision, SuperLUSolver(precision))

    def test_draw_covariance_is_inverse_system(self):
        self.check_covariance(2, 2, build_igmrf_precision(2, 2), SpectralSolver(2, 2))

    def test_superlu_draw_covariance_is_inverse_system(self):
        precision = random_mask_precision(2, 3, 8)
        self.check_covariance(2, 3, precision, SuperLUSolver(precision))


class TestGetBinaryImage:
    def test_constant_field_is_all_spots(self):
        # sigma = 0 and f == mu, so the >= comparison marks every pixel.
        mask = get_binary_image(Raster.from_2d(np.full((4, 4), 2.0)), h=0.1, window=3)
        assert mask.data.sum() == 16

    def test_bright_pixel_detected(self):
        x = np.zeros((5, 5))
        x[2, 2] = 10.0
        mask = get_binary_image(Raster.from_2d(x), h=0.5, window=5).to_2d()
        assert mask[2, 2] == 1
        assert mask[0, 0] == 0

    def test_threshold_scales_with_h(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, 8))
        r = Raster.from_2d(x)
        low = get_binary_image(r, h=0.0, window=5).data.sum()
        high = get_binary_image(r, h=2.0, window=5).data.sum()
        assert high < low

    def test_affine_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((6, 6))
        a = get_binary_image(Raster.from_2d(x), h=0.3, window=3)
        b = get_binary_image(Raster.from_2d(3.0 * x + 5.0), h=0.3, window=3)
        np.testing.assert_array_equal(a.data, b.data)


class TestDenoise:
    def make_input(self, seed=21, n=12):
        rng = np.random.default_rng(seed)
        x = np.zeros((n, n))
        x[n // 2, n // 2] = 1.0
        x[2, 3] = 0.8
        return Raster.from_2d(x + 0.05 * rng.standard_normal((n, n)))

    def test_deterministic_under_seed(self):
        y = self.make_input()
        hp = HyperParams(n_iter=20, burn_in=10, seed=42)
        a = denoise(y, hp, HIGMRF)
        b = denoise(y, hp, HIGMRF)
        np.testing.assert_array_equal(a.posterior_mean.data, b.posterior_mean.data)
        np.testing.assert_array_equal(a.final_mask.data, b.final_mask.data)
        np.testing.assert_array_equal(a.theta_trace, b.theta_trace)

    def test_constant_input_passes_through(self):
        y = Raster.from_2d(np.full((6, 6), 3.25))
        hp = HyperParams(n_iter=10, burn_in=5)
        out = denoise(y, hp, IGMRF).posterior_mean
        np.testing.assert_array_equal(out.data, y.data)

    def test_trace_shapes(self):
        y = self.make_input()
        hp = HyperParams(n_iter=30, burn_in=12)
        res = denoise(y, hp, HIGMRF)
        assert res.theta_trace.shape == (30, 2)
        assert res.gamma_trace.shape == (30, 3)

    def test_igmrf_never_updates_mask(self):
        y = self.make_input()
        hp = HyperParams(n_iter=10, burn_in=5)
        res = denoise(y, hp, IGMRF)
        assert res.final_mask.data.sum() == 0

    def test_higmrf_flags_the_spot(self):
        y = self.make_input()
        hp = HyperParams(n_iter=20, burn_in=10, window=11)
        res = denoise(y, hp, HIGMRF)
        assert res.final_mask.to_2d()[6, 6] == 1

    def test_reduces_noise_on_synthetic_spot(self):
        rng = np.random.default_rng(30)
        truth = np.zeros((15, 15))
        truth[7, 7] = 1.0
        truth[3, 10] = 0.7
        y = truth + 0.1 * rng.standard_normal((15, 15))
        res = denoise(Raster.from_2d(y), HyperParams(n_iter=60, burn_in=30), HIGMRF)
        err_in = np.sqrt(((y - truth) ** 2).mean())
        err_out = np.sqrt(((res.posterior_mean.to_2d() - truth) ** 2).mean())
        assert err_out < err_in

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            denoise(self.make_input(), HyperParams(), "median")

    def test_invalid_hyper_params_rejected(self):
        with pytest.raises(ValueError):
            denoise(self.make_input(), HyperParams(n_iter=5, burn_in=5))


class TestSweepStationarity:
    def test_sweep_preserves_stationary_moments(self):
        """Run the sweep plus data resampling on a 2x2 lattice.

        Resampling y ~ N(Z gamma + f, kappa_l^-1 I) between sweeps makes the
        chain stationary for the joint implied by the conditionals.  Under
        that joint the marginal mean of kappa_l is alpha_l * beta_l; the
        kappa_f conditional's N/2 shape term corresponds to a field
        pseudo-prior with an extra kappa_f^(1/2) factor (Q has rank N-1), so
        the stationary mean of kappa_f is (alpha_f + 1/2) * beta_f.
        """
        hp = HyperParams(alpha_l=2.0, beta_l=0.5, alpha_f=3.0, beta_f=0.25,
                         gamma_precision=1.0)
        design = make_design(2, 2)
        precision = build_igmrf_precision(2, 2)
        solver = SpectralSolver(2, 2)
        rng = np.random.default_rng(123)
        gamma = rng.standard_normal(3)
        noise = NoiseParams(rng.gamma(hp.alpha_l, hp.beta_l),
                            rng.gamma(hp.alpha_f, hp.beta_f))
        f = rng.standard_normal(4) * 0.5
        kl, kf = [], []
        for _ in range(15000):
            y = design @ gamma + f + rng.standard_normal(4) / np.sqrt(noise.kappa_l)
            gamma = sample_gamma(y, f, noise.kappa_l, design, hp.gamma_precision, rng)
            noise = sample_kappas(y, f, gamma, design, precision, hp, rng)
            f = sample_field_given_gamma(y, gamma, noise, precision, design, rng, solver)
            kl.append(noise.kappa_l)
            kf.append(noise.kappa_f)
        kl_mean = np.mean(kl[1000:])
        kf_mean = np.mean(kf[1000:])
        assert abs(kl_mean - hp.alpha_l * hp.beta_l) / (hp.alpha_l * hp.beta_l) < 0.05
        assert abs(kf_mean - (hp.alpha_f + 0.5) * hp.beta_f) / ((hp.alpha_f + 0.5) * hp.beta_f) < 0.03
