"""Tests for the classical comparison filters."""

import numpy as np
import pytest

from smfdenoise.baselines import (
    FilterConfig,
    average_filter,
    gaussian_filter,
    gaussian_kernel,
    nlm_filter,
    wiener_filter,
)
from smfdenoise.lattice import Raster


def nlm_oracle(x, patch, search, h):
    """Literal triple-loop non-local means over an edge-padded image."""
    n1, n2 = x.shape
    ph, sh = patch // 2, search // 2
    pad = ph + sh
    xp = np.pad(x, pad, mode="edge")
    out = np.zeros_like(x)
    for i in range(n1):
        for j in range(n2):
            num = den = 0.0
            for dr in range(-sh, sh + 1):
                for dc in range(-sh, sh + 1):
                    ssd = 0.0
                    for u in range(-ph, ph + 1):
                        for v in range(-ph, ph + 1):
                            a = xp[pad + i + u, pad + j + v]
                            b = xp[pad + i + dr + u, pad + j + dc + v]
                            ssd += (a - b) ** 2
                    w = np.exp(-ssd / (h * h))
                    num += w * xp[pad + i + dr, pad + j + dc]
                    den += w
            out[i, j] = num / den
    return out


class TestGaussianKernel:
    def test_normalized_and_symmetric(self):
        k = gaussian_kernel(1.0, 5)
        assert abs(k.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(k, k.T)
        np.testing.assert_allclose(k, k[::-1, ::-1])

    def test_peak_at_center(self):
        k = gaussian_kernel(0.8, 5)
        assert k[2, 2] == k.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_kernel(1.0, 4)
        with pytest.raises(ValueError):
            gaussian_kernel(0.0, 5)


class TestLinearFilters:
    def test_constant_preserved(self):
        y = Raster.from_2d(np.full((7, 7), 4.2))
        np.testing.assert_allclose(gaussian_filter(y, sigma=1.0, size=5).data, y.data, atol=1e-12)
        np.testing.assert_allclose(average_filter(y, size=3).data, y.data, atol=1e-12)

    def test_average_impulse_response(self):
        x = np.zeros((7, 7))
        x[3, 3] = 9.0
        out = average_filter(Raster.from_2d(x), size=3).to_2d()
        np.testing.assert_allclose(out[2:5, 2:5], 1.0)
        assert out[0, 0] == 0.0

    def test_gaussian_smooths_noise(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((20, 20))
        out = gaussian_filter(Raster.from_2d(x), sigma=1.0, size=5).to_2d()
        assert out.var() < x.var()

    def test_mean_approximately_preserved(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((16, 16)) + 3.0
        out = average_filter(Raster.from_2d(x), size=3).to_2d()
        assert abs(out.mean() - x.mean()) < 0.1


class TestWiener:
    def test_constant_input_unchanged(self):
        y = Raster.from_2d(np.full((6, 6), 1.5))
        np.testing.assert_allclose(wiener_filter(y, size=5).data, y.data, atol=1e-12)

    def test_reduces_noise_variance(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((24, 24))
        out = wiener_filter(Raster.from_2d(x), size=5).to_2d()
        assert out.var() < 0.5 * x.var()

    def test_preserves_strong_edges_better_than_average(self):
        x = np.zeros((12, 12))
        x[:, 6:] = 10.0
        rng = np.random.default_rng(34)
        noisy = x + 0.1 * rng.standard_normal((12, 12))
        wi = wiener_filter(Raster.from_2d(noisy), size=3).to_2d()
        av = average_filter(Raster.from_2d(noisy), size=3).to_2d()
        edge = np.s_[:, 5:7]
        assert np.abs(wi[edge] - x[edge]).mean() < np.abs(av[edge] - x[edge]).mean()

    def test_size_validation(self):
        with pytest.raises(ValueError):
            wiener_filter(Raster.from_2d(np.zeros((4, 4))), size=2)


class TestNlm:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((6, 7)) * 0.2
        got = nlm_filter(Raster.from_2d(x), patch=3, search=5, h=0.4).to_2d()
        np.testing.assert_allclose(got, nlm_oracle(x, 3, 5, 0.4), atol=1e-10)

    def test_constant_preserved(self):
        y = Raster.from_2d(np.full((8, 8), 2.5))
        out = nlm_filter(y, patch=5, search=11, h=0.1)
        np.testing.assert_allclose(out.data, y.data, atol=1e-12)

    def test_smooths_noise(self):
        rng = np.random.default_rng(36)
        x = 0.05 * rng.standard_normal((16, 16))
        out = nlm_filter(Raster.from_2d(x), patch=3, search=7, h=0.3).to_2d()
        assert out.var() < x.var()

    def test_parameter_validation(self):
        y = Raster.from_2d(np.zeros((6, 6)))
        with pytest.raises(ValueError):
            nlm_filter(y, patch=2, search=11, h=0.1)
        with pytest.raises(ValueError):
            nlm_filter(y, patch=5, search=4, h=0.1)
        with pytest.raises(ValueError):
            nlm_filter(y, patch=5, search=11, h=0.0)


class TestFilterConfig:
    def test_defaults_validate(self):
        FilterConfig().validate()

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            FilterConfig(wiener_size=4).validate()

    def test_rejects_non_positive_h(self):
        with pytest.raises(ValueError):
            FilterConfig(nlm_h=0.0).validate()
