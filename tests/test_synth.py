"""Tests for the synthetic spot-image generator."""

import numpy as np
import pytest

from smfdenoise.synth import (
    Spot,
    SynthConfig,
    add_noise,
    generate_corpus,
    generate_truth,
    render_spots,
)


class TestRenderSpots:
    def test_no_spots_gives_zero_raster(self):
        out = render_spots(5, 5, [], psf_sigma=1.0)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_centered_spot_peaks_at_its_pixel(self):
        out = render_spots(9, 9, [Spot(4.0, 4.0, 1.0)], psf_sigma=1.2).to_2d()
        assert out[4, 4] == out.max()
        assert abs(out[4, 4] - 1.0) < 1e-12

    def test_far_spots_superpose(self):
        a = render_spots(20, 20, [Spot(3.0, 3.0, 0.8)], 1.0).data
        b = render_spots(20, 20, [Spot(16.0, 16.0, 0.6)], 1.0).data
        both = render_spots(
            20, 20, [Spot(3.0, 3.0, 0.8), Spot(16.0, 16.0, 0.6)], 1.0
        ).data
        np.testing.assert_allclose(both, a + b, atol=1e-12)

    def test_isotropy(self):
        out = render_spots(11, 11, [Spot(5.0, 5.0, 1.0)], 1.5).to_2d()
        np.testing.assert_allclose(out, out.T, atol=1e-12)


class TestGenerateTruth:
    def test_spot_count_in_range(self):
        cfg = SynthConfig(spots_min=2, spots_max=4)
        rng = np.random.default_rng(40)
        for _ in range(10):
            _, spots = generate_truth(cfg, rng)
            assert 2 <= len(spots) <= 4

    def test_amplitudes_and_centers_in_bounds(self):
        cfg = SynthConfig(n1=12, n2=18, amplitude_min=0.5, amplitude_max=1.0)
        _, spots = generate_truth(cfg, np.random.default_rng(42))
        for s in spots:
            assert 0.0 <= s.row <= 11.0
            assert 0.0 <= s.col <= 17.0
            assert 0.5 <= s.amplitude <= 1.0

    def test_truth_nonnegative(self):
        cfg = SynthConfig()
        truth, _ = generate_truth(cfg, np.random.default_rng(43))
        assert truth.data.min() >= 0.0


class TestAddNoise:
    def test_realized_snr_hits_target(self):
        cfg = SynthConfig()
        truth, _ = generate_truth(cfg, np.random.default_rng(44))
        noisy, realized = add_noise(truth, 7.3, np.random.default_rng(45))
        assert abs(realized - 7.3) < 1e-6
        assert noisy.data.shape == truth.data.shape

    def test_high_snr_approaches_truth(self):
        cfg = SynthConfig()
        truth, _ = generate_truth(cfg, np.random.default_rng(46))
        noisy, _ = add_noise(truth, 100.0, np.random.default_rng(47))
        err = np.sqrt(((noisy.data - truth.data) ** 2).mean())
        assert err < 1e-4 * truth.data.max()

    def test_constant_truth_rejected(self):
        from smfdenoise.lattice import Raster
        with pytest.raises(ValueError):
            add_noise(Raster.from_2d(np.zeros((4, 4))), 5.0, np.random.default_rng(48))


class TestGenerateCorpus:
    def test_count_and_snr_window(self):
        cfg = SynthConfig(n_images=5, snr_db_min=5.0, snr_db_max=10.0)
        pairs = generate_corpus(cfg)
        assert len(pairs) == 5
        for p in pairs:
            assert 5.0 <= p.target_snr_db <= 10.0
            assert abs(p.realized_snr_db - p.target_snr_db) < 0.1

    def test_deterministic_under_seed(self):
        cfg = SynthConfig(n_images=3, seed=9)
        a = generate_corpus(cfg)
        b = generate_corpus(cfg)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.truth.data, pb.truth.data)
            np.testing.assert_array_equal(pa.noisy.data, pb.noisy.data)
            assert pa.spots == pb.spots

    def test_different_seeds_differ(self):
        a = generate_corpus(SynthConfig(n_images=2, seed=1))
        b = generate_corpus(SynthConfig(n_images=2, seed=2))
        assert not np.array_equal(a[0].noisy.data, b[0].noisy.data)

    def test_images_mutually_independent(self):
        pairs = generate_corpus(SynthConfig(n_images=4, seed=3))
        assert not np.array_equal(pairs[0].noisy.data, pairs[1].noisy.data)


class TestSynthConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n1": 0},
        {"spots_min": 5, "spots_max": 3},
        {"amplitude_min": 1.0, "amplitude_max": 0.5},
        {"psf_sigma": 0.0},
        {"snr_db_min": 10.0, "snr_db_max": 5.0},
        {"n_images": -1},
        {"spots_min": 0, "spots_max": 0},
        {"n1": 1, "n2": 1},
        {"n_images": 0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs).validate()
