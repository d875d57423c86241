"""Tests for the Gibbs sweep components, the full chain and the chain runner."""

import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from smfdenoise import sampler
from smfdenoise.lattice import (
    Raster,
    SpotMask,
    build_higmrf_precision,
    build_igmrf_precision,
)
from smfdenoise.model import HyperParams, NoiseParams, SamplerNumericalError, make_design
from smfdenoise.sampler import (
    HIGMRF,
    IGMRF,
    BandedCholeskySolver,
    SpectralSolver,
    SuperLUSolver,
    denoise,
    field_solver,
    get_binary_image,
    run_chains,
    run_jobs,
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
        got = sample_gamma(self.y, self.f, kappa_l, self.design, z.T @ z, gp, ZeroRng())
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_covariance_empirically(self):
        kappa_l, gp = 4.0, 0.5
        z = self.design
        c = np.linalg.inv(kappa_l * z.T @ z + gp * np.eye(3))
        rng = np.random.default_rng(3)
        draws = np.array([
            sample_gamma(self.y, self.f, kappa_l, self.design, z.T @ z, gp, rng)
            for _ in range(20000)
        ])
        np.testing.assert_allclose(np.cov(draws.T), c, atol=5e-3)

    def test_not_positive_definite_is_numerical_error(self):
        # a negative definite Z^T Z stands in for any system dpotrf rejects
        with pytest.raises(SamplerNumericalError, match="trend posterior"):
            sample_gamma(self.y, self.f, 4.0, self.design, -np.eye(3), 0.5, ZeroRng())


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

    def test_banded_mean_matches_dense_solve(self):
        # band along the rows (n2 <= n1) and along the columns (transposed);
        # kd = 68 at 34 x 40 is past 64, where dpbtrf's block updates outgrow 32 x 32
        for n1, n2, seed in [(1, 5, 1), (5, 1, 5), (3, 40, 6), (40, 3, 7), (8, 8, 4),
                             (34, 40, 9), (40, 34, 10)]:
            precision = random_mask_precision(n1, n2, seed)
            self.check_mean(n1, n2, precision, BandedCholeskySolver(precision))

    def test_draw_covariance_is_inverse_system(self):
        self.check_covariance(2, 2, build_igmrf_precision(2, 2), SpectralSolver(2, 2))

    def test_superlu_draw_covariance_is_inverse_system(self):
        precision = random_mask_precision(2, 3, 8)
        self.check_covariance(2, 3, precision, SuperLUSolver(precision))

    def test_banded_draw_covariance_is_inverse_system(self):
        for n1, n2 in [(2, 3), (3, 2)]:
            precision = random_mask_precision(n1, n2, 8)
            self.check_covariance(n1, n2, precision, BandedCholeskySolver(precision))


def csr_band(precision, n1, n2, noise):
    """The lower band of A = kappa_l I + kappa_f Q, scattered entry by entry
    from Q's CSR form, with pixels ordered along the shorter side."""
    n = n1 * n2
    kd = min(2 * min(n1, n2), n - 1)
    order = np.arange(n).reshape(n1, n2).T.ravel() if n2 > n1 else np.arange(n)
    rank = np.argsort(order)
    q = precision.matrix
    i = rank[np.repeat(np.arange(n), np.diff(q.indptr))]
    j = rank[q.indices]
    lower = i >= j
    band = np.zeros((kd + 1, n))
    band[(i - j)[lower], j[lower]] = noise.kappa_f * q.data[lower]
    band[0] += noise.kappa_l
    return band


class TestBandAssembly:
    @pytest.mark.parametrize("n1, n2", [(1, 7), (7, 1), (20, 33), (33, 20), (30, 30)])
    @pytest.mark.parametrize("lam", [1.5, 50.0])
    def test_band_from_stencil_equals_band_from_csr(self, monkeypatch, n1, n2, lam):
        bands = []
        factor = sampler.dpbtrf
        def dpbtrf(ab, **kwargs):
            bands.append(ab.copy())
            return factor(ab, **kwargs)
        monkeypatch.setattr(sampler, "dpbtrf", dpbtrf)
        rng = np.random.default_rng(n1 * n2)
        solver = None
        for _ in range(2):  # the second sweep reuses the factored band
            mask = SpotMask.from_2d(rng.integers(0, 2, size=(n1, n2)))
            precision = build_higmrf_precision(n1, n2, mask, lam)
            solver = solver or BandedCholeskySolver(precision)
            noise = NoiseParams(kappa_l=rng.gamma(5.0), kappa_f=rng.gamma(2.0))
            solver.solve(precision, noise, rng.standard_normal(n1 * n2))
            np.testing.assert_array_equal(bands[-1], csr_band(precision, n1, n2, noise))


class TestFieldSolver:
    def test_band_half_width_selects_the_higmrf_solver(self):
        # kd = 2 min(n1, n2): 256 at 128 x 300 stays banded, 258 at 129 x 129 does not
        for n1, n2, expected in [(4, 4, BandedCholeskySolver), (64, 64, BandedCholeskySolver),
                                 (128, 300, BandedCholeskySolver),
                                 (300, 128, BandedCholeskySolver),
                                 (129, 129, SuperLUSolver)]:
            precision = build_igmrf_precision(n1, n2)
            assert type(field_solver(HIGMRF, n1, n2, precision)) is expected
        precision = build_igmrf_precision(4, 4)
        assert type(field_solver(IGMRF, 4, 4, precision)) is SpectralSolver

    def test_superlu_factor_failure_is_numerical_error(self, monkeypatch):
        def splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(sampler, "splu", splu)
        precision = random_mask_precision(4, 4, 2)
        with pytest.raises(SamplerNumericalError):
            SuperLUSolver(precision).solve(precision, NoiseParams(2.0, 0.5), np.ones(16))


def set_blas_threads(count):
    """Set every OpenBLAS that the sampler caps to ``count`` threads and
    return the counts in force before, one per library."""
    return [setter(count) for setter in sampler._blas_setters]


def restore_blas_threads(counts):
    """Give each OpenBLAS back the count that ``set_blas_threads`` returned."""
    for setter, count in reversed(list(zip(sampler._blas_setters, counts))):
        setter(count)


class TestOneBlasThread:
    """The banded factor and the whole chain run on one BLAS thread, in
    scipy's OpenBLAS and in NumPy's, and give the caller's counts back.
    ``openblas_set_num_threads_local`` returns the count it replaces, which
    is how these tests read it."""

    @pytest.fixture
    def set_threads(self):
        if not sampler._blas_setters:
            pytest.skip("no OpenBLAS exports openblas_set_num_threads_local")
        callers = set_blas_threads(2)
        yield set_blas_threads
        restore_blas_threads(callers)

    @pytest.fixture
    def problem(self):
        # kd = 68, past the width where dpbtrf's BLAS-3 calls go threaded
        precision = random_mask_precision(34, 40, 11)
        return BandedCholeskySolver(precision), precision

    def test_factor_runs_on_one_thread_and_restores_the_count(self, set_threads, problem,
                                                              monkeypatch):
        seen = []
        factor = sampler.dpbtrf
        def dpbtrf(ab, **kwargs):
            seen.append(set_threads(1))  # the count in force during the factor
            return factor(ab, **kwargs)
        monkeypatch.setattr(sampler, "dpbtrf", dpbtrf)
        solver, precision = problem
        solver.solve(precision, NoiseParams(2.0, 0.5), np.ones(precision.n))
        ones = [1] * len(sampler._blas_setters)
        assert seen == [ones]
        assert set_threads(2) == [2] * len(ones)

    def test_failed_factor_restores_the_count(self, set_threads, problem, monkeypatch):
        def dpbtrf(ab, **kwargs):
            return ab, 1  # leading minor 1 not positive definite
        monkeypatch.setattr(sampler, "dpbtrf", dpbtrf)
        solver, precision = problem
        with pytest.raises(SamplerNumericalError):
            solver.solve(precision, NoiseParams(2.0, 0.5), np.ones(precision.n))
        assert set_threads(2) == [2] * len(sampler._blas_setters)

    @pytest.mark.parametrize("variant", [IGMRF, HIGMRF])
    def test_chain_runs_on_one_thread_and_restores_the_counts(self, set_threads,
                                                              monkeypatch, variant):
        # the spectral solve's matmuls and the Z^T products run on NumPy's
        # OpenBLAS, so the whole sweep loop is capped, not only the factor
        seen = []
        draw = sampler.sample_kappas
        def sample_kappas(*args):
            seen.append(set_threads(1))
            return draw(*args)
        monkeypatch.setattr(sampler, "sample_kappas", sample_kappas)
        denoise(TestDenoise().make_input(), HyperParams(n_iter=4, burn_in=2), variant)
        assert seen == [[1] * len(sampler._blas_setters)] * 4
        assert set_threads(2) == [2] * len(sampler._blas_setters)

    def test_two_setters_of_one_library_restore_its_count(self, monkeypatch):
        # a NumPy and a scipy that share one OpenBLAS give two setters of one
        # count; restoring in reverse order leaves it as it was
        count = [3]
        def setter(n):
            count[0], old = n, count[0]
            return old
        monkeypatch.setattr(sampler, "_blas_setters", [setter, setter])
        with sampler._one_blas_thread():
            assert count == [1]
        assert count == [3]

    def test_solve_runs_without_a_setter(self, monkeypatch):
        monkeypatch.setattr(sampler, "_blas_setters", [])
        precision = random_mask_precision(34, 40, 12)
        TestSampleFieldGivenGamma().check_mean(34, 40, precision,
                                               BandedCholeskySolver(precision))


def uncached_window_sums(x, half):
    """Window sums, sums of squares and counts, with every window bound
    computed afresh; the reference for the cached bounds."""
    n1, n2 = x.shape
    c1 = np.zeros((n1 + 1, n2 + 1))
    c2 = np.zeros((n1 + 1, n2 + 1))
    c1[1:, 1:] = x.cumsum(0).cumsum(1)
    c2[1:, 1:] = (x * x).cumsum(0).cumsum(1)
    i = np.arange(n1)[:, None]
    j = np.arange(n2)[None, :]
    r0, r1 = np.clip(i - half, 0, n1), np.clip(i + half + 1, 0, n1)
    s0, s1 = np.clip(j - half, 0, n2), np.clip(j + half + 1, 0, n2)
    def box(c):
        return c[r1, s1] - c[r0, s1] - c[r1, s0] + c[r0, s0]
    return box(c1), box(c2), (r1 - r0) * (s1 - s0)


class TestGetBinaryImage:
    @pytest.mark.parametrize("n1, n2, window", [(5, 7, 9), (7, 5, 15), (1, 6, 3), (12, 12, 9),
                                                (30, 30, 9), (3, 3, 101)])
    def test_cached_windows_match_uncached_bit_for_bit(self, n1, n2, window):
        rng = np.random.default_rng(n1 * n2 + window)
        for _ in range(2):  # the second call reads the cached bounds
            x = rng.standard_normal((n1, n2))
            got = sampler._clipped_window_sums(x, window // 2)
            for a, b in zip(got, uncached_window_sums(x, window // 2)):
                np.testing.assert_array_equal(a, b)
            s1, s2, cnt = uncached_window_sums(x, window // 2)
            mu = s1 / cnt
            want = x >= mu + 0.1 * np.sqrt(np.maximum(s2 / cnt - mu * mu, 0.0))
            np.testing.assert_array_equal(get_binary_image(x, 0.1, window).to_2d(), want)

    def test_constant_field_is_all_spots(self):
        # sigma = 0 and f == mu, so the >= comparison marks every pixel.
        mask = get_binary_image(np.full((4, 4), 2.0), h=0.1, window=3)
        assert mask.data.sum() == 16

    def test_bright_pixel_detected(self):
        x = np.zeros((5, 5))
        x[2, 2] = 10.0
        mask = get_binary_image(x, h=0.5, window=5).to_2d()
        assert mask[2, 2] == 1
        assert mask[0, 0] == 0

    def test_threshold_scales_with_h(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, 8))
        low = get_binary_image(x, h=0.0, window=5).data.sum()
        high = get_binary_image(x, h=2.0, window=5).data.sum()
        assert high < low

    def test_affine_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((6, 6))
        a = get_binary_image(x, h=0.3, window=3)
        b = get_binary_image(3.0 * x + 5.0, h=0.3, window=3)
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


class TestNoSparseMatrixPerSweep:
    @pytest.mark.parametrize("variant", [IGMRF, HIGMRF])
    def test_sparse_constructions_do_not_grow_with_sweeps(self, monkeypatch, variant):
        # 12 x 12 is a banded lattice; SuperLU, past the band bound, needs Q in CSR
        from scipy.sparse._compressed import _cs_matrix
        built = []
        init = _cs_matrix.__init__
        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(_cs_matrix, "__init__", counting_init)
        counts = []
        for n_iter in (4, 12):
            built.clear()
            denoise(TestDenoise().make_input(), HyperParams(n_iter=n_iter, burn_in=2), variant)
            counts.append(len(built))
        assert counts[0] == counts[1], counts


class TestNoValueScanPerSweep:
    @pytest.mark.parametrize("variant", [IGMRF, HIGMRF])
    def test_value_scans_do_not_grow_with_sweeps(self, monkeypatch, variant):
        # A sweep's draw stays a bare array, and its mask is a boolean
        # threshold, which SpotMask takes without the 0/1 scan.  So only the
        # chain's input and results are scanned: a Raster for finite values,
        # a SpotMask of non-boolean data for 0/1 values.
        scanned = []
        for cls in (Raster, SpotMask):
            def counting(self, check=cls.__post_init__):
                if getattr(self.data, "dtype", None) != np.bool_:
                    scanned.append(type(self).__name__)
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        counts = []
        for n_iter in (4, 12):
            y = TestDenoise().make_input()
            scanned.clear()
            denoise(y, HyperParams(n_iter=n_iter, burn_in=2), variant)
            counts.append(sorted(scanned))
        assert counts[0] == counts[1], counts


class TestRunChains:
    """``run_chains`` runs two chains or more on the process's warm fork
    pool, each worker on one BLAS thread; ``higmrf`` chains build the pool,
    ``igmrf`` chains only use it.  One chain, chains on one CPU, and every
    chain where ``fork`` is not offered, run in this process."""

    @pytest.fixture
    def probe(self, monkeypatch):
        """Stand in for ``denoise``: each chain reports its seed, its process
        and the BLAS thread counts it runs on, one per OpenBLAS."""
        def denoise(y, hp, variant):
            threads = set_blas_threads(1)  # returns the counts in force
            restore_blas_threads(threads)
            return hp.seed, os.getpid(), threads
        monkeypatch.setattr(sampler, "denoise", denoise)

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """Record each pool's size, start method, initializer and its
        arguments, and run its chains in this process, so that no worker
        starts."""
        pools = []

        class Executor:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                pools.append((max_workers, mp_context.get_start_method(), initializer, initargs))

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
        return pools

    def test_chains_match_denoise_seed_by_seed(self):
        y = TestDenoise().make_input()
        hp = HyperParams(n_iter=10, burn_in=5, seed=4)
        for variant in (IGMRF, HIGMRF):
            got = run_chains(y, hp, variant, 3)
            for c, res in enumerate(got):
                want = denoise(y, HyperParams(n_iter=10, burn_in=5, seed=4 + c), variant)
                np.testing.assert_array_equal(res.posterior_mean.data, want.posterior_mean.data)
                np.testing.assert_array_equal(res.final_mask.data, want.final_mask.data)
                np.testing.assert_array_equal(res.theta_trace, want.theta_trace)
                np.testing.assert_array_equal(res.gamma_trace, want.gamma_trace)
                # pickled back from a worker, yet read-only as a serial result is
                assert not res.posterior_mean.data.flags.writeable
                assert not res.final_mask.data.flags.writeable

    def check_workers_on_one_blas_thread(self, variant):
        callers = set_blas_threads(2)
        try:
            got = run_chains(None, HyperParams(seed=7), variant, 3)
            assert [seed for seed, _, _ in got] == [7, 8, 9]
            assert os.getpid() not in {pid for _, pid, _ in got}
            ones = [1] * len(sampler._blas_setters)
            assert [threads for _, _, threads in got] == [ones] * 3
            # the parent's counts are as they were
            assert set_blas_threads(2) == [2] * len(ones)
        finally:
            restore_blas_threads(callers)

    def test_higmrf_chains_run_in_workers_on_one_blas_thread(self, probe):
        self.check_workers_on_one_blas_thread(HIGMRF)

    def test_igmrf_chains_run_in_warm_workers_on_one_blas_thread(self, probe):
        run_chains(None, HyperParams(), HIGMRF, 3)
        self.check_workers_on_one_blas_thread(IGMRF)

    def test_igmrf_chains_run_in_this_process(self, probe, fake_pool):
        # without a warm pool: igmrf chains build none
        got = run_chains(None, HyperParams(seed=3), IGMRF, 4)
        assert [(seed, pid) for seed, pid, _ in got] == [(3 + c, os.getpid()) for c in range(4)]
        assert fake_pool == []

    def test_later_calls_reuse_the_workers(self, probe):
        workers = None
        for seed, variant in ((0, HIGMRF), (10, IGMRF), (20, HIGMRF)):
            pids = {pid for _, pid, _ in run_chains(None, HyperParams(seed=seed), variant, 4)}
            workers = workers or {p.pid for p in multiprocessing.active_children()}
            assert pids <= workers and os.getpid() not in pids
        assert {p.pid for p in multiprocessing.active_children()} == workers

    def test_forked_child_builds_its_own_pool(self, probe):
        run_chains(None, HyperParams(), HIGMRF, 2)
        pid = os.fork()
        if pid == 0:  # the child: its copy of the parent's pool has no threads
            code = 1
            try:
                signal.alarm(30)  # a chain on the copy would never return
                got = run_chains(None, HyperParams(seed=3), HIGMRF, 2)
                code = 0 if [seed for seed, _, _ in got] == [3, 4] else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_one_chain_runs_in_this_process(self, probe, fake_pool):
        got = run_chains(None, HyperParams(seed=3), HIGMRF, 1)
        assert [(seed, pid) for seed, pid, _ in got] == [(3, os.getpid())]
        assert fake_pool == []

    def test_chains_run_in_this_process_on_one_cpu(self, probe, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        got = run_chains(None, HyperParams(seed=3), HIGMRF, 2)
        assert [(seed, pid) for seed, pid, _ in got] == [(3, os.getpid()), (4, os.getpid())]
        assert fake_pool == []

    def test_chains_run_in_this_process_without_fork(self, probe, fake_pool, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        got = run_chains(None, HyperParams(seed=3), HIGMRF, 2)
        assert [(seed, pid) for seed, pid, _ in got] == [(3, os.getpid()), (4, os.getpid())]
        assert fake_pool == []

    @pytest.mark.parametrize("chains, cpus", [(3, 8), (5, 2), (4, 4)])
    def test_pool_size_is_chains_or_cpus_whichever_is_fewer(self, probe, fake_pool,
                                                             monkeypatch, chains, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        got = run_chains(None, HyperParams(seed=0), HIGMRF, chains)
        assert [seed for seed, _, _ in got] == list(range(chains))
        assert fake_pool == [(min(chains, cpus), "fork", sampler._init_worker, (os.getpid(),))]

    def test_pool_is_replaced_only_to_grow(self, probe, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        # igmrf chains never grow it either
        for variant, chains in ((HIGMRF, 2), (HIGMRF, 4), (IGMRF, 6), (HIGMRF, 3),
                                (HIGMRF, 2), (HIGMRF, 6)):
            run_chains(None, HyperParams(), variant, chains)
        assert [size for size, _, _, _ in fake_pool] == [2, 4, 6]

    def test_killed_worker_breaks_the_pool_rather_than_hanging(self, monkeypatch):
        parent = os.getpid()
        def denoise(y, hp, variant):
            if hp.seed == 1 and os.getpid() != parent:
                time.sleep(0.3)  # chain 0's result is in first
                os.kill(os.getpid(), signal.SIGKILL)
            return hp.seed
        monkeypatch.setattr(sampler, "denoise", denoise)
        with pytest.raises(BrokenProcessPool):
            run_chains(None, HyperParams(), HIGMRF, 2)
        # the broken pool is closed, and the next call builds a fresh one
        assert run_chains(None, HyperParams(seed=5), HIGMRF, 2) == [5, 6]
        # so too when the caller stops asking before the dead worker's turn
        results = run_jobs(sampler._run_chain,
                           [(None, HyperParams(seed=seed), HIGMRF) for seed in (0, 1)])
        assert next(results) == 0
        results.close()
        assert run_chains(None, HyperParams(seed=5), HIGMRF, 2) == [5, 6]

    def test_worker_error_reaches_the_caller_as_itself(self, monkeypatch):
        def denoise(y, hp, variant):
            if hp.seed == 1:
                raise SamplerNumericalError(f"chain {hp.seed} failed in {os.getpid()}")
            return hp.seed
        monkeypatch.setattr(sampler, "denoise", denoise)
        with pytest.raises(SamplerNumericalError, match=r"^chain 1 failed in \d+$") as err:
            run_chains(None, HyperParams(), HIGMRF, 2)
        assert int(str(err.value).rsplit(" ", 1)[1]) != os.getpid()


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
class TestPoolLifetime:
    """The pool's workers leave with the process that owns them, whether it
    exits or is killed."""

    # Runs two chains on a pool, prints the workers' pids, then exits or
    # waits to be killed.  Each chain sleeps, so that both workers take one.
    SCRIPT = """
import multiprocessing, sys, time
from smfdenoise import sampler
from smfdenoise.model import HyperParams
sampler.denoise = lambda y, hp, variant: time.sleep(0.2)
sampler.run_chains(None, HyperParams(), "higmrf", 2)
print(*sorted(p.pid for p in multiprocessing.active_children()), flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
"""

    def start(self, mode):
        src = str(Path(sampler.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-c", self.SCRIPT, mode], env=env,
                                stdout=subprocess.PIPE, text=True)
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 2
        return proc, workers

    def test_normal_exit_joins_the_workers(self):
        proc, workers = self.start("exit")
        assert proc.wait(timeout=30) == 0
        assert not any(running(pid) for pid in workers)

    def test_idle_workers_exit_when_the_parent_is_killed(self):
        proc, workers = self.start("wait")
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        deadline = time.monotonic() + 5.0
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in workers)


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
        ztz = design.T @ design
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
            gamma = sample_gamma(y, f, noise.kappa_l, design, ztz, hp.gamma_precision, rng)
            noise = sample_kappas(y, f, gamma, design, precision, hp, rng)
            f = sample_field_given_gamma(y, gamma, noise, precision, design, rng, solver)
            kl.append(noise.kappa_l)
            kf.append(noise.kappa_f)
        kl_mean = np.mean(kl[1000:])
        kf_mean = np.mean(kf[1000:])
        assert abs(kl_mean - hp.alpha_l * hp.beta_l) / (hp.alpha_l * hp.beta_l) < 0.05
        assert abs(kf_mean - (hp.alpha_f + 0.5) * hp.beta_f) / ((hp.alpha_f + 0.5) * hp.beta_f) < 0.03
