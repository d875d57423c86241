"""Tests for the Gibbs sweep components and the full chain."""

import numpy as np
import pytest
from conftest import (
    dense_difference_oracle,
    dense_q,
    draw_in_pixels,
    openblas_in_scipy_and_numpy,
    restore_blas_threads,
    run_fresh,
    set_blas_threads,
    spot_input,
)
from scipy import linalg, sparse

from smfdenoise import lattice, sampler
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
    SpectralPrecision,
    SuperLUSolver,
    denoise,
    field_solver,
    get_binary_image,
    sample_field_given_gamma,
    sample_gamma,
    sample_kappas,
)


class ZeroRng:
    """Stands in for a Generator; returns zero noise so draws equal their mean."""

    def standard_normal(self, n):
        return np.zeros(n)


class FixedRng:
    """Stands in for a Generator; returns the given standard normals."""

    def __init__(self, xi):
        self._xi = xi

    def standard_normal(self, n):
        assert n == self._xi.size
        return self._xi.copy()


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
        # a negative definite Z^T Z stands in for any system with a pivot
        # that is not positive
        with pytest.raises(SamplerNumericalError, match="trend posterior"):
            sample_gamma(self.y, self.f, 4.0, self.design, -np.eye(3), 0.5, ZeroRng())

    def test_nan_precision_is_numerical_error(self):
        # a NaN fails every pivot check, as it fails LAPACK's
        ztz = self.design.T @ self.design
        with pytest.raises(SamplerNumericalError, match="trend posterior"):
            sample_gamma(self.y, self.f, np.nan, self.design, ztz, 0.5, ZeroRng())

    @staticmethod
    def cholesky_draw(y, f, kappa_l, z, ztz, gp, xi):
        """m + L^-T xi from scipy.linalg's Cholesky factor L of the system."""
        c = linalg.cholesky(kappa_l * ztz + gp * np.eye(3), lower=True)
        m = kappa_l * linalg.cho_solve((c, True), z.T @ (y - f))
        return m + linalg.solve_triangular(c, xi, lower=True, trans="T")

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_equals_a_cholesky_draw(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((3, 3))
        ztz = m @ m.T + 0.05 * np.eye(3)  # a random SPD Z^T Z
        z = rng.standard_normal((9, 3))
        kappa_l, gp = rng.gamma(2.0, 5.0), rng.gamma(1.0, 1e-2)
        xi = rng.standard_normal(3)
        expected = self.cholesky_draw(self.y, self.f, kappa_l, z, ztz, gp, xi)
        got = sample_gamma(self.y, self.f, kappa_l, z, ztz, gp, FixedRng(xi))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 7, 30])
    def test_closed_form_on_a_singular_row_lattice(self, n):
        # on a 1 x n lattice the row coordinate is 0, so Z^T Z is singular
        # and only gamma_precision = 1e-3 makes the system definite
        design = make_design(1, n)
        rng = np.random.default_rng(n)
        y, f, xi = rng.standard_normal(n), 0.1 * rng.standard_normal(n), rng.standard_normal(3)
        ztz = design.T @ design
        assert np.linalg.matrix_rank(ztz) == 2
        expected = self.cholesky_draw(y, f, 40.0, design, ztz, 1e-3, xi)
        got = sample_gamma(y, f, 40.0, design, ztz, 1e-3, FixedRng(xi))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


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
            sample_kappas(y - design @ gamma - f, f, precision, hp, rng).kappa_l
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
            sample_kappas(y - design @ np.zeros(3) - f, f, precision, hp, rng).kappa_f
            for _ in range(50000)
        ])
        expected = (2.0 + 10.0) * 0.01
        assert abs(draws.mean() - expected) / expected < 0.02


def random_mask_precision(n1, n2, seed):
    rng = np.random.default_rng(seed)
    mask = SpotMask.from_2d(rng.integers(0, 2, size=(n1, n2)).astype(np.int8))
    return build_higmrf_precision(mask, 50.0)


class TestSampleFieldGivenGamma:
    def check_mean(self, n1, n2, precision, solver):
        n = n1 * n2
        design = make_design(n1, n2)
        noise = NoiseParams(kappa_l=2.0, kappa_f=0.5)
        rng = np.random.default_rng(14)
        y = rng.standard_normal(n)
        gamma = rng.standard_normal(3) * 0.1
        a = noise.kappa_l * np.eye(n) + noise.kappa_f * dense_q(n1, n2, precision)
        expected = np.linalg.solve(a, noise.kappa_l * (y - design @ gamma))
        got = draw_in_pixels(y, design @ gamma, noise, precision, ZeroRng(), solver)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def check_covariance(self, n1, n2, precision, solver):
        n = n1 * n2
        design = make_design(n1, n2)
        noise = NoiseParams(kappa_l=2.0, kappa_f=1.5)
        y = np.linspace(-0.3, 0.4, n)
        a = noise.kappa_l * np.eye(n) + noise.kappa_f * dense_q(n1, n2, precision)
        sigma = np.linalg.inv(a)
        rng = np.random.default_rng(15)
        draws = np.array([
            draw_in_pixels(y, design @ np.zeros(3), noise, precision, rng, solver)
            for _ in range(20000)
        ])
        err = np.linalg.norm(np.cov(draws.T) - sigma) / np.linalg.norm(sigma)
        assert err < 0.05

    def test_mean_matches_dense_solve(self):
        # spectral path, including single-row and single-column lattices
        for n1, n2 in [(1, 5), (5, 1), (2, 2), (3, 7), (8, 8)]:
            spectral = SpectralPrecision(n1, n2)
            self.check_mean(n1, n2, spectral, spectral)

    def test_superlu_mean_matches_dense_solve(self):
        # at 5 x 2, offsets (0, 1) and (1, -1) share diagonal 1
        for n1, n2, seed in [(1, 5, 1), (4, 4, 2), (3, 7, 3), (8, 8, 4), (5, 2, 11)]:
            precision = random_mask_precision(n1, n2, seed)
            self.check_mean(n1, n2, precision, SuperLUSolver())

    def test_banded_mean_matches_dense_solve(self):
        # the band is exact on tall and wide lattices, only wider on a wide
        # one; kd = 68 at 40 x 34 and 80 at 34 x 40 are past 64, where
        # dpbtrf's block updates outgrow 32 x 32; at 1 x 5, 1 x 2, 2 x 1 and
        # 2 x 2 the band is wider than the system
        for n1, n2, seed in [(1, 5, 1), (5, 1, 5), (3, 40, 6), (40, 3, 7), (8, 8, 4),
                             (34, 40, 9), (40, 34, 10), (1, 2, 12), (2, 1, 13), (2, 2, 14)]:
            precision = random_mask_precision(n1, n2, seed)
            self.check_mean(n1, n2, precision, BandedCholeskySolver(precision))

    def test_draw_covariance_is_inverse_system(self):
        spectral = SpectralPrecision(2, 2)
        self.check_covariance(2, 2, spectral, spectral)

    def test_superlu_draw_covariance_is_inverse_system(self):
        precision = random_mask_precision(2, 3, 8)
        self.check_covariance(2, 3, precision, SuperLUSolver())

    def test_banded_draw_covariance_is_inverse_system(self):
        for n1, n2 in [(2, 3), (3, 2)]:
            precision = random_mask_precision(n1, n2, 8)
            self.check_covariance(n1, n2, precision, BandedCholeskySolver(precision))


class TestSpectralPrecision:
    """The homogeneous Q in the DCT-II basis against its pixel-space form."""

    # together the lattices cover the path lengths 1, 2, 3, 7, 30, 64 and 128
    @pytest.mark.parametrize("n1, n2", [(1, 6), (6, 1), (5, 7), (12, 12), (2, 3), (30, 7),
                                        (128, 64)])
    def test_basis_forms_match_pixel_forms(self, n1, n2):
        n = n1 * n2
        spectral = SpectralPrecision(n1, n2)
        # the factors and Q's eigenvalues against an eigensolver's, signs fixed
        (l1, u1), (l2, u2) = path_eigenbasis(n1), path_eigenbasis(n2)
        np.testing.assert_allclose(spectral._u1, u1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spectral._u2, u2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spectral._q, ((l1[:, None] + l2[None, :]) ** 2).ravel(),
                                   rtol=0, atol=1e-12)
        precision = build_igmrf_precision(n1, n2)
        rng = np.random.default_rng(n)
        f, g = rng.standard_normal((2, n))
        c = spectral.to_basis(f)
        np.testing.assert_allclose(spectral.from_basis(c), f, rtol=0, atol=1e-13)
        np.testing.assert_allclose(np.linalg.norm(c), np.linalg.norm(f), rtol=1e-14)
        np.testing.assert_allclose(spectral.quad_form(c), precision.quad_form(f), rtol=1e-12)
        # a stack of rows goes through row by row
        rows = np.stack([f, g])
        np.testing.assert_allclose(spectral.to_basis(rows),
                                   [spectral.to_basis(f), spectral.to_basis(g)],
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n1, n2", [(1, 6), (6, 1), (5, 7), (7, 7)])
    def test_perturbation_covariance_is_the_system(self, n1, n2):
        # Both perturbations are linear in their standard normal draws, so
        # their covariances are exact: A in pixel space, and in the basis
        # U^T A U, which is diag(kappa_l + kappa_f q)
        n = n1 * n2
        spectral = SpectralPrecision(n1, n2)
        noise = NoiseParams(kappa_l=2.0, kappa_f=0.5)
        a = noise.kappa_l * np.eye(n) + noise.kappa_f * dense_q(n1, n2, spectral)
        u = spectral.to_basis(np.eye(n))  # row k is U^T e_k, so the array is U
        m = perturbation_matrix(build_igmrf_precision(n1, n2), noise, 2)
        np.testing.assert_allclose(m @ m.T, a, rtol=0, atol=1e-12 * np.abs(a).max())
        m = perturbation_matrix(spectral, noise, 1)
        cov = m @ m.T
        assert not (cov - np.diag(np.diag(cov))).any()
        np.testing.assert_allclose(cov, u.T @ a @ u, rtol=0, atol=1e-12 * np.abs(a).max())


def perturbation_matrix(precision, noise, n_draws):
    """M such that ``precision.perturbation`` is M eta, where eta stacks its
    ``n_draws`` standard normal draws of n values each: column k is the
    perturbation made from the k-th unit vector, cut into those draws."""
    class UnitRng:
        def __init__(self, e):
            self._draws = iter(e.reshape(n_draws, precision.n))

        def standard_normal(self, size):
            return next(self._draws)

    return np.column_stack([precision.perturbation(noise, UnitRng(e))
                            for e in np.eye(n_draws * precision.n)])


def path_eigenbasis(m):
    """The eigenvalues and eigenvectors of the Laplacian of a path of m
    pixels with free ends, from ``np.linalg.eigh``, with each column's sign
    flipped so that u_k(0) > 0, as in the sampler's DCT-II basis: LAPACK
    fixes no sign."""
    adj = np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    l, u = np.linalg.eigh(np.diag(adj.sum(axis=1)) - adj)
    return l, u * np.sign(u[0])


def pixel_igmrf_chain(y, hp):
    """The ``igmrf`` chain in pixel space, with the field draw made by dense
    products with the DCT-II basis U every sweep: the right-hand side goes
    into the basis, takes one standard normal per coefficient scaled by
    sqrt(a), is divided by a and comes back.  It is the reference that the
    coefficient-space chain must agree with.  Returns the posterior mean and
    the kappa and gamma traces."""
    n1, n2, n = y.n1, y.n2, y.n1 * y.n2
    lo, hi = y.data.min(), y.data.max()
    yn = (y.data - lo) / (hi - lo)
    (l1, u1), (l2, u2) = path_eigenbasis(n1), path_eigenbasis(n2)
    basis = np.kron(u1, u2)  # U, for pixels and coefficients in row-major order
    q_eigs = ((l1[:, None] + l2[None, :]) ** 2).ravel()
    design = make_design(n1, n2)
    ztz = design.T @ design
    precision = build_igmrf_precision(n1, n2)
    rng = np.random.default_rng(hp.seed)
    noise = NoiseParams(kappa_l=hp.alpha_l * hp.beta_l, kappa_f=hp.alpha_f * hp.beta_f)
    f = yn.copy()
    theta, gammas, accum = [], [], np.zeros(n)
    for t in range(1, hp.n_iter + 1):
        gamma = sample_gamma(yn, f, noise.kappa_l, design, ztz, hp.gamma_precision, rng)
        zg = design @ gamma
        noise = sample_kappas(yn - zg - f, f, precision, hp, rng)
        a = noise.kappa_l + noise.kappa_f * q_eigs
        b = basis.T @ (noise.kappa_l * (yn - zg)) + np.sqrt(a) * rng.standard_normal(n)
        f = basis @ (b / a)
        theta.append((noise.kappa_l, noise.kappa_f))
        gammas.append(gamma)
        if t > hp.burn_in:
            accum += zg + f
    return lo + accum / (hp.n_iter - hp.burn_in) * (hi - lo), np.array(theta), np.array(gammas)


class TestSpectralChain:
    @pytest.mark.parametrize("n1, n2", [(1, 9), (9, 1), (5, 7), (12, 12)])
    def test_matches_the_pixel_space_chain(self, n1, n2):
        # same RNG stream, so the two chains differ only at round-off
        rng = np.random.default_rng(n1 + 100 * n2)
        y = Raster.from_2d(rng.standard_normal((n1, n2)))
        hp = HyperParams(n_iter=60, burn_in=20, seed=13)
        got = denoise(y, hp, IGMRF)
        # a wide raster's chain runs on its transpose, and is mapped back
        if n2 > n1:
            mean, theta, gammas = pixel_igmrf_chain(Raster.from_2d(y.to_2d().T), hp)
            want = mean.reshape(n2, n1).T.ravel(), theta, gammas[:, [0, 2, 1]]
        else:
            want = pixel_igmrf_chain(y, hp)
        for a, b in zip((got.posterior_mean.data, got.theta_trace, got.gamma_trace), want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def csr_band(q, n1, n2, noise):
    """The lower band of A = kappa_l I + kappa_f Q, scattered entry by entry
    from Q's CSR form ``q``, with pixels in row-major order (kd = 2 n2)."""
    n = n1 * n2
    i = np.repeat(np.arange(n), np.diff(q.indptr))
    j = q.indices
    lower = i >= j
    band = np.zeros((2 * n2 + 1, n))
    band[(i - j)[lower], j[lower]] = noise.kappa_f * q.data[lower]
    band[0] += noise.kappa_l
    return band


class TestBandAssembly:
    @staticmethod
    def bands(monkeypatch, n1, n2, lam):
        """(band, oracle) for two sweeps of a banded solver: the band that
        ``dpbtrf`` got, and the oracle's Q scattered into the band."""
        bands, oracles = [], []
        factor = sampler.dpbtrf
        def dpbtrf(ab, **kwargs):
            bands.append(ab.copy())
            return factor(ab, **kwargs)
        monkeypatch.setattr(sampler, "dpbtrf", dpbtrf)
        rng = np.random.default_rng(n1 * n2)
        solver = None
        for _ in range(2):  # the second sweep reuses the factored band
            mask2d = rng.integers(0, 2, size=(n1, n2))
            precision = build_higmrf_precision(SpotMask.from_2d(mask2d), lam)
            solver = solver or BandedCholeskySolver(precision)
            noise = NoiseParams(kappa_l=rng.gamma(5.0), kappa_f=rng.gamma(2.0))
            solver.solve(precision, noise, rng.standard_normal(n1 * n2))
            d = dense_difference_oracle(n1, n2, mask2d, lam)
            oracles.append(csr_band(sparse.csr_matrix(d.T @ d), n1, n2, noise))
        return zip(bands, oracles, strict=True)

    @pytest.mark.parametrize("n1, n2", [(1, 7), (7, 1), (20, 33), (33, 20), (30, 30)])
    @pytest.mark.parametrize("lam", [1.5, 50.0])
    def test_band_from_stencil_equals_band_from_csr(self, monkeypatch, n1, n2, lam):
        # the band written from Q's closed-form entries on its seven offsets
        # against the oracle's Q scattered into the band; at these lam every
        # entry is exact, so the two agree bit for bit
        for band, oracle in self.bands(monkeypatch, n1, n2, lam):
            np.testing.assert_array_equal(band, oracle)

    @pytest.mark.parametrize("n1, n2", [(20, 33), (33, 20)])
    def test_band_at_an_inexact_lam_matches_band_from_csr(self, monkeypatch, n1, n2):
        # at lam = 7.3 the sums round, in another order than the oracle's
        # product; the largest relative difference measured was 4.3e-16
        for band, oracle in self.bands(monkeypatch, n1, n2, 7.3):
            np.testing.assert_allclose(band, oracle, rtol=1e-14, atol=0)


class TestFieldSolver:
    def test_band_half_width_selects_the_higmrf_solver(self):
        # kd = 2 n2: 256 at 300 x 128 stays banded, 258 at 129 x 129 and
        # 600 at 128 x 300, which denoise runs as 300 x 128, do not
        for n1, n2, expected in [(4, 4, BandedCholeskySolver), (64, 64, BandedCholeskySolver),
                                 (128, 300, SuperLUSolver),
                                 (300, 128, BandedCholeskySolver),
                                 (129, 129, SuperLUSolver)]:
            precision = build_igmrf_precision(n1, n2)
            assert type(field_solver(precision)) is expected

    def test_superlu_factor_failure_is_numerical_error(self, monkeypatch):
        def splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(sampler, "splu", splu)
        precision = random_mask_precision(4, 4, 2)
        with pytest.raises(SamplerNumericalError):
            SuperLUSolver().solve(precision, NoiseParams(2.0, 0.5), np.ones(16))


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
        # a 34 x 40 higmrf chain: kd = 68, past the width where dpbtrf's
        # BLAS-3 calls go threaded; the chain's scope is the factor's
        y = Raster.from_2d(np.random.default_rng(11).standard_normal((34, 40)))
        return lambda: denoise(y, HyperParams(n_iter=3, burn_in=1), HIGMRF)

    def test_factor_runs_on_one_thread_and_restores_the_count(self, set_threads, problem,
                                                              monkeypatch):
        seen = []
        factor = sampler.dpbtrf
        def dpbtrf(ab, **kwargs):
            seen.append(set_threads(1))  # the count in force during the factor
            return factor(ab, **kwargs)
        monkeypatch.setattr(sampler, "dpbtrf", dpbtrf)
        problem()
        ones = [1] * len(sampler._blas_setters)
        assert seen == [ones] * 3
        assert set_threads(2) == [2] * len(ones)

    def test_failed_factor_restores_the_count(self, set_threads, problem, monkeypatch):
        def dpbtrf(ab, **kwargs):
            return ab, 1  # leading minor 1 not positive definite
        monkeypatch.setattr(sampler, "dpbtrf", dpbtrf)
        with pytest.raises(SamplerNumericalError):
            problem()
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
        denoise(spot_input(), HyperParams(n_iter=4, burn_in=2), variant)
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


class TestLapackExtension:
    """The sampler loads scipy's LAPACK extension without importing
    ``scipy.linalg``, so either may be imported first."""

    CHECK = """
import numpy as np
from conftest import dense_q
from smfdenoise.lattice import SpotMask, build_higmrf_precision
from smfdenoise.model import NoiseParams

rng = np.random.default_rng(7)
precision = build_higmrf_precision(
    SpotMask.from_2d(rng.integers(0, 2, size=(30, 30)).astype(np.int8)), 50.0)
noise = NoiseParams(2.0, 0.5)
b = rng.standard_normal(900)
x = sampler.BandedCholeskySolver(precision).solve(precision, noise, b)
a = noise.kappa_l * np.eye(900) + noise.kappa_f * dense_q(30, 30, precision)
ab = np.zeros((61, 900), order="F")
for k in range(61):
    ab[k, :900 - k] = np.diagonal(a, -k)
chol, info = lapack.dpbtrf(ab, lower=1)
print(x.tobytes() == lapack.dpbtrs(chol, b, lower=1)[0].tobytes())
print(len(sampler._blas_setters))
"""

    @pytest.mark.parametrize("sampler_first", [True, False])
    def test_either_import_order_runs_scipy_lapack(self, sampler_first):
        imports = ["import smfdenoise.sampler as sampler", "from scipy.linalg import lapack"]
        if not sampler_first:
            imports.reverse()
        same, setters = run_fresh("\n".join(imports) + self.CHECK).splitlines()
        assert same == "True"
        if openblas_in_scipy_and_numpy():
            assert setters == "2"

    @pytest.mark.parametrize("setup, message", [
        ("sys.modules['scipy'] = None", "no scipy package was found"),
        # a scipy with an empty linalg directory, ahead of the real one
        ("sys.path.insert(0, sys.argv[1])", "linalg holds none"),
    ])
    def test_missing_extension_raises_import_error_naming_it(self, tmp_path, setup, message):
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        code = (f"import sys; {setup}\n"
                "try:\n    import smfdenoise.sampler\n"
                "except ImportError as exc:\n    print(exc)")
        out = run_fresh(code, str(tmp_path))
        assert "scipy.linalg._flapack" in out and message in out


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
    def test_deterministic_under_seed(self):
        y = spot_input()
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
        y = spot_input()
        hp = HyperParams(n_iter=30, burn_in=12)
        res = denoise(y, hp, HIGMRF)
        assert res.theta_trace.shape == (30, 2)
        assert res.gamma_trace.shape == (30, 3)

    def test_igmrf_never_updates_mask(self):
        y = spot_input()
        hp = HyperParams(n_iter=10, burn_in=5)
        res = denoise(y, hp, IGMRF)
        assert res.final_mask.data.sum() == 0

    def test_higmrf_flags_the_spot(self):
        y = spot_input()
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
            denoise(spot_input(), HyperParams(), "median")

    def test_invalid_hyper_params_rejected(self):
        with pytest.raises(ValueError):
            denoise(spot_input(), HyperParams(n_iter=5, burn_in=5))


class TestOrientation:
    @pytest.mark.parametrize("variant", [IGMRF, HIGMRF])
    @pytest.mark.parametrize("n1, n2", [(1, 9), (2, 3), (5, 7), (12, 40)])
    def test_wide_raster_runs_the_chain_of_its_transpose(self, variant, n1, n2):
        # a wide raster's chain is its transpose's chain, mapped back: the
        # mean and mask transposed, the row and column trend coefficients
        # swapped
        a = np.random.default_rng(n1 * n2).standard_normal((n1, n2))
        hp = HyperParams(n_iter=20, burn_in=10, seed=5)
        wide = denoise(Raster.from_2d(a), hp, variant)
        tall = denoise(Raster.from_2d(a.T), hp, variant)
        np.testing.assert_array_equal(wide.posterior_mean.to_2d(), tall.posterior_mean.to_2d().T)
        np.testing.assert_array_equal(wide.final_mask.to_2d(), tall.final_mask.to_2d().T)
        np.testing.assert_array_equal(wide.theta_trace, tall.theta_trace)
        np.testing.assert_array_equal(wide.gamma_trace, tall.gamma_trace[:, [0, 2, 1]])

    def test_field_solver_gets_a_tall_lattice(self, monkeypatch):
        shapes = []
        solver = sampler.field_solver
        def spy(precision):
            shapes.append((precision.n1, precision.n2))
            return solver(precision)
        monkeypatch.setattr(sampler, "field_solver", spy)
        y = np.random.default_rng(3).standard_normal((3, 300))
        denoise(Raster.from_2d(y), HyperParams(n_iter=2, burn_in=1), HIGMRF)
        assert shapes == [(300, 3)]

    def test_chain_past_the_band_bound_runs_on_superlu(self, monkeypatch):
        # 129 x 130 runs as 130 x 129, so kd = 258 > BAND_KD_MAX
        solvers = []
        solver = sampler.field_solver
        def spy(precision):
            solvers.append(solver(precision))
            return solvers[-1]
        monkeypatch.setattr(sampler, "field_solver", spy)
        a = np.random.default_rng(12).standard_normal((129, 130))
        hp = HyperParams(n_iter=2, burn_in=1, seed=5)
        wide = denoise(Raster.from_2d(a), hp, HIGMRF)
        tall = denoise(Raster.from_2d(a.T), hp, HIGMRF)
        assert [type(s) for s in solvers] == [SuperLUSolver, SuperLUSolver]
        assert np.all(np.isfinite(wide.theta_trace)) and np.all(np.isfinite(wide.gamma_trace))
        np.testing.assert_array_equal(wide.posterior_mean.to_2d(), tall.posterior_mean.to_2d().T)
        np.testing.assert_array_equal(wide.final_mask.to_2d(), tall.final_mask.to_2d().T)
        np.testing.assert_array_equal(wide.theta_trace, tall.theta_trace)
        np.testing.assert_array_equal(wide.gamma_trace, tall.gamma_trace[:, [0, 2, 1]])


class TestOnePrecisionBuildPerSweep:
    @pytest.mark.parametrize("n1, n2", [(12, 20), (20, 12)])
    def test_higmrf_builds_one_precision_per_sweep(self, monkeypatch, n1, n2):
        built = []
        init = lattice.PrecisionMatrix.__init__
        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        monkeypatch.setattr(lattice.PrecisionMatrix, "__init__", counting_init)
        y = Raster.from_2d(np.random.default_rng(4).standard_normal((n1, n2)))
        counts = []
        for n_iter in (4, 12):
            built.clear()
            denoise(y, HyperParams(n_iter=n_iter, burn_in=2), HIGMRF)
            counts.append(len(built))
        assert counts[1] - counts[0] == 8, counts


class TestNoSparseMatrixPerSweep:
    @pytest.mark.parametrize("variant", [IGMRF, HIGMRF])
    def test_sparse_constructions_do_not_grow_with_sweeps(self, monkeypatch, variant):
        # 12 x 12 is a banded lattice; SuperLU, past the band bound, needs A in CSC
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
            denoise(spot_input(), HyperParams(n_iter=n_iter, burn_in=2), variant)
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
            y = spot_input()
            scanned.clear()
            denoise(y, HyperParams(n_iter=n_iter, burn_in=2), variant)
            counts.append(sorted(scanned))
        assert counts[0] == counts[1], counts


class TestSweepStationarity:
    """Run a sweep plus data resampling on a small lattice.

    Resampling y ~ N(Z gamma + f, kappa_l^-1 I) between sweeps makes the
    chain stationary for the joint implied by the conditionals.  Under that
    joint the marginal mean of kappa_l is alpha_l * beta_l; the kappa_f
    conditional's N/2 shape term corresponds to a field pseudo-prior with an
    extra kappa_f^(1/2) factor (Q has rank N-1), so the stationary mean of
    kappa_f is (alpha_f + 1/2) * beta_f.
    """

    HP = HyperParams(alpha_l=2.0, beta_l=0.5, alpha_f=3.0, beta_f=0.25, gamma_precision=1.0)

    def test_sweep_preserves_stationary_moments(self):
        # the sweep igmrf chains run, in the DCT-II basis, on a 2x2 lattice;
        # the basis is orthonormal, so y's noise is drawn there with the
        # same law
        design = make_design(2, 2)
        ztz = design.T @ design
        precision = SpectralPrecision(2, 2)
        self.check_stationary_moments(precision, precision, precision.to_basis(design.T).T, ztz)

    def test_higmrf_sweep_with_a_fixed_mask_preserves_stationary_moments(self):
        # the pixel-space sweep higmrf chains run, on a banded 3x3 lattice; a
        # heterogeneous Q also has rank N-1, so the same holds with its mask
        # fixed.  The full higmrf chain has no joint target, since its mask
        # is a deterministic function of f.
        design = make_design(3, 3)
        mask = SpotMask.from_2d(np.random.default_rng(9).integers(0, 2, size=(3, 3)))
        precision = build_higmrf_precision(mask, 50.0)
        self.check_stationary_moments(precision, BandedCholeskySolver(precision), design,
                                      design.T @ design)

    def check_stationary_moments(self, precision, solver, design, ztz):
        hp, n = self.HP, precision.n
        rng = np.random.default_rng(123)
        gamma = rng.standard_normal(3)
        noise = NoiseParams(rng.gamma(hp.alpha_l, hp.beta_l),
                            rng.gamma(hp.alpha_f, hp.beta_f))
        f = rng.standard_normal(n) * 0.5
        kl, kf = [], []
        for _ in range(15000):
            y = design @ gamma + f + rng.standard_normal(n) / np.sqrt(noise.kappa_l)
            gamma = sample_gamma(y, f, noise.kappa_l, design, ztz, hp.gamma_precision, rng)
            zg = design @ gamma
            noise = sample_kappas(y - zg - f, f, precision, hp, rng)
            f = sample_field_given_gamma(noise.kappa_l * (y - zg), noise, precision, rng, solver)
            kl.append(noise.kappa_l)
            kf.append(noise.kappa_f)
        kl_mean = np.mean(kl[1000:])
        kf_mean = np.mean(kf[1000:])
        assert abs(kl_mean - hp.alpha_l * hp.beta_l) / (hp.alpha_l * hp.beta_l) < 0.05
        assert abs(kf_mean - (hp.alpha_f + 0.5) * hp.beta_f) / ((hp.alpha_f + 0.5) * hp.beta_f) < 0.03
