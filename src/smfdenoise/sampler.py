"""Gibbs sampler for the latent-field denoising model.

Each sweep draws the trend coefficients gamma, the precisions (kappa_l,
kappa_f) and the field f, and in the heterogeneous variant re-estimates the
spot mask by local thresholding and rebuilds the field precision from it.
The denoised image is the average of the post-burn-in noise-free
reconstructions (trend plus field).

Each chain builds one field solver for its lattice (``field_solver``):
``igmrf`` solves exactly in the DCT-II eigenbasis, and ``higmrf`` factors
A = kappa_l I + kappa_f Q afresh every sweep, with a banded LAPACK Cholesky
when the band half-width kd = min(2 min(n1, n2), n1 n2 - 1) is at most
``BAND_KD_MAX`` = 256 (any lattice up to 128 pixels on its shorter side) and
with symmetric-mode SuperLU otherwise.  The banded factor runs on one BLAS
thread, through OpenBLAS's ``openblas_set_num_threads_local`` where scipy's
LAPACK provides it.  Either factor failing raises ``SamplerNumericalError``.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import splu

from .lattice import (
    PrecisionMatrix,
    Raster,
    SpotMask,
    build_higmrf_precision,
    build_igmrf_precision,
)
from .model import HyperParams, NoiseParams, SamplerNumericalError, make_design

__all__ = [
    "DenoiseResult",
    "sample_gamma",
    "sample_kappas",
    "sample_field_given_gamma",
    "SpectralSolver",
    "SuperLUSolver",
    "BandedCholeskySolver",
    "field_solver",
    "get_binary_image",
    "denoise",
]

IGMRF = "igmrf"
HIGMRF = "higmrf"


@dataclass
class DenoiseResult:
    posterior_mean: Raster
    final_mask: SpotMask
    theta_trace: np.ndarray  # (T, 2): kappa_l, kappa_f per iteration
    gamma_trace: np.ndarray  # (T, 3)


def sample_gamma(y: np.ndarray, f: np.ndarray, kappa_l: float, z: np.ndarray,
                 gamma_precision: float, rng: np.random.Generator) -> np.ndarray:
    """Draw the trend coefficients from N(m, C) with
    C = (kappa_l Z^T Z + Q_gamma)^-1 and m = kappa_l C Z^T (y - f)."""
    a = kappa_l * (z.T @ z) + gamma_precision * np.eye(3)
    try:
        c = linalg.cho_factor(a, lower=True)
    except linalg.LinAlgError as exc:
        raise SamplerNumericalError("trend posterior system not positive definite") from exc
    m = kappa_l * linalg.cho_solve(c, z.T @ (y - f))
    # x = m + L^-T xi has covariance (L L^T)^-1 = C
    xi = rng.standard_normal(3)
    return m + linalg.solve_triangular(c[0], xi, lower=True, trans="T")


def sample_kappas(y: np.ndarray, f: np.ndarray, gamma: np.ndarray, design: np.ndarray,
                  precision: PrecisionMatrix, hp: HyperParams,
                  rng: np.random.Generator) -> NoiseParams:
    """Draw the two precisions from their conjugate gamma conditionals
    (shape-scale convention, mean alpha * beta)."""
    n = y.size
    r = y - design @ gamma - f
    beta_l_star = 1.0 / (0.5 * float(r @ r) + 1.0 / hp.beta_l)
    beta_f_star = 1.0 / (0.5 * precision.quad_form(f) + 1.0 / hp.beta_f)
    kappa_l = rng.gamma(shape=0.5 * n + hp.alpha_l, scale=beta_l_star)
    kappa_f = rng.gamma(shape=0.5 * n + hp.alpha_f, scale=beta_f_star)
    return NoiseParams(kappa_l=kappa_l, kappa_f=kappa_f)


def _path_laplacian(n: int) -> np.ndarray:
    """Graph Laplacian of a path of n pixels (free ends)."""
    adj = np.diag(np.ones(n - 1), 1)
    adj += adj.T
    return np.diag(adj.sum(axis=1)) - adj


class SpectralSolver:
    """Exact solve of A x = b, A = kappa_l I + kappa_f Q, for the homogeneous Q.

    That Q is L^2, where L = L1 (x) I + I (x) L2 is the free-boundary grid
    Laplacian and L1, L2 are the Laplacians of the lattice's two paths.  The
    product of their eigenbases U1, U2 (the DCT-II basis; Rue & Held 2005,
    section 2.6) diagonalizes Q with eigenvalues (l1_i + l2_j)^2, so a solve is
    two small matmuls in, one division and two matmuls out, with no factor.
    """

    def __init__(self, n1: int, n2: int):
        l1, self._u1 = np.linalg.eigh(_path_laplacian(n1))
        l2, self._u2 = np.linalg.eigh(_path_laplacian(n2))
        self._q_eigs = (l1[:, None] + l2[None, :]) ** 2

    def solve(self, precision: PrecisionMatrix, noise: NoiseParams,
              b: np.ndarray) -> np.ndarray:
        """Solve for the homogeneous ``precision`` of this lattice; its
        values are known in closed form, so they are not read."""
        c = self._u1.T @ b.reshape(self._q_eigs.shape) @ self._u2
        c /= noise.kappa_l + noise.kappa_f * self._q_eigs
        return (self._u1 @ c @ self._u2.T).ravel()


def _csr_rows(q: sparse.csr_matrix) -> np.ndarray:
    """The row of each stored entry of ``q``, in storage order."""
    return np.repeat(np.arange(q.shape[0]), np.diff(q.indptr))


class SuperLUSolver:
    """Sparse direct solve of A x = b, A = kappa_l I + kappa_f Q, for any Q.

    A is symmetric positive definite, so SuperLU orders on A + A^T and keeps
    the diagonal pivots.  Every Q of one lattice has the same sparsity
    pattern, so the diagonal's positions are read once, from the chain's
    first precision.
    """

    def __init__(self, precision: PrecisionMatrix):
        q = precision.matrix
        self._diag = np.flatnonzero(q.indices == _csr_rows(q))

    def solve(self, precision: PrecisionMatrix, noise: NoiseParams,
              b: np.ndarray) -> np.ndarray:
        q = precision.matrix
        data = noise.kappa_f * q.data
        data[self._diag] += noise.kappa_l
        # Q is symmetric, so its CSR arrays are also its CSC arrays.
        a = sparse.csc_matrix((data, q.indices, q.indptr), shape=q.shape)
        try:
            lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SamplerNumericalError(
                f"sparse factorization failed (n={precision.n}, "
                f"kappa_l={noise.kappa_l}, kappa_f={noise.kappa_f})") from exc
        return lu.solve(b)


def _half_width(n1: int, n2: int) -> int:
    """Band half-width of Q with pixels ordered along the shorter side:
    Q couples pixels up to two rows apart."""
    return min(2 * min(n1, n2), n1 * n2 - 1)


def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local``, which sets the BLAS
    thread count and returns the one it replaces, or None when the LAPACK
    behind ``dpbtrf`` does not export it (a build on another BLAS).  The count
    it sets is the calling thread's in OpenMP builds but the whole process's
    in pthreads builds, scipy's own wheels among them.  dlsym on the extension
    module's handle also searches the libraries that the module links, which
    is where scipy's OpenBLAS sits."""
    try:
        setter = ctypes.CDLL(linalg.lapack._flapack.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


_set_blas_threads_local = _blas_thread_setter()


@contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread and restore the previous count on the
    way out, raised or not.  In scipy's OpenBLAS, a pthreads build, the
    count is the whole process's, so chains on threads would need a lock
    around this scope.  Without a setter the body runs on the current count."""
    if _set_blas_threads_local is None:
        yield
        return
    previous = _set_blas_threads_local(1)
    try:
        yield
    finally:
        _set_blas_threads_local(previous)


class BandedCholeskySolver:
    """Banded Cholesky solve of A x = b, A = kappa_l I + kappa_f Q, for any Q.

    Ordered along the shorter lattice side (transposed when n2 > n1), A is a
    band matrix of half-width kd = ``_half_width(n1, n2)``, so LAPACK's
    ``dpbtrf``/``dpbtrs`` factor and solve it in O(n kd^2) with no ordering
    and no fill outside the band (Rue 2001; Rue & Held 2005, section 2.4).
    The lower band is one Fortran-ordered (kd + 1, n) array that is reused
    every sweep; a flat index map, built once per chain from the pattern of
    the chain's first precision, places each lower-triangle entry of Q in it.
    """

    def __init__(self, n1: int, n2: int, precision: PrecisionMatrix):
        n = n1 * n2
        kd = _half_width(n1, n2)
        # band position k holds pixel self._order[k]; pixel p sits at self._rank[p]
        self._order = (np.arange(n).reshape(n1, n2).T.ravel() if n2 > n1
                       else np.arange(n))
        self._rank = np.argsort(self._order)
        q = precision.matrix
        i, j = self._rank[_csr_rows(q)], self._rank[q.indices]
        self._lower = np.flatnonzero(i >= j)
        i, j = i[self._lower], j[self._lower]
        # Q is symmetric bit for bit, so the lower triangle carries all of it.
        self._band_pos = (i - j) + j * (kd + 1)
        self._ab = np.zeros((kd + 1, n), order="F")
        self._flat = self._ab.reshape(-1, order="F")  # a view, in memory order

    def solve(self, precision: PrecisionMatrix, noise: NoiseParams,
              b: np.ndarray) -> np.ndarray:
        # the last sweep's factor fills the whole band, pattern zeros included
        self._flat.fill(0.0)
        self._flat[self._band_pos] = noise.kappa_f * precision.matrix.data[self._lower]
        self._ab[0] += noise.kappa_l
        # Past kd = 64, dpbtrf's BLAS-3 calls on its 32-wide blocks go
        # threaded; at 64^2 this solve measured 9.7-12.1 ms on two threads
        # (cpu/wall 2.0) against 7.0-9.5 ms on one.
        with _one_blas_thread():
            chol, info = dpbtrf(self._ab, lower=1, overwrite_ab=1)
            if info > 0:
                raise SamplerNumericalError(
                    f"banded Cholesky failed at pivot {info} (n={precision.n}, "
                    f"kappa_l={noise.kappa_l}, kappa_f={noise.kappa_f})")
            x_band, _ = dpbtrs(chol, b[self._order], lower=1)
        return x_band[self._rank]


# The bound is about time and memory.  The band is (kd + 1) n 8 bytes: 34 MB
# at 128^2 (kd = 256) and 269 MB at 256^2 (kd = 512).  At 256^2 the banded
# solve was still faster than SuperLU (0.8-0.9 s against 1.4-1.5 s) but its
# peak RSS was 437 MB against 294 MB, so wider lattices keep SuperLU.
BAND_KD_MAX = 256


def field_solver(variant: str, n1: int, n2: int, precision: PrecisionMatrix,
                 ) -> SpectralSolver | BandedCholeskySolver | SuperLUSolver:
    """The solver a chain of ``variant`` builds for its n1 x n2 lattice;
    ``precision`` is any precision of the lattice (all share one pattern)."""
    if variant == IGMRF:
        return SpectralSolver(n1, n2)
    if _half_width(n1, n2) <= BAND_KD_MAX:
        return BandedCholeskySolver(n1, n2, precision)
    return SuperLUSolver(precision)


def sample_field_given_gamma(y: np.ndarray, gamma: np.ndarray, noise: NoiseParams,
                             precision: PrecisionMatrix, design: np.ndarray,
                             rng: np.random.Generator,
                             solver: SpectralSolver | BandedCholeskySolver | SuperLUSolver,
                             ) -> np.ndarray:
    """Draw the field conditional on the current trend draw.

    The Gaussian has precision A = kappa_l I + kappa_f Q and mean
    A^-1 kappa_l (y - Z gamma).  The draw is one solve of A with a perturbed
    right-hand side built from the difference operator (Papandreou & Yuille
    2010); ``solver`` is the chain's solver for this lattice.
    """
    n = precision.n
    resid = noise.kappa_l * (y - design @ gamma)
    xi1 = rng.standard_normal(n)
    xi2 = rng.standard_normal(n)
    perturb = np.sqrt(noise.kappa_l) * xi1 + np.sqrt(noise.kappa_f) * (precision.d_op.T @ xi2)
    return solver.solve(precision, noise, resid + perturb)


def _clipped_window_sums(x: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums, sums of squares and counts over boundary-clipped square windows."""
    n1, n2 = x.shape
    c1 = np.zeros((n1 + 1, n2 + 1))
    c2 = np.zeros((n1 + 1, n2 + 1))
    c1[1:, 1:] = x.cumsum(0).cumsum(1)
    c2[1:, 1:] = (x * x).cumsum(0).cumsum(1)
    i = np.arange(n1)[:, None]
    j = np.arange(n2)[None, :]
    r0 = np.clip(i - half, 0, n1)
    r1 = np.clip(i + half + 1, 0, n1)
    s0 = np.clip(j - half, 0, n2)
    s1 = np.clip(j + half + 1, 0, n2)
    def box(c):
        return c[r1, s1] - c[r0, s1] - c[r1, s0] + c[r0, s0]
    cnt = (r1 - r0) * (s1 - s0)
    return box(c1), box(c2), cnt


def get_binary_image(f: Raster, h: float, window: int) -> SpotMask:
    """Local-threshold spot classification.

    Pixel (i, j) is a spot iff f >= mu_local + h * sigma_local over the
    window x window patch centred there (clipped at boundaries; population
    standard deviation).  ``window`` is odd, as ``HyperParams.validate``
    checks.
    """
    x = f.to_2d()
    s1, s2, cnt = _clipped_window_sums(x, window // 2)
    mu = s1 / cnt
    var = np.maximum(s2 / cnt - mu * mu, 0.0)
    thresh = mu + h * np.sqrt(var)
    return SpotMask.from_2d((x >= thresh).astype(np.int8))


def _normalize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    lo = float(y.min())
    hi = float(y.max())
    if hi > lo:
        return (y - lo) / (hi - lo), lo, hi - lo
    return np.zeros_like(y), lo, 0.0


def denoise(y: Raster, hp: HyperParams, variant: str = HIGMRF) -> DenoiseResult:
    """Run the full Gibbs chain on an observed raster.

    The input is affinely mapped to [0, 1] (the threshold h is calibrated on
    that scale) and the posterior mean is mapped back on output.  The field
    draw conditions on the current trend draw rather than marginalizing it
    out: with the weak trend prior, the marginalized conditional is hugely
    diffuse along the trend span and the averaged draws would be dominated
    by that component.  The posterior mean averages the full noise-free
    reconstruction Z gamma + f; the split between trend and field is only
    weakly identified (a flat field absorbs any trend), so each alone mixes
    far more slowly than their sum.
    """
    if variant not in (IGMRF, HIGMRF):
        raise ValueError(f"unknown variant {variant!r}")
    hp.validate()
    rng = np.random.default_rng(hp.seed)
    n1, n2 = y.n1, y.n2
    yn, offset, scale = _normalize(y.data)

    design = make_design(n1, n2)
    mask = SpotMask.zeros(n1, n2)
    precision = build_igmrf_precision(n1, n2)
    solver = field_solver(variant, n1, n2, precision)

    f = yn.copy()
    noise = NoiseParams(kappa_l=hp.alpha_l * hp.beta_l, kappa_f=hp.alpha_f * hp.beta_f)
    theta_trace = np.empty((hp.n_iter, 2))
    gamma_trace = np.empty((hp.n_iter, 3))
    accum = np.zeros(n1 * n2)

    for t in range(1, hp.n_iter + 1):
        gamma = sample_gamma(yn, f, noise.kappa_l, design, hp.gamma_precision, rng)
        noise = sample_kappas(yn, f, gamma, design, precision, hp, rng)
        f = sample_field_given_gamma(yn, gamma, noise, precision, design, rng, solver)
        if variant == HIGMRF:
            mask = get_binary_image(Raster(n1, n2, f), hp.h, hp.window)
            precision = build_higmrf_precision(n1, n2, mask, hp.lam)
        theta_trace[t - 1] = (noise.kappa_l, noise.kappa_f)
        gamma_trace[t - 1] = gamma
        if t > hp.burn_in:
            accum += design @ gamma + f

    mean_norm = accum / (hp.n_iter - hp.burn_in)
    posterior_mean = Raster(n1, n2, offset + mean_norm * scale)
    return DenoiseResult(
        posterior_mean=posterior_mean,
        final_mask=mask,
        theta_trace=theta_trace,
        gamma_trace=gamma_trace,
    )
