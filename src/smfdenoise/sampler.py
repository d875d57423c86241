"""Gibbs sampler for the latent-field denoising model.

Each sweep draws the trend coefficients gamma, the precisions (kappa_l,
kappa_f) and the field f, and in the heterogeneous variant re-estimates the
spot mask by local thresholding and rebuilds the field precision from it.
The denoised image is the average of the post-burn-in noise-free
reconstructions (trend plus field).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
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


class SuperLUSolver:
    """Sparse direct solve of A x = b, A = kappa_l I + kappa_f Q, for any Q.

    A is symmetric positive definite, so SuperLU orders on A + A^T and keeps
    the diagonal pivots.  Every Q of one lattice has the same sparsity
    pattern, so the diagonal's positions are read once, from the chain's
    first precision.
    """

    def __init__(self, precision: PrecisionMatrix):
        q = precision.matrix
        rows = np.repeat(np.arange(precision.n), np.diff(q.indptr))
        self._diag = np.flatnonzero(q.indices == rows)

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


def sample_field_given_gamma(y: np.ndarray, gamma: np.ndarray, noise: NoiseParams,
                             precision: PrecisionMatrix, design: np.ndarray,
                             rng: np.random.Generator,
                             solver: SpectralSolver | SuperLUSolver) -> np.ndarray:
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
    solver = SpectralSolver(n1, n2) if variant == IGMRF else SuperLUSolver(precision)

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
