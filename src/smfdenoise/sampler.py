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
with symmetric-mode SuperLU otherwise.  Either factor failing raises
``SamplerNumericalError``.

A sweep does only its arithmetic.  Per lattice size, and shared by every
chain on it, are cached: the index arrays of D and Q (``lattice``), the slot
of each entry of Q in the band (``_band_layout``) and the mask's window
bounds (``_windows``).  Per chain are computed once: Z^T Z and the band
buffer.  Each sweep then fills the band straight from Q's upper-entry sums
and reads D^T x and |D f|^2 from D's values, so it builds no scipy sparse
matrix; Q's CSR form is built only for SuperLU and for tests.  Nor does it
scan what it made itself: the draw stays a bare array, whose 2-D view the
mask thresholds into a boolean ``SpotMask``, which skips the 0/1 scan; only
the chain's mean goes through the ``Raster`` check.  The whole chain runs on
one BLAS thread, in scipy's OpenBLAS and in NumPy's own, through OpenBLAS's
``openblas_set_num_threads_local`` where each provides it, and the caller's
counts are restored afterwards.

``run_jobs`` runs independent chains on one ``fork`` process pool per
process: built by the first call that has two jobs or more, ``higmrf`` among
them, with min(jobs, CPUs) workers, replaced by a larger one when a later
such call needs more, and kept warm in between.  So a process that makes
several pooled calls (a script or service that scores corpus after corpus)
forks once, and each worker pays OpenBLAS's thread restart after a fork once.
``igmrf`` jobs use a pool that is already warm but never build one: a 30 x 30
``igmrf`` chain takes about 20 ms, and a one-shot ``diagnose --variant igmrf
--chains 4`` took 0.79 s pooled against 0.69 s serial (2-core x86).  Each
worker runs on one BLAS thread for its whole life, so that two processes
never spin two OpenBLAS threads each on two cores, and exits when its parent
dies; ``concurrent.futures`` joins the workers at interpreter exit.  One job,
jobs on one CPU, and every job where ``fork`` is not offered, run in the
calling process.  ``run_chains`` runs the chains of a multi-chain check
through it, chain c seeded with ``hp.seed + c``, and ``bench.run_bench`` its
sampler images.
"""

from __future__ import annotations

import ctypes
import importlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs, dtrtrs
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
    "run_jobs",
    "run_chains",
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
                 ztz: np.ndarray, gamma_precision: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw the trend coefficients from N(m, C) with
    C = (kappa_l Z^T Z + Q_gamma)^-1 and m = kappa_l C Z^T (y - f); ``ztz``
    is Z^T Z, which a chain computes once.  The LAPACK routines are called
    directly: on a 3 x 3 system the checks of the scipy.linalg wrappers cost
    more than the arithmetic."""
    a = kappa_l * ztz
    a.flat[::4] += gamma_precision  # the diagonal of the 3 x 3 system
    c, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise SamplerNumericalError("trend posterior system not positive definite")
    m = kappa_l * dpotrs(c, z.T @ (y - f), lower=1)[0]
    # x = m + L^-T xi has covariance (L L^T)^-1 = C
    xi = rng.standard_normal(3)
    return m + dtrtrs(c, xi, lower=1, trans=1)[0]


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
        rows = np.repeat(np.arange(q.shape[0]), np.diff(q.indptr))
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


def _half_width(n1: int, n2: int) -> int:
    """Band half-width of Q with pixels ordered along the shorter side:
    Q couples pixels up to two rows apart."""
    return min(2 * min(n1, n2), n1 * n2 - 1)


def _blas_thread_setters() -> list:
    """OpenBLAS's ``openblas_set_num_threads_local`` of each OpenBLAS that
    the sampler calls: scipy's, behind ``dpbtrf`` and the other LAPACK calls,
    then NumPy's, behind ``@``.  NumPy 2 wheels bundle an OpenBLAS of their
    own, so the two counts are separate; NumPy 1 is not looked up.  Each
    setter sets its library's BLAS thread count and returns the one it
    replaces.  The count is the calling thread's in OpenMP builds but the
    whole process's in pthreads builds, both wheels' among them.  A library
    that does not export the symbol (a build on another BLAS) has no setter.
    dlsym on an extension module's handle also searches the libraries that
    the module links, which is where each OpenBLAS sits."""
    setters = []
    for module in ("scipy.linalg._flapack", "numpy._core._multiarray_umath"):
        try:
            path = importlib.import_module(module).__file__
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (ImportError, OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return setters


_blas_setters = _blas_thread_setters()


@contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread in every OpenBLAS with a setter, and
    restore each previous count on the way out, raised or not, in reverse
    order so that two setters of one library leave its count as it was.  In
    a pthreads OpenBLAS the count is the whole process's, so chains on
    threads would need a lock around this scope.  ``run_jobs`` runs chains
    on a fork pool of processes instead, each on one BLAS thread for its
    whole life (see the module docstring)."""
    previous = [setter(1) for setter in _blas_setters]
    try:
        yield
    finally:
        for setter, count in reversed(list(zip(_blas_setters, previous))):
            setter(count)


@lru_cache(maxsize=8)
def _band_layout(stencil) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The band layout of Q on one lattice, given by its stencil and shared
    by its chains: kd, the pixel at each band position, the band position of
    each pixel, and the slot of each upper-triangle entry of Q in the flat
    lower band."""
    n1, n2, n = stencil.n1, stencil.n2, stencil.n
    kd = _half_width(n1, n2)
    order = np.arange(n).reshape(n1, n2).T.ravel() if n2 > n1 else np.arange(n)
    rank = np.argsort(order)
    i, j = rank[stencil.upper_row], rank[stencil.upper_col]
    lo = np.minimum(i, j)
    # Q[a, b] and Q[b, a] are one sum, so the lower triangle carries all of Q
    slots = (np.maximum(i, j) - lo) + lo * (kd + 1)
    for arr in (order, rank, slots):
        arr.flags.writeable = False
    return kd, order, rank, slots


class BandedCholeskySolver:
    """Banded Cholesky solve of A x = b, A = kappa_l I + kappa_f Q, for any Q.

    Ordered along the shorter lattice side (transposed when n2 > n1), A is a
    band matrix of half-width kd = ``_half_width(n1, n2)``, so LAPACK's
    ``dpbtrf``/``dpbtrs`` factor and solve it in O(n kd^2) with no ordering
    and no fill outside the band (Rue 2001; Rue & Held 2005, section 2.4).
    The lower band is one Fortran-ordered (kd + 1, n) array per chain, reused
    every sweep.  Each sweep scatters kappa_f times Q's upper-entry sums
    straight into it, through a slot map built once per lattice
    (``_band_layout``), and adds kappa_l on the diagonal.
    """

    def __init__(self, precision: PrecisionMatrix):
        kd, self._order, self._rank, self._slots = _band_layout(precision.stencil)
        self._ab = np.zeros((kd + 1, precision.n), order="F")
        self._flat = self._ab.reshape(-1, order="F")  # a view, in memory order

    def solve(self, precision: PrecisionMatrix, noise: NoiseParams,
              b: np.ndarray) -> np.ndarray:
        # the last sweep's factor fills the whole band, pattern zeros included
        self._flat.fill(0.0)
        self._flat[self._slots] = noise.kappa_f * precision.upper_sums
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
        return BandedCholeskySolver(precision)
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
    perturb = np.sqrt(noise.kappa_l) * xi1 + np.sqrt(noise.kappa_f) * precision.d_transpose(xi2)
    return solver.solve(precision, noise, resid + perturb)


@lru_cache(maxsize=8)
def _windows(n1: int, n2: int, half: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The boundary-clipped (2 half + 1)-square windows of an n1 x n2
    lattice: the flat indices of their four corners in an (n1 + 1) x (n2 + 1)
    table of cumulative sums, and their pixel counts."""
    i = np.arange(n1)[:, None]
    j = np.arange(n2)[None, :]
    r0 = np.clip(i - half, 0, n1)
    r1 = np.clip(i + half + 1, 0, n1)
    s0 = np.clip(j - half, 0, n2)
    s1 = np.clip(j + half + 1, 0, n2)
    corners = tuple(r * (n2 + 1) + s for r, s in ((r1, s1), (r0, s1), (r1, s0), (r0, s0)))
    cnt = (r1 - r0) * (s1 - s0)
    for arr in (*corners, cnt):
        arr.flags.writeable = False
    return corners, cnt


def _clipped_window_sums(x: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums, sums of squares and counts over boundary-clipped square windows."""
    n1, n2 = x.shape
    (c11, c01, c10, c00), cnt = _windows(n1, n2, half)
    c1 = np.zeros((n1 + 1, n2 + 1))
    c2 = np.zeros((n1 + 1, n2 + 1))
    c1[1:, 1:] = x.cumsum(0).cumsum(1)
    c2[1:, 1:] = (x * x).cumsum(0).cumsum(1)
    def box(c):
        c = c.ravel()
        return c[c11] - c[c01] - c[c10] + c[c00]
    return box(c1), box(c2), cnt


def get_binary_image(x: np.ndarray, h: float, window: int) -> SpotMask:
    """Local-threshold spot classification of the 2-D image ``x``.

    Pixel (i, j) is a spot iff x >= mu_local + h * sigma_local over the
    window x window patch centred there (clipped at boundaries; population
    standard deviation).  ``window`` is odd, as ``HyperParams.validate``
    checks.
    """
    s1, s2, cnt = _clipped_window_sums(x, window // 2)
    mu = s1 / cnt
    var = np.maximum(s2 / cnt - mu * mu, 0.0)
    thresh = mu + h * np.sqrt(var)
    return SpotMask(*x.shape, x >= thresh)


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

    mask = SpotMask.zeros(n1, n2)
    f = yn.copy()
    noise = NoiseParams(kappa_l=hp.alpha_l * hp.beta_l, kappa_f=hp.alpha_f * hp.beta_f)
    theta_trace = np.empty((hp.n_iter, 2))
    gamma_trace = np.empty((hp.n_iter, 3))
    accum = np.zeros(n1 * n2)

    # Waking a second BLAS thread costs more than it saves on these small
    # products and solves: on a 2-core machine a 30 x 30 eigh took 0.05 ms
    # on one thread, and up to 16 ms on two.
    with _one_blas_thread():
        design = make_design(n1, n2)
        ztz = design.T @ design
        precision = build_igmrf_precision(n1, n2)
        solver = field_solver(variant, n1, n2, precision)
        for t in range(1, hp.n_iter + 1):
            gamma = sample_gamma(yn, f, noise.kappa_l, design, ztz, hp.gamma_precision, rng)
            noise = sample_kappas(yn, f, gamma, design, precision, hp, rng)
            f = sample_field_given_gamma(yn, gamma, noise, precision, design, rng, solver)
            if variant == HIGMRF:
                mask = get_binary_image(f.reshape(n1, n2), hp.h, hp.window)
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


# This process's chain pool, as (executor, workers); see _chain_pool.
_pool = None


def _forget_pool():
    global _pool
    _pool = None


# a forked child builds its own pool rather than use its copy of the parent's
os.register_at_fork(after_in_child=_forget_pool)


def _chain_pool(jobs: int, build: bool):
    """This process's fork pool for ``jobs`` jobs, or None to run them here:
    where ``fork`` is not offered, or fewer than two of them could run at
    once.  With ``build``, a pool of min(jobs, CPUs) workers is built when
    none exists or when the current one has fewer workers; without, only a
    pool that already exists is used."""
    global _pool
    if _pool is None and not build:
        return None
    # imported here, so that neither CLI start-up nor a run with no pool
    # pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, cpus)
    if workers < 2:
        return None
    if build and (_pool is None or _pool[1] < workers):
        _close_pool()
        # A killed worker raises BrokenProcessPool in the caller, where a
        # multiprocessing.Pool would wait for its result forever.
        _pool = (ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_init_worker, initargs=(os.getpid(),)),
                 workers)
    return _pool and _pool[0]


def _close_pool():
    """Shut this process's chain pool down, if there is one, and wait for
    its workers to exit; the next pooled call builds a new pool."""
    pool = _pool
    _forget_pool()
    if pool is not None:
        pool[0].shutdown(wait=True, cancel_futures=True)


def _init_worker(parent: int):
    """Pool initializer: the worker runs every chain on one BLAS thread, and
    exits when ``parent`` does.  A forked worker's counts are its own, so the
    parent's are left as they were.  An idle worker waits on a queue whose
    write end every worker inherited too, so it would never see the parent
    go; a daemon thread polls for the reparenting instead."""
    import threading
    import time

    for setter in _blas_setters:
        setter(1)

    def exit_with_parent():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def run_jobs(fn, jobs: list[tuple], build: bool = True):
    """An iterator over ``fn(*args)`` for each ``args`` of ``jobs``, in order.

    Two jobs or more run on this process's fork pool (see the module
    docstring), all submitted before this returns, so that the workers run
    while the caller does other work.  ``build`` says whether the call may
    build the pool, or grow it; without it the jobs use a pool that already
    exists, or run here.  One job, and every job that gets no pool, runs here
    when its result is asked for.  ``fn`` is a module-level function, so the
    pool pickles it by reference and a worker calls whatever the name was
    bound to when the pool forked.  A job's exception reaches the caller as
    itself, at that job's turn.
    """
    pool = _chain_pool(len(jobs), build) if len(jobs) > 1 else None
    if pool is None:
        return (fn(*args) for args in jobs)
    results = _pooled(pool, fn, jobs)
    next(results)  # submits every job
    return results


def _pooled(pool, fn, jobs: list[tuple]):
    """Submit ``jobs`` to ``pool`` and yield once, then yield their results
    in order.  However the iteration ends (a job's exception, or the caller
    closing the generator), the jobs not yet started are cancelled and the
    running ones waited for, so the pool is idle afterwards.  A worker that
    dies breaks the pool, whether or not the caller was still asking: the
    pool is then closed, and the next call builds a new one."""
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    broken = False
    try:
        futures.extend(pool.submit(fn, *args) for args in jobs)
        yield
        for future in futures:
            yield future.result()
    except BrokenProcessPool:  # from submit or from a result
        broken = True
        raise
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
        if broken or any(not future.cancelled()
                         and isinstance(future.exception(), BrokenProcessPool)
                         for future in futures):
            _close_pool()


def _run_chain(y: Raster, hp: HyperParams, variant: str) -> DenoiseResult:
    # a module-level name, so the pool pickles it by reference and the
    # forked worker calls whatever ``denoise`` the parent had bound
    return denoise(y, hp, variant)


def run_chains(y: Raster, hp: HyperParams, variant: str, chains: int,
               ) -> list[DenoiseResult]:
    """Run ``chains`` independent chains on ``y``, chain c seeded with
    ``hp.seed + c``, through ``run_jobs``, and return their results in chain
    order.  Only ``higmrf`` chains build a pool (see the module docstring)."""
    return list(run_jobs(_run_chain, [(y, replace(hp, seed=hp.seed + c), variant)
                                      for c in range(chains)], build=variant == HIGMRF))
