"""Gibbs sampler for the latent-field denoising model.

Each sweep draws the trend coefficients gamma, the precisions (kappa_l,
kappa_f) and the field f, and in the heterogeneous variant re-estimates the
spot mask by local thresholding and rebuilds the field precision from it.
The denoised image is the average of the post-burn-in noise-free
reconstructions (trend plus field).

Both variants run one Gibbs loop, on a tall lattice (n1 >= n2): ``denoise``
runs a wide raster's chain on its transpose and maps the mean, the mask and
the gamma trace's row and column coefficients back (the mask's window is
square, so its threshold commutes with the transpose).  An ``igmrf`` chain
runs where Q and A = kappa_l I + kappa_f Q are diagonal, in Q's eigenbasis
(``SpectralPrecision``): the DCT-II basis, taken from its formula with each
column's sign fixed.  The chain transforms y and the three trend columns
into it once, keeps its field as coefficients, and transforms back only the
posterior mean, so a sweep makes no transform.  A ``higmrf`` chain runs in
pixel space and builds one field solver for its lattice (``field_solver``),
which factors A afresh every sweep: with a banded LAPACK Cholesky when the
band half-width kd = 2 n2 of row-major order is at most ``BAND_KD_MAX`` =
256 (any raster up to 128 pixels on its shorter side) and with
symmetric-mode SuperLU otherwise; either failing raises
``SamplerNumericalError``.

A sweep does only its arithmetic.  It draws gamma from Z^T (y - f), with the
3 x 3 system factored in closed form on Python floats; forms Z gamma and
y - Z gamma once each; draws (kappa_l, kappa_f) from (y - Z gamma) - f and
f^T Q f; draws f given b = kappa_l (y - Z gamma), scaled in place; for
``higmrf``, thresholds the mask and rebuilds Q; and after burn-in adds
Z gamma and f to the running sum in place.  Per path length, and shared by
every chain, the DCT-II bases are cached (``_path_eigenbasis``), and per
lattice size the mask's window bounds (``_windows``).  Per chain are
computed once: Z^T Z, the ``SpectralPrecision`` with its buffers for a and
sqrt(a), and the band buffer.  A ``higmrf`` precision is its two
edge-weight arrays and Q's closed-form entries on seven offsets, one
lattice grid each (``lattice``); a sweep reads D^T x and
f^T Q f from the weights and adds each grid, raveled, into the band's row
k = di n2 + dj, so no banded sweep builds a scipy sparse matrix.  Past the
band bound, SuperLU gets A as a CSC matrix assembled from the same
diagonals.  Nor does a sweep scan what it made itself: the draw stays a
bare array, whose 2-D view the mask thresholds into a boolean ``SpotMask``,
which skips the 0/1 scan; only the chain's mean goes through the ``Raster``
check.  The whole chain runs on one BLAS thread, in scipy's OpenBLAS and in
NumPy's own, through OpenBLAS's ``openblas_set_num_threads_local`` where
each provides it, and the caller's counts are restored afterwards.

LAPACK is reached without importing scipy's packages (README, Start-up):
``_load_flapack`` loads scipy's own f2py extension, ``scipy.linalg._flapack``,
from scipy's directory, and the module binds the two routines it calls, the
band factor and solve ``dpbtrf`` and ``dpbtrs``.
``SuperLUSolver`` and ``splu`` import ``scipy.sparse`` on first use; only a
lattice over 128 pixels on its shorter side reaches them, and its sweeps
take seconds.
"""

from __future__ import annotations

import ctypes
import importlib.util
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np

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
    "SpectralPrecision",
    "SuperLUSolver",
    "BandedCholeskySolver",
    "field_solver",
    "get_binary_image",
    "denoise",
]

IGMRF = "igmrf"
HIGMRF = "higmrf"


def _load_flapack():
    """``scipy.linalg._flapack``, loaded from the directory that
    ``find_spec`` gives for scipy without importing it.  The extension
    enters itself in ``sys.modules`` as it loads (single-phase init), so a
    later ``import scipy.linalg`` reuses it, as this reuses one loaded
    before."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError(f"smfdenoise.sampler needs scipy's LAPACK extension {name}, "
                          "and no scipy package was found", name=name)
    where = str(Path(scipy.submodule_search_locations[0], "linalg"))
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"smfdenoise.sampler needs scipy's LAPACK extension {name}, "
                          f"and {where} holds none", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs


def splu(a, **kwargs):
    """``scipy.sparse.linalg.splu``, imported on the first call: only a
    ``SuperLUSolver`` factors with it, and a SuperLU sweep takes seconds."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(a, **kwargs)


@dataclass(eq=False)
class DenoiseResult:
    posterior_mean: Raster
    final_mask: SpotMask
    theta_trace: np.ndarray  # (T, 2): kappa_l, kappa_f per iteration
    gamma_trace: np.ndarray  # (T, 3)
    wall_ms: float  # the whole denoise call, in the process that ran it


def _pivot_root(d: float) -> float:
    """The square root of a Cholesky pivot of the trend system, which must
    be positive (a NaN is not)."""
    if not d > 0.0:
        raise SamplerNumericalError("trend posterior system not positive definite")
    return math.sqrt(d)


def sample_gamma(y: np.ndarray, f: np.ndarray, kappa_l: float, z: np.ndarray,
                 ztz: np.ndarray, gamma_precision: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw the trend coefficients from N(m, C) with
    C = (kappa_l Z^T Z + Q_gamma)^-1 and m = kappa_l C Z^T (y - f); ``ztz``
    is Z^T Z, which a chain computes once.

    The 3 x 3 system A = kappa_l Z^T Z + Q_gamma is factored as L L^T in
    closed form, on Python floats, from its lower triangle: on a system this
    small any array call costs more than the arithmetic.  m + L^-T xi, for
    xi standard normal, has covariance (L L^T)^-1 = C, and it is
    L^-T (u + xi) with u = L^-1 kappa_l Z^T (y - f): one forward and one
    back substitution."""
    (s00, _, _), (s10, s11, _), (s20, s21, s22) = ztz.tolist()
    b0, b1, b2 = (z.T @ (y - f)).tolist()
    l00 = _pivot_root(kappa_l * s00 + gamma_precision)
    l10 = kappa_l * s10 / l00
    l20 = kappa_l * s20 / l00
    l11 = _pivot_root(kappa_l * s11 + gamma_precision - l10 * l10)
    l21 = (kappa_l * s21 - l20 * l10) / l11
    l22 = _pivot_root(kappa_l * s22 + gamma_precision - l20 * l20 - l21 * l21)
    u0 = kappa_l * b0 / l00
    u1 = (kappa_l * b1 - l10 * u0) / l11
    u2 = (kappa_l * b2 - l20 * u0 - l21 * u1) / l22
    xi0, xi1, xi2 = rng.standard_normal(3).tolist()
    g2 = (u2 + xi2) / l22
    g1 = (u1 + xi1 - l21 * g2) / l11
    g0 = (u0 + xi0 - l10 * g1 - l20 * g2) / l00
    return np.array([g0, g1, g2])


def sample_kappas(r: np.ndarray, f: np.ndarray, precision: PrecisionMatrix,
                  hp: HyperParams, rng: np.random.Generator) -> NoiseParams:
    """Draw the two precisions from their conjugate gamma conditionals
    (shape-scale convention, mean alpha * beta); ``r`` is the residual
    y - Z gamma - f of the current draws."""
    n = r.size
    beta_l_star = 1.0 / (0.5 * float(r @ r) + 1.0 / hp.beta_l)
    beta_f_star = 1.0 / (0.5 * precision.quad_form(f) + 1.0 / hp.beta_f)
    kappa_l = rng.gamma(shape=0.5 * n + hp.alpha_l, scale=beta_l_star)
    kappa_f = rng.gamma(shape=0.5 * n + hp.alpha_f, scale=beta_f_star)
    return NoiseParams(kappa_l=kappa_l, kappa_f=kappa_f)


@lru_cache(maxsize=16)
def _path_eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``SpectralPrecision``'s l_k and u_k for a path of n pixels, k ascending,
    each cosine's angle reduced modulo 2 pi in integers; read-only, as every
    chain with a path of n pixels shares them."""
    k = np.arange(n)
    m = np.outer(2 * k + 1, k) % (4 * n)
    u = np.cos(np.pi / (2 * n) * m) * np.where(k == 0, np.sqrt(1 / n), np.sqrt(2 / n))
    l = 4 * np.sin(np.pi / (2 * n) * k) ** 2
    for arr in (l, u):
        arr.flags.writeable = False
    return l, u


class SpectralPrecision:
    """The homogeneous Q in its eigenbasis, where ``igmrf`` chains run.

    That Q is L^2, where L = L1 (x) I + I (x) L2 is the free-boundary grid
    Laplacian and L1, L2 are the Laplacians of the lattice's two paths.  The
    product U of their eigenbases U1, U2 diagonalizes L with eigenvalues
    l = l1_i + l2_j, and so Q with q = l^2.  On a path of n pixels that basis
    is the DCT-II basis (Strang 1999; Rue & Held 2005, section 2.6), taken
    from its formula: l_k = 4 sin^2(pi k / 2n) and u_k(j) = c_k cos(pi k
    (2j + 1) / 2n), with c_0 = sqrt(1/n), else c_k = sqrt(2/n).  So
    u_k(0) > 0 fixes each column's sign, which an eigensolver leaves to the
    LAPACK build.
    A chain keeps its field as c = U^T f.  U is orthonormal, so the inner
    products that the gamma and kappa draws read are unchanged, f^T Q f is
    sum q c^2, and A = kappa_l I + kappa_f Q is diag(a), a = kappa_l +
    kappa_f q: the object is the chain's precision and its solver both.
    Each chain builds its own, on path bases that every chain shares.  It
    holds a and sqrt(a) for one precision draw, formed in place by the first
    of ``perturbation`` and ``solve`` to see that draw, so a field draw
    forms them once and allocates only its standard normals.
    """

    def __init__(self, n1: int, n2: int):
        l1, self._u1 = _path_eigenbasis(n1)
        l2, self._u2 = _path_eigenbasis(n2)
        self.n = n1 * n2
        self._grid = (n1, n2)
        self._q = (l1[:, None] + l2[None, :]).ravel() ** 2
        self._a = np.empty(self.n)
        self._root_a = np.empty(self.n)
        self._noise = None  # the precision draw that _a and _root_a hold

    def to_basis(self, x: np.ndarray) -> np.ndarray:
        """U^T x for each row of ``x``, of shape (n,) or (k, n)."""
        grid = x.reshape(*x.shape[:-1], *self._grid)
        return (self._u1.T @ grid @ self._u2).reshape(x.shape)

    def from_basis(self, c: np.ndarray) -> np.ndarray:
        """U c for each row of ``c``, of shape (n,) or (k, n)."""
        grid = c.reshape(*c.shape[:-1], *self._grid)
        return (self._u1 @ grid @ self._u2.T).reshape(c.shape)

    def quad_form(self, c: np.ndarray) -> float:
        """f^T Q f for the field with coefficients ``c``."""
        return float(self._q @ (c * c))

    def _diagonal(self, noise: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
        """a and sqrt(a) for the precision draw ``noise``."""
        if noise is not self._noise:
            np.multiply(self._q, noise.kappa_f, out=self._a)
            self._a += noise.kappa_l
            np.sqrt(self._a, out=self._root_a)
            self._noise = noise
        return self._a, self._root_a

    def perturbation(self, noise: NoiseParams, rng: np.random.Generator) -> np.ndarray:
        """A draw from N(0, A) in the basis: sqrt(a) times one standard
        normal per coefficient, from ``rng``."""
        xi = rng.standard_normal(self.n)
        xi *= self._diagonal(noise)[1]
        return xi

    def solve(self, precision: SpectralPrecision, noise: NoiseParams,
              b: np.ndarray) -> np.ndarray:
        """Solve A c = b in the basis, where A is diagonal, in place: ``b``
        becomes c."""
        b /= self._diagonal(noise)[0]
        return b


class SuperLUSolver:
    """Sparse direct solve of A x = b, A = kappa_l I + kappa_f Q, for any Q.

    A is assembled in CSC form from Q's diagonals.  It is symmetric
    positive definite, so SuperLU orders on A + A^T and keeps the diagonal
    pivots.  ``scipy.sparse`` is imported on the first solve.
    """

    def solve(self, precision: PrecisionMatrix, noise: NoiseParams,
              b: np.ndarray) -> np.ndarray:
        from scipy import sparse

        n = precision.n
        rows = {}  # k -> kappa_f Q[a, a + k] for every pixel a
        for (di, dj), e in precision.upper.items():
            k = di * precision.n2 + dj
            rows[k] = rows.get(k, 0.0) + noise.kappa_f * e.ravel()
        rows[0] += noise.kappa_l
        # on a lattice one or two pixels high, a k can pass the last pixel
        upper = [k for k in rows if k < n]  # k = 0 comes first
        diagonals = [rows[k][:n - k] for k in upper]
        a = sparse.diags(diagonals + diagonals[1:], upper + [-k for k in upper[1:]],
                         format="csc")
        try:
            lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SamplerNumericalError(
                f"sparse factorization failed (n={precision.n}, "
                f"kappa_l={noise.kappa_l}, kappa_f={noise.kappa_f})") from exc
        return lu.solve(b)


def _blas_thread_setters() -> list:
    """OpenBLAS's ``openblas_set_num_threads_local`` of each OpenBLAS that
    the sampler calls: scipy's, behind ``dpbtrf`` and the other LAPACK calls,
    then NumPy's, behind ``@``.  NumPy 2 wheels bundle an OpenBLAS of their
    own, so the two counts are separate; NumPy 1 is not looked up.  Each
    library is opened by the file of an extension already loaded: scipy's
    through the ``_flapack`` this module loaded (importing it by name would
    import ``scipy.linalg``), NumPy's through ``sys.modules``.  Each
    setter sets its library's BLAS thread count and returns the one it
    replaces.  The count is the calling thread's in OpenMP builds but the
    whole process's in pthreads builds, both wheels' among them.  A library
    that does not export the symbol (a build on another BLAS) has no setter.
    dlsym on an extension module's handle also searches the libraries that
    the module links, which is where each OpenBLAS sits."""
    setters = []
    for module in (_flapack, sys.modules.get("numpy._core._multiarray_umath")):
        try:
            setter = ctypes.CDLL(module.__file__).openblas_set_num_threads_local
        except (OSError, AttributeError):
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
    threads would need a lock around this scope; ``pool`` runs chains on
    processes instead, each on one BLAS thread for its whole life."""
    previous = [setter(1) for setter in _blas_setters]
    try:
        yield
    finally:
        for setter, count in reversed(list(zip(_blas_setters, previous))):
            setter(count)


class BandedCholeskySolver:
    """Banded Cholesky solve of A x = b, A = kappa_l I + kappa_f Q, for any Q.

    With pixels in row-major order Q couples pixels up to two rows apart, so
    A is a band matrix of half-width kd = 2 n2, and LAPACK's
    ``dpbtrf``/``dpbtrs`` factor and solve it in O(n kd^2) with no ordering
    and no fill outside the band (Rue 2001; Rue & Held 2005, section 2.4).
    The band is exact on any lattice and narrowest on a tall one (n1 >= n2),
    which is the only kind ``denoise`` runs a chain on; on a lattice at most
    2 pixels high kd is n or more, which ``dpbtrf`` accepts.  The lower band
    is one Fortran-ordered (kd + 1, n) array per chain, reused every sweep.
    Row k of the band holds Q[a, a + k] at column a, so each sweep adds
    kappa_f times each offset's grid of ``precision.upper``, raveled, into
    row k = di n2 + dj, and kappa_l into row 0.
    """

    def __init__(self, precision: PrecisionMatrix):
        self._ab = np.zeros((2 * precision.n2 + 1, precision.n), order="F")

    def solve(self, precision: PrecisionMatrix, noise: NoiseParams,
              b: np.ndarray) -> np.ndarray:
        # the last sweep's factor fills the whole band, pattern zeros included
        self._ab.fill(0.0)
        for (di, dj), e in precision.upper.items():
            self._ab[di * precision.n2 + dj] += noise.kappa_f * e.ravel()
        self._ab[0] += noise.kappa_l
        chol, info = dpbtrf(self._ab, lower=1, overwrite_ab=1)
        if info > 0:
            raise SamplerNumericalError(
                f"banded Cholesky failed at pivot {info} (n={precision.n}, "
                f"kappa_l={noise.kappa_l}, kappa_f={noise.kappa_f})")
        return dpbtrs(chol, b, lower=1)[0]


# The bound is about time and memory.  The band is (kd + 1) n 8 bytes: 34 MB
# at 128^2 (kd = 256) and 269 MB at 256^2 (kd = 512).  At 256^2 the banded
# solve was still faster than SuperLU (0.8-0.9 s against 1.4-1.5 s) but its
# peak RSS was 437 MB against 294 MB, so wider lattices keep SuperLU.
BAND_KD_MAX = 256


def field_solver(precision: PrecisionMatrix) -> BandedCholeskySolver | SuperLUSolver:
    """The solver a ``higmrf`` chain builds for its lattice, from any
    precision of it: banded while the band's half-width, kd = 2 n2, is at
    most ``BAND_KD_MAX``, which a chain, run tall, is on any raster up to
    128 pixels on its shorter side."""
    if 2 * precision.n2 <= BAND_KD_MAX:
        return BandedCholeskySolver(precision)
    return SuperLUSolver()


def sample_field_given_gamma(b: np.ndarray, noise: NoiseParams,
                             precision: PrecisionMatrix | SpectralPrecision,
                             rng: np.random.Generator,
                             solver: BandedCholeskySolver | SuperLUSolver | SpectralPrecision,
                             ) -> np.ndarray:
    """Draw the field conditional on the current trend draw, given
    b = kappa_l (y - Z gamma).

    The Gaussian has precision A = kappa_l I + kappa_f Q and mean A^-1 b.
    The draw is one solve of A with b perturbed by a draw from N(0, A),
    which the precision makes from ``rng`` (Papandreou & Yuille 2010);
    ``solver`` is the chain's solver for this lattice.  With a
    ``SpectralPrecision``, ``b`` and the draw are in its basis.
    """
    x = precision.perturbation(noise, rng)
    x += b
    return solver.solve(precision, noise, x)


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
    if np.isinf(hi - lo):
        raise SamplerNumericalError(
            f"input range [{lo:.9g}, {hi:.9g}] is wider than float64 can hold")
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
    t0 = time.perf_counter()
    if variant not in (IGMRF, HIGMRF):
        raise ValueError(f"unknown variant {variant!r}")
    hp.validate()
    rng = np.random.default_rng(hp.seed)
    wide = y.n2 > y.n1
    grid = y.to_2d().T if wide else y.to_2d()
    n1, n2 = grid.shape
    yn, offset, scale = _normalize(grid.ravel())

    mask = SpotMask.zeros(n1, n2)
    noise = NoiseParams(kappa_l=hp.alpha_l * hp.beta_l, kappa_f=hp.alpha_f * hp.beta_f)
    theta_trace = np.empty((hp.n_iter, 2))
    gamma_trace = np.empty((hp.n_iter, 3))
    accum = np.zeros(n1 * n2)

    # Waking a second BLAS thread costs more than it saves on these small
    # products and solves.  Past kd = 64, dpbtrf's BLAS-3 calls on its
    # 32-wide blocks go threaded; at 64^2 a banded solve measured
    # 9.7-12.1 ms on two threads (cpu/wall 2.0) against 7.0-9.5 ms on one.
    with _one_blas_thread():
        design = make_design(n1, n2)
        ztz = design.T @ design
        if variant == IGMRF:
            # the chain runs in Q's eigenbasis, where Z^T Z is the same
            precision = solver = SpectralPrecision(n1, n2)
            yn, design = precision.to_basis(yn), precision.to_basis(design.T).T
        else:
            precision = build_igmrf_precision(n1, n2)
            solver = field_solver(precision)
        f = yn.copy()
        for t in range(1, hp.n_iter + 1):
            gamma = sample_gamma(yn, f, noise.kappa_l, design, ztz, hp.gamma_precision, rng)
            zg = design @ gamma
            yz = yn - zg
            noise = sample_kappas(yz - f, f, precision, hp, rng)
            yz *= noise.kappa_l
            f = sample_field_given_gamma(yz, noise, precision, rng, solver)
            if variant == HIGMRF:
                mask = get_binary_image(f.reshape(n1, n2), hp.h, hp.window)
                precision = build_higmrf_precision(mask, hp.lam)
            theta_trace[t - 1] = (noise.kappa_l, noise.kappa_f)
            gamma_trace[t - 1] = gamma
            if t > hp.burn_in:
                accum += zg
                accum += f
        if variant == IGMRF:
            accum = solver.from_basis(accum)

    mean_norm = accum / (hp.n_iter - hp.burn_in)
    # on an input range that nearly spans float64, a mean a little outside
    # it overflows
    try:
        with np.errstate(over="raise"):
            mean = offset + mean_norm * scale
    except FloatingPointError:
        raise SamplerNumericalError(
            f"posterior mean overflows float64 on the input range "
            f"[{offset:.9g}, {offset + scale:.9g}]") from None
    if wide:
        mean = mean.reshape(n1, n2).T
        mask = SpotMask.from_2d(mask.to_2d().T == 1)  # boolean, so not scanned
        gamma_trace = gamma_trace[:, [0, 2, 1]]
    return DenoiseResult(
        posterior_mean=Raster(y.n1, y.n2, mean),
        final_mask=mask,
        theta_trace=theta_trace,
        gamma_trace=gamma_trace,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
