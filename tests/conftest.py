"""Reference constructions shared by the lattice tests and the acceptance gate,
field draws mapped to pixel space for the sampler tests and the gate, a
small spot image and the BLAS thread counts for the chain and pool tests,
and a fixture that gives each test its own chain pool."""

import numpy as np
import pytest

from smfdenoise import pool, sampler
from smfdenoise.lattice import Raster, build_igmrf_precision
from smfdenoise.sampler import SpectralPrecision, sample_field_given_gamma

_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))


@pytest.fixture(autouse=True)
def fresh_chain_pool():
    """Each test starts and ends without a chain pool.  A pool forks on first
    use, so its workers see the names a test has patched (``sampler.denoise``,
    ``sampler.dpbtrf``) only if it is built after the patch."""
    pool._close_pool()
    yield
    pool._close_pool()


def spot_input(seed=21, n=12):
    """An n x n image of two spots under light noise."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, n))
    x[n // 2, n // 2] = 1.0
    x[2, 3] = 0.8
    return Raster.from_2d(x + 0.05 * rng.standard_normal((n, n)))


def set_blas_threads(count):
    """Set every OpenBLAS that the sampler caps to ``count`` threads and
    return the counts in force before, one per library."""
    return [setter(count) for setter in sampler._blas_setters]


def restore_blas_threads(counts):
    """Give each OpenBLAS back the count that ``set_blas_threads`` returned."""
    for setter, count in reversed(list(zip(sampler._blas_setters, counts))):
        setter(count)


def draw_in_pixels(y, zg, noise, precision, rng, solver):
    """A field draw as a chain on ``precision`` makes it, in pixel space: a
    ``SpectralPrecision`` chain draws in its basis."""
    if not isinstance(precision, SpectralPrecision):
        return sample_field_given_gamma(y, zg, noise, precision, rng, solver)
    c = sample_field_given_gamma(precision.to_basis(y), precision.to_basis(zg), noise,
                                 precision, rng, solver)
    return precision.from_basis(c)


def dense_q(n1, n2, precision):
    """Q in pixel space, dense, expanded from the closed-form entries that the
    solvers read: entry [i, j] of offset (di, dj) couples pixel
    (i, j + max(0, -dj)) with that pixel plus (di, dj).  A
    ``SpectralPrecision`` is the homogeneous Q."""
    if isinstance(precision, SpectralPrecision):
        precision = build_igmrf_precision(n1, n2)
    q = np.zeros((n1 * n2, n1 * n2))
    for (di, dj), e in precision.upper.items():
        i, j = np.indices(e.shape)
        j = j + max(0, -dj)
        a, b = i * n2 + j, (i + di) * n2 + j + dj
        q[a, b] = q[b, a] = e
    return q


def dense_d(precision):
    """D = -L_w in pixel space, dense, column by column from the precision's
    L_w x; D is symmetric, so its columns are its rows."""
    return -np.column_stack([precision.laplacian(e) for e in np.eye(precision.n)])


def neighbors(i: int, j: int, n1: int, n2: int) -> list[tuple[int, int]]:
    """In-lattice subset of the 4 nearest neighbours of pixel (i, j)."""
    if not (0 <= i < n1 and 0 <= j < n2):
        raise ValueError(f"pixel ({i},{j}) outside {n1}x{n2} lattice")
    return [
        (i + di, j + dj)
        for di, dj in _OFFSETS
        if 0 <= i + di < n1 and 0 <= j + dj < n2
    ]


def dense_difference_oracle(n1, n2, mask=None, lam=None):
    """Literal per-pixel construction of the difference operator D.

    Row (i, j): +w on each in-lattice 4-neighbour, -(sum of w) on the
    diagonal, with w = 1 from a spot pixel or towards a spot neighbour and
    w = lam between two background pixels (``mask`` is a 2-D 0/1 array;
    without one every weight is 1).
    """
    n = n1 * n2
    d = np.zeros((n, n))
    for i in range(n1):
        for j in range(n2):
            p = i * n2 + j
            for (k, l) in neighbors(i, j, n1, n2):
                q = k * n2 + l
                if mask is None or mask[i, j] == 1 or mask[k, l] == 1:
                    w = 1.0
                else:
                    w = lam
                d[p, q] += w
                d[p, p] -= w
    return d
