"""Image lattices, 4-neighbourhoods and (weighted) difference-operator precision matrices.

The field prior is an intrinsic GMRF whose precision is Q = D^T D, where row
(i, j) of D sums the differences to the in-lattice 4-neighbours of pixel
(i, j).  The heterogeneous variant re-weights each difference according to a
binary spot/background mask: a difference between two background pixels
carries weight ``lam`` (> 1), all others weight 1.  So each weight belongs to
an edge, the same from both of its ends: D = -L_w for the weighted grid
Laplacian L_w, and Q = L_w^2.  A precision is its two edge-weight arrays, and
what a sampler reads from it (D^T x, f^T Q f and Q's entries, one lattice
grid per offset) comes by 2-D slicing, with no sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NoiseParams, SamplerNumericalError

__all__ = [
    "Raster",
    "SpotMask",
    "PrecisionMatrix",
    "build_igmrf_precision",
    "build_higmrf_precision",
]


@dataclass(frozen=True)
class _Grid:
    """A rectangular grid, row-major in a read-only 1-D vector that the
    subclass's ``_values`` checks and casts: the one constructor of
    ``Raster`` and ``SpotMask``."""

    n1: int
    n2: int
    data: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"lattice dimensions must be positive, got {self.n1}x{self.n2}")
        data = np.ascontiguousarray(self._values(self.data)).ravel()
        if data.size != self.n1 * self.n2:
            raise ValueError(f"data length {data.size} does not match lattice "
                             f"{self.n1}x{self.n2}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def from_2d(cls, arr):
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(arr.shape[0], arr.shape[1], arr.ravel())

    def to_2d(self) -> np.ndarray:
        return self.data.reshape(self.n1, self.n2)

    def __reduce__(self):
        # unpickled through the constructor, so ``data`` is checked and
        # read-only again; pickle would otherwise make it writeable
        return type(self), (self.n1, self.n2, self.data)


class Raster(_Grid):
    """A rectangular grid of finite intensities."""

    @staticmethod
    def _values(data):
        data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(data)):
            raise ValueError("raster contains non-finite values")
        return data


class SpotMask(_Grid):
    """Per-pixel binary classification: 1 = spot, 0 = background."""

    @staticmethod
    def _values(data):
        # checked before the int8 cast, which would wrap or truncate a value
        # that is not 0 or 1; a boolean array holds only 0 and 1, so it
        # skips the scan: the sampler thresholds one mask per sweep
        data = np.asarray(data)
        if data.dtype != np.bool_ and not np.all((data == 0) | (data == 1)):
            raise ValueError("mask values must be 0 or 1")
        return data.astype(np.int8, copy=False)

    @classmethod
    def zeros(cls, n1: int, n2: int) -> "SpotMask":
        return cls(n1, n2, np.zeros(n1 * n2, dtype=np.int8))


class PrecisionMatrix:
    """Symmetric PSD precision Q = D^T D of a lattice field, given by its two
    edge-weight arrays: ``across[i, j]`` couples pixels (i, j) and (i, j + 1),
    ``down[i, j]`` couples (i, j) and (i + 1, j).

    A weight holds from both ends of its edge, so D = -L_w, where L_w is the
    weighted grid Laplacian, (L_w x)_a = sum_b w_ab (x_a - x_b), and
    Q = L_w^2.  A pixel-space sweep reads D^T x = -L_w x and
    f^T Q f = |L_w f|^2, both by 2-D slicing.  The solvers read Q's upper
    entries, which have a closed form on seven offsets (Rue & Held 2005,
    section 2.4).  ``upper[(di, dj)]`` is an (n1, n2) grid whose entry
    [i, j] is Q[(i, j), (i + di, j + dj)], zero where that pixel leaves the
    lattice.  So with pixels a in row-major order, the grid's entry at a is
    Q[a, a + k] for k = di n2 + dj: a solver adds it into diagonal k.  Two
    offsets share a k only on lattices one or two pixels wide, and then
    never a nonzero entry.  With deg_a the weight sum of a's edges, the
    entries are deg_a^2 + sum_b w_ab^2 on the diagonal, -w_ab (deg_a +
    deg_b) between neighbours and, two steps apart, the sum of w w over the
    paths of length 2.  They are computed once per build, into zeroed grids,
    where a product or sum that overflows float64 (a huge lam) raises
    ``SamplerNumericalError``.
    """

    def __init__(self, across: np.ndarray, down: np.ndarray):
        self.n1, self.n2 = across.shape[0], down.shape[1]
        self.n = self.n1 * self.n2
        self.across, self.down = across, down
        try:
            with np.errstate(over="raise"):
                # each pixel's edges up, left, right, down
                deg = np.zeros((self.n1, self.n2))
                deg[1:] += down
                deg[:, 1:] += across
                deg[:, :-1] += across
                deg[:-1] += down
                # Q[a, a] = sum_r D[r, a]^2, over r below, right of, at, left of and above a
                sq_across, sq_down = across * across, down * down
                diag = np.zeros((self.n1, self.n2))
                diag[:-1] += sq_down
                diag[:, :-1] += sq_across
                diag += deg * deg
                diag[:, 1:] += sq_across
                diag[1:] += sq_down

                def grid(region, entries):
                    out = np.zeros((self.n1, self.n2))
                    out[region] = entries
                    return out

                self.upper = {
                    (0, 0): diag,
                    (0, 1): grid(np.s_[:, :-1], -(across * deg[:, 1:] + across * deg[:, :-1])),
                    (1, 0): grid(np.s_[:-1], -(down * deg[1:] + down * deg[:-1])),
                    (0, 2): grid(np.s_[:, :-2], across[:, :-1] * across[:, 1:]),
                    (2, 0): grid(np.s_[:-2], down[:-1] * down[1:]),
                    (1, 1): grid(np.s_[:-1, :-1],
                                 down[:, :-1] * across[1:] + across[:-1] * down[:, 1:]),
                    (1, -1): grid(np.s_[:-1, 1:],
                                  across[:-1] * down[:, :-1] + down[:, 1:] * across[1:]),
                }
        except FloatingPointError as exc:
            raise SamplerNumericalError(
                "field precision overflows float64 (lam too large)") from exc
        self._deg = deg

    def laplacian(self, x: np.ndarray) -> np.ndarray:
        """L_w x = -D^T x.  Each sum adds its terms in the row-major order of
        the pixels they come from, as a sparse product over D's rows does."""
        x = x.reshape(self.n1, self.n2)
        out = np.zeros((self.n1, self.n2))
        out[1:] -= self.down * x[:-1]
        out[:, 1:] -= self.across * x[:, :-1]
        out += self._deg * x
        out[:, :-1] -= self.across * x[:, 1:]
        out[:-1] -= self.down * x[1:]
        return out.ravel()

    def quad_form(self, f: np.ndarray) -> float:
        """f^T Q f, as |L_w f|^2."""
        lf = self.laplacian(f)
        return float(lf @ lf)

    def perturbation(self, noise: NoiseParams, rng: np.random.Generator) -> np.ndarray:
        """A draw from N(0, kappa_l I + kappa_f Q): sqrt(kappa_l) xi1 +
        sqrt(kappa_f) D^T xi2 for standard normal xi1, then xi2, from ``rng``."""
        xi1 = rng.standard_normal(self.n)
        xi2 = rng.standard_normal(self.n)
        return np.sqrt(noise.kappa_l) * xi1 - np.sqrt(noise.kappa_f) * self.laplacian(xi2)


def build_igmrf_precision(n1: int, n2: int) -> PrecisionMatrix:
    """Q = D^T D for the homogeneous first-order prior (every weight 1)."""
    return PrecisionMatrix(np.ones((n1, n2 - 1)), np.ones((n1 - 1, n2)))


def build_higmrf_precision(mask: SpotMask, lam: float) -> PrecisionMatrix:
    """Q = D^T D for the mask-weighted heterogeneous prior, on the mask's
    lattice: an edge between two background pixels has weight lam, an edge
    with a spot pixel at either end weight 1."""
    background = mask.to_2d() == 0
    return PrecisionMatrix(np.where(background[:, :-1] & background[:, 1:], lam, 1.0),
                           np.where(background[:-1] & background[1:], lam, 1.0))
