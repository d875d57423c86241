"""Image lattices, 4-neighbourhoods and (weighted) difference-operator precision matrices.

The field prior is an intrinsic GMRF whose precision is Q = D^T D, where row
(i, j) of D sums the differences to the in-lattice 4-neighbours of pixel
(i, j).  The heterogeneous variant re-weights each difference according to a
binary spot/background mask: differences seen from a background pixel towards
another background pixel carry weight ``lam`` (> 1), all others weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from .model import NoiseParams, SamplerNumericalError

__all__ = [
    "Raster",
    "SpotMask",
    "PrecisionMatrix",
    "build_igmrf_precision",
    "build_higmrf_precision",
]


@dataclass(frozen=True)
class Raster:
    """A rectangular grid of finite intensities, row-major in a 1-D vector."""

    n1: int
    n2: int
    data: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"lattice dimensions must be positive, got {self.n1}x{self.n2}")
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64)).ravel()
        if data.size != self.n1 * self.n2:
            raise ValueError(
                f"data length {data.size} does not match lattice {self.n1}x{self.n2}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("raster contains non-finite values")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def from_2d(cls, arr) -> "Raster":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(arr.shape[0], arr.shape[1], arr.ravel())

    def to_2d(self) -> np.ndarray:
        return self.data.reshape(self.n1, self.n2)

    def __reduce__(self):
        # unpickled through the constructor, so ``data`` is checked and
        # read-only again; pickle would otherwise make it writeable
        return type(self), (self.n1, self.n2, self.data)


@dataclass(frozen=True)
class SpotMask:
    """Per-pixel binary classification: 1 = spot, 0 = background."""

    n1: int
    n2: int
    data: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"lattice dimensions must be positive, got {self.n1}x{self.n2}")
        # a boolean array holds only 0 and 1, so it skips the value scan:
        # the sampler thresholds one mask per sweep
        binary = isinstance(self.data, np.ndarray) and self.data.dtype == np.bool_
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.int8)).ravel()
        if data.size != self.n1 * self.n2:
            raise ValueError(
                f"mask length {data.size} does not match lattice {self.n1}x{self.n2}"
            )
        if not binary and not np.all((data == 0) | (data == 1)):
            raise ValueError("mask values must be 0 or 1")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def zeros(cls, n1: int, n2: int) -> "SpotMask":
        return cls(n1, n2, np.zeros(n1 * n2, dtype=np.int8))

    @classmethod
    def from_2d(cls, arr) -> "SpotMask":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(arr.shape[0], arr.shape[1], arr.ravel())

    def to_2d(self) -> np.ndarray:
        return self.data.reshape(self.n1, self.n2)

    __reduce__ = Raster.__reduce__


class PrecisionMatrix:
    """Symmetric PSD precision Q = D^T D of a lattice field, as two value
    arrays on the lattice's fixed pattern (``stencil``): ``d_data``, the
    entries of the difference operator D in CSR order, and ``upper_sums``,
    the entries of Q's upper triangle in the order of ``stencil.upper_row``
    and ``stencil.upper_col``.

    A pixel-space Gibbs sweep needs only D^T x, |D f|^2 and the sums, so it
    builds no sparse matrix.  The CSR forms of Q (``matrix``) and D
    (``d_op``) are built on first access, for SuperLU and for tests.
    """

    def __init__(self, stencil: _Stencil, d_data: np.ndarray, upper_sums: np.ndarray):
        self.n = stencil.n
        self.stencil = stencil
        self.d_data = d_data
        self.upper_sums = upper_sums

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        entry, indices, indptr = self.stencil.q_csr
        return sparse.csr_matrix((self.upper_sums[entry], indices, indptr),
                                 shape=(self.n, self.n))

    @cached_property
    def d_op(self) -> sparse.csr_matrix:
        st = self.stencil
        return sparse.csr_matrix((self.d_data, st.d_indices, st.d_indptr),
                                 shape=(self.n, self.n))

    def d_transpose(self, x: np.ndarray) -> np.ndarray:
        """D^T x.  Each sum runs over D's rows in order, as scipy's
        ``d_op.T @ x`` does, so the two agree bit for bit."""
        st = self.stencil
        return np.bincount(st.d_indices, weights=self.d_data * np.repeat(x, st.d_counts),
                           minlength=self.n)

    def quad_form(self, f: np.ndarray) -> float:
        """f^T Q f, as |D f|^2."""
        st = self.stencil
        df = np.add.reduceat(self.d_data * f[st.d_indices], st.d_indptr[:-1])
        return float(df @ df)

    def perturbation(self, noise: NoiseParams, xi1: np.ndarray, xi2: np.ndarray,
                     ) -> np.ndarray:
        """sqrt(kappa_l) xi1 + sqrt(kappa_f) D^T xi2, a draw from
        N(0, kappa_l I + kappa_f Q) for standard normal ``xi1`` and ``xi2``."""
        return np.sqrt(noise.kappa_l) * xi1 + np.sqrt(noise.kappa_f) * self.d_transpose(xi2)


def _freeze(*arrays) -> tuple:
    """Make the arrays among ``arrays`` read-only and return them all."""
    for arr in arrays:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return arrays


# The entries of row r of D, in column order: up, left, r itself, right, down.
_SLOTS = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))
_SELF = 2


class _Stencil:
    """Fixed sparsity pattern of D and of Q = D^T D on one n1 x n2 lattice.

    Only the edge weights change between builds, so the index arrays are
    computed once per lattice and each build fills in values.  The arrays are
    read-only because every precision of the lattice shares them.
    """

    def __init__(self, n1: int, n2: int):
        n = n1 * n2
        i, j = np.divmod(np.arange(n), n2)
        cols = np.full((n, len(_SLOTS)), -1)
        for s, (di, dj) in enumerate(_SLOTS):
            ok = (i + di >= 0) & (i + di < n1) & (j + dj >= 0) & (j + dj < n2)
            cols[ok, s] = (i[ok] + di) * n2 + j[ok] + dj
        valid = cols >= 0
        pos = np.full(cols.shape, -1)
        pos[valid] = np.arange(np.count_nonzero(valid))  # index into D's data

        self.n1, self.n2, self.n = n1, n2, n
        self.d_indices = cols[valid]
        self.d_counts = valid.sum(axis=1)
        self.d_indptr = np.concatenate([[0], np.cumsum(self.d_counts)])
        off = valid.copy()
        off[:, _SELF] = False
        self.edge_pos = pos[off]
        self.edge_row = np.nonzero(off)[0]
        self.edge_col = cols[off]
        self.diag_pos = pos[:, _SELF]

        # Q[a, b] = sum_r D[r, a] D[r, b]: each pair of slots s <= t of row r
        # adds one product to the upper-triangle entry (cols[r, s], cols[r, t]).
        left, right, keys = [], [], []
        for s in range(len(_SLOTS)):
            for t in range(s, len(_SLOTS)):
                r = np.flatnonzero(valid[:, s] & valid[:, t])
                left.append(pos[r, s])
                right.append(pos[r, t])
                keys.append(cols[r, s] * n + cols[r, t])
        self.prod_left = np.concatenate(left)
        self.prod_right = np.concatenate(right)
        upper, self.prod_entry = np.unique(np.concatenate(keys), return_inverse=True)
        self.n_upper = upper.size
        # upper-triangle entry k sits at (upper_row[k], upper_col[k]), row <= col
        self.upper_row, self.upper_col = (a.astype(np.int32) for a in np.divmod(upper, n))
        _freeze(*vars(self).values())

    @cached_property
    def q_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Q's CSR pattern: the upper entry behind each stored value, the
        column indices and the row pointers.  Q[a, b] and Q[b, a] both read
        the sum of entry (a, b), so Q is symmetric bit for bit."""
        a, b = self.upper_row, self.upper_col
        below = np.flatnonzero(a < b)
        rows = np.concatenate([a, b[below]])
        cols = np.concatenate([b, a[below]])
        entry = np.concatenate([np.arange(self.n_upper), below])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=self.n))])
        # scipy and SuperLU take 32-bit sparse indices without a copy
        return _freeze(entry[order], cols[order], indptr.astype(np.int32))

    def precision(self, w: np.ndarray) -> PrecisionMatrix:
        """Q = D^T D for the D with weight ``w[e]`` on edge e (``edge_row`` ->
        ``edge_col``) and minus the row's weight sum on the diagonal.  A
        product of two entries of D that overflows (a huge lam) raises
        ``SamplerNumericalError``."""
        d = np.empty(self.d_indices.size)
        d[self.edge_pos] = w
        d[self.diag_pos] = -np.bincount(self.edge_row, weights=w, minlength=self.n)
        try:
            with np.errstate(over="raise"):
                prods = d[self.prod_left] * d[self.prod_right]
        except FloatingPointError as exc:
            raise SamplerNumericalError(
                "field precision overflows float64 (lam too large)") from exc
        sums = np.bincount(self.prod_entry, weights=prods, minlength=self.n_upper)
        return PrecisionMatrix(self, d, sums)


_stencil = lru_cache(maxsize=8)(_Stencil)


def build_igmrf_precision(n1: int, n2: int) -> PrecisionMatrix:
    """Q = D^T D for the homogeneous first-order prior (every weight 1)."""
    st = _stencil(n1, n2)
    return st.precision(np.ones(st.edge_pos.size))


def build_higmrf_precision(n1: int, n2: int, mask: SpotMask, lam: float) -> PrecisionMatrix:
    """Q = D^T D for the mask-weighted heterogeneous prior.

    ``mask`` lies on the same n1 x n2 lattice.  From a spot pixel every
    difference has weight 1; from a background pixel the difference towards a
    background neighbour has weight lam, towards a spot neighbour weight 1.
    """
    st = _stencil(n1, n2)
    e = mask.data
    background = (e[st.edge_row] == 0) & (e[st.edge_col] == 0)
    return st.precision(np.where(background, lam, 1.0))
