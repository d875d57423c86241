"""Image lattices, 4-neighbourhoods and (weighted) difference-operator precision matrices.

The field prior is an intrinsic GMRF whose precision is Q = D^T D, where row
(i, j) of D sums the differences to the in-lattice 4-neighbours of pixel
(i, j).  The heterogeneous variant re-weights each difference according to a
binary spot/background mask: differences seen from a background pixel towards
another background pixel carry weight ``lam`` (> 1), all others weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

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


@dataclass(frozen=True)
class SpotMask:
    """Per-pixel binary classification: 1 = spot, 0 = background."""

    n1: int
    n2: int
    data: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"lattice dimensions must be positive, got {self.n1}x{self.n2}")
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.int8)).ravel()
        if data.size != self.n1 * self.n2:
            raise ValueError(
                f"mask length {data.size} does not match lattice {self.n1}x{self.n2}"
            )
        if not np.all((data == 0) | (data == 1)):
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


class PrecisionMatrix:
    """Symmetric PSD sparse precision matrix Q = D^T D for a lattice field.

    ``d_op`` keeps the difference operator D used to build Q; the field draw
    needs it for perturbation sampling.
    """

    def __init__(self, matrix: sparse.csr_matrix, d_op: sparse.csr_matrix):
        self.n = matrix.shape[0]
        self.matrix = matrix
        self.d_op = d_op

    def quad_form(self, f: np.ndarray) -> float:
        """f^T Q f (clipped at 0 against round-off)."""
        f = np.asarray(f, dtype=np.float64).ravel()
        return max(float(f @ (self.matrix @ f)), 0.0)


# The entries of row r of D, in column order: up, left, r itself, right, down.
_SLOTS = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))
_SELF = 2


class _Stencil:
    """Fixed sparsity pattern of D and of Q = D^T D on one n1 x n2 lattice.

    Only the edge weights change between builds, so the index arrays are
    computed once per lattice and each build fills in values.  The arrays are
    read-only because every D and Q of the lattice shares them.
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

        self.n = n
        self.d_indices = cols[valid]
        self.d_indptr = np.concatenate([[0], np.cumsum(valid.sum(axis=1))])
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
        # Q[a, b] and Q[b, a] both read the sum of entry (a, b), so Q is
        # symmetric bit for bit.
        a, b = np.divmod(upper, n)
        below = np.flatnonzero(a < b)
        rows = np.concatenate([a, b[below]])
        qcols = np.concatenate([b, a[below]])
        entry = np.concatenate([np.arange(upper.size), below])
        order = np.lexsort((qcols, rows))
        self.q_entry = entry[order]
        self.q_indices = qcols[order]
        self.q_indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])

        # scipy and SuperLU take 32-bit sparse indices without a copy
        for name in ("d_indices", "d_indptr", "q_indices", "q_indptr"):
            setattr(self, name, getattr(self, name).astype(np.int32))
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def difference(self, w: np.ndarray) -> sparse.csr_matrix:
        """D with weight ``w[e]`` on edge e (``edge_row`` -> ``edge_col``)
        and minus the row's weight sum on the diagonal."""
        data = np.empty(self.d_indices.size)
        data[self.edge_pos] = w
        data[self.diag_pos] = -np.bincount(self.edge_row, weights=w, minlength=self.n)
        return sparse.csr_matrix((data, self.d_indices, self.d_indptr), shape=(self.n, self.n))

    def precision(self, d_op: sparse.csr_matrix) -> PrecisionMatrix:
        """Q = D^T D for a D built by ``difference``."""
        d = d_op.data
        sums = np.bincount(self.prod_entry, weights=d[self.prod_left] * d[self.prod_right],
                           minlength=self.n_upper)
        q = sparse.csr_matrix((sums[self.q_entry], self.q_indices, self.q_indptr),
                              shape=(self.n, self.n))
        return PrecisionMatrix(q, d_op=d_op)


_stencil = lru_cache(maxsize=8)(_Stencil)


def build_igmrf_precision(n1: int, n2: int) -> PrecisionMatrix:
    """Q = D^T D for the homogeneous first-order prior (every weight 1)."""
    st = _stencil(n1, n2)
    return st.precision(st.difference(np.ones(st.edge_pos.size)))


def build_higmrf_precision(n1: int, n2: int, mask: SpotMask, lam: float) -> PrecisionMatrix:
    """Q = D^T D for the mask-weighted heterogeneous prior.

    ``mask`` lies on the same n1 x n2 lattice.  From a spot pixel every
    difference has weight 1; from a background pixel the difference towards a
    background neighbour has weight lam, towards a spot neighbour weight 1.
    """
    st = _stencil(n1, n2)
    e = mask.data
    background = (e[st.edge_row] == 0) & (e[st.edge_col] == 0)
    return st.precision(st.difference(np.where(background, lam, 1.0)))
