"""Image lattices, 4-neighbourhoods and (weighted) difference-operator precision matrices.

The field prior is an intrinsic GMRF whose precision is Q = D^T D, where row
(i, j) of D sums the differences to the in-lattice 4-neighbours of pixel
(i, j).  The heterogeneous variant re-weights each difference according to a
binary spot/background mask: differences seen from a background pixel towards
another background pixel carry weight ``lam`` (> 1), all others weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "Raster",
    "SpotMask",
    "LatticeWeights",
    "PrecisionMatrix",
    "neighbors",
    "igmrf_difference",
    "higmrf_difference",
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


@dataclass(frozen=True)
class LatticeWeights:
    """Coupling weight between pairs of background pixels."""

    lam: float = 50.0

    def __post_init__(self):
        if not (self.lam > 1.0):
            raise ValueError(f"lam must be > 1, got {self.lam}")


class PrecisionMatrix:
    """Symmetric PSD sparse precision matrix Q = D^T D for a lattice field.

    ``d_op`` keeps the difference operator D used to build Q; the field draw
    needs it for perturbation sampling.
    """

    def __init__(self, matrix: sparse.csr_matrix, d_op: sparse.csr_matrix):
        matrix = sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("precision matrix must be square")
        self.n = matrix.shape[0]
        self.matrix = matrix
        self.d_op = d_op

    def quad_form(self, f: np.ndarray) -> float:
        """f^T Q f (clipped at 0 against round-off)."""
        f = np.asarray(f, dtype=np.float64).ravel()
        return max(float(f @ (self.matrix @ f)), 0.0)


_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def neighbors(i: int, j: int, n1: int, n2: int) -> list[tuple[int, int]]:
    """In-lattice subset of the 4 nearest neighbours of pixel (i, j)."""
    if not (0 <= i < n1 and 0 <= j < n2):
        raise ValueError(f"pixel ({i},{j}) outside {n1}x{n2} lattice")
    return [
        (i + di, j + dj)
        for di, dj in _OFFSETS
        if 0 <= i + di < n1 and 0 <= j + dj < n2
    ]


def _neighbor_pairs(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """All directed (center, neighbour) flat-index pairs of the 4-neighbour stencil."""
    idx = np.arange(n1 * n2).reshape(n1, n2)
    centers = []
    neighbs = []
    # vertical pairs, both directions
    centers.append(idx[:-1, :].ravel())
    neighbs.append(idx[1:, :].ravel())
    centers.append(idx[1:, :].ravel())
    neighbs.append(idx[:-1, :].ravel())
    # horizontal pairs, both directions
    centers.append(idx[:, :-1].ravel())
    neighbs.append(idx[:, 1:].ravel())
    centers.append(idx[:, 1:].ravel())
    neighbs.append(idx[:, :-1].ravel())
    return np.concatenate(centers), np.concatenate(neighbs)


def _difference_from_weights(n: int, centers: np.ndarray, neighbs: np.ndarray,
                             w: np.ndarray) -> sparse.csr_matrix:
    # Row m of D: +w on each neighbour, -(sum of w) on the diagonal.
    diag = np.zeros(n)
    np.add.at(diag, centers, w)
    rows = np.concatenate([centers, np.arange(n)])
    cols = np.concatenate([neighbs, np.arange(n)])
    vals = np.concatenate([w, -diag])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _precision_from_difference(d_op: sparse.csr_matrix) -> PrecisionMatrix:
    q = (d_op.T @ d_op).tocsr()
    # enforce bit-exact symmetry of stored entries
    q = ((q + q.T) * 0.5).tocsr()
    q.sum_duplicates()
    return PrecisionMatrix(q, d_op=d_op)


def igmrf_difference(n1: int, n2: int) -> sparse.csr_matrix:
    """Unweighted first-order difference operator D on an n1 x n2 lattice."""
    if n1 * n2 < 2:
        raise ValueError("lattice must have at least 2 pixels")
    centers, neighbs = _neighbor_pairs(n1, n2)
    w = np.ones(centers.size)
    return _difference_from_weights(n1 * n2, centers, neighbs, w)


def higmrf_difference(n1: int, n2: int, mask: SpotMask,
                      weights: LatticeWeights) -> sparse.csr_matrix:
    """Mask-weighted difference operator.

    From a spot pixel every difference has weight 1; from a background pixel
    the difference towards a background neighbour has weight lam, towards a
    spot neighbour weight 1.
    """
    if n1 * n2 < 2:
        raise ValueError("lattice must have at least 2 pixels")
    if (mask.n1, mask.n2) != (n1, n2):
        raise ValueError(
            f"mask is {mask.n1}x{mask.n2}, lattice is {n1}x{n2}"
        )
    centers, neighbs = _neighbor_pairs(n1, n2)
    e = mask.data
    w = np.where(e[centers] == 1, 1.0,
                 np.where(e[neighbs] == 0, weights.lam, 1.0))
    return _difference_from_weights(n1 * n2, centers, neighbs, w)


def build_igmrf_precision(n1: int, n2: int) -> PrecisionMatrix:
    """Q = D^T D for the homogeneous first-order prior."""
    return _precision_from_difference(igmrf_difference(n1, n2))


def build_higmrf_precision(n1: int, n2: int, mask: SpotMask,
                           weights: LatticeWeights) -> PrecisionMatrix:
    """Q = D^T D for the mask-weighted heterogeneous prior."""
    return _precision_from_difference(higmrf_difference(n1, n2, mask, weights))
