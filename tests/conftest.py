"""Reference constructions shared by the lattice tests and the acceptance gate."""

import numpy as np

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
