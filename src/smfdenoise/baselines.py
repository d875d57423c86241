"""Classical comparison filters: Gaussian, average, adaptive Wiener, non-local means.

The last three run on the image divided by 2^e (``lattice.pow2_scaled``),
so none of their sums or squares overflows, and scale their output back."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Raster, pow2_scaled
from .model import check_positive, check_window

__all__ = [
    "FilterConfig",
    "gaussian_kernel",
    "gaussian_filter",
    "average_filter",
    "wiener_filter",
    "nlm_filter",
]


@dataclass
class FilterConfig:
    gaussian_sigma: float = 1.0
    gaussian_size: int = 5
    average_size: int = 3
    wiener_size: int = 5
    nlm_patch: int = 5
    nlm_search: int = 11
    nlm_h: float = 0.1

    def validate(self):
        for name in ("gaussian_size", "average_size", "wiener_size", "nlm_patch", "nlm_search"):
            check_window(getattr(self, name), name)
        for name in ("gaussian_sigma", "nlm_h"):
            check_positive(getattr(self, name), name)
        return self


def gaussian_kernel(sigma: float, size: int) -> np.ndarray:
    """Normalized sampled 1-D Gaussian on ``size`` points.  The isotropic
    size x size kernel is its outer product with itself."""
    check_window(size, "size")
    check_positive(sigma, "sigma")
    s, k = pow2_scaled(np.float64(sigma))  # so that sigma^2 is never formed
    half = size // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        g = np.exp(-np.ldexp(ax ** 2 / (2.0 * s ** 2), -2 * k))
    return g / g.sum()


def _window_sums(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum over (a, b) of w[a] * w[b] * xp[a:a + m1, b:b + m2] for every
    len(w)-square window of xp that lies inside it, summed along rows, then
    along columns; a stack of images, on the last two axes, goes through
    image by image.  For a symmetric w on an edge-padded image this is the
    convolution with the kernel outer(w, w) and edge-replicated borders."""
    m1 = xp.shape[-2] - w.size + 1
    m2 = xp.shape[-1] - w.size + 1
    rows = w[0] * xp[..., :m1, :]
    for a in range(1, w.size):
        rows += w[a] * xp[..., a:a + m1, :]
    out = w[0] * rows[..., :m2]
    for b in range(1, w.size):
        out += w[b] * rows[..., b:b + m2]
    return out


def gaussian_filter(y: Raster, sigma: float, size: int) -> Raster:
    """Convolution with a normalized Gaussian kernel, edge-replicated borders."""
    g = gaussian_kernel(sigma, size)
    return Raster.from_2d(_window_sums(np.pad(y.to_2d(), size // 2, mode="edge"), g))


def average_filter(y: Raster, size: int) -> Raster:
    """Convolution with a uniform kernel, edge-replicated borders."""
    check_window(size, "size")
    x, e = pow2_scaled(y.to_2d())
    sums = _window_sums(np.pad(x, size // 2, mode="edge"), np.ones(size))
    return Raster.from_2d(np.ldexp(sums / (size * size), e))


def wiener_filter(y: Raster, size: int) -> Raster:
    """Per-pixel adaptive Wiener filter.

    Local mean and population variance over a size x size window
    (edge-replicated); the noise floor is the mean of all local variances.
    Output is mu + gain * (y - mu) with gain = max(var - floor, 0) /
    max(var, floor); fully degenerate windows pass the local mean through.
    """
    check_window(size, "size")
    x, e = pow2_scaled(y.to_2d())
    xp = np.pad(x, size // 2, mode="edge")
    mu = _window_sums(xp, np.ones(size)) / (size * size)
    m2 = _window_sums(xp * xp, np.ones(size)) / (size * size)
    var = np.maximum(m2 - mu * mu, 0.0)
    floor = var.mean()
    denom = np.maximum(var, floor)
    safe = np.where(denom > 0.0, denom, 1.0)
    gain = np.where(denom > 0.0, np.maximum(var - floor, 0.0) / safe, 0.0)
    return Raster.from_2d(np.ldexp(mu + gain * (x - mu), e))


def nlm_filter(y: Raster, patch: int, search: int, h: float) -> Raster:
    """Non-local means with Gaussian-of-SSD weights.

    Patches are taken from an edge-replicated padding of the image; for each
    offset within the search window the patch SSD map is computed by a box
    sum of the squared shifted difference, and the output is the
    weight-normalized average exp(-SSD / h^2) over all offsets (the zero
    offset included with weight 1).  The offsets of one row offset go
    through as one stack, so a search window of s x s offsets takes s
    rounds of array calls, not s^2; the weighted sums still add offset by
    offset in row-major order.  h is scaled as the image is, and an
    SSD / h^2 past float64's top gives weight exp(-inf) = 0, its limit.
    """
    check_window(patch, "patch")
    check_window(search, "search")
    check_positive(h, "h")
    x, e = pow2_scaled(y.to_2d())
    hs, k = pow2_scaled(np.float64(h))
    n1, n2 = x.shape
    ph = patch // 2
    sh = search // 2
    pad = ph + sh
    xp = np.pad(x, pad, mode="edge")
    num = np.zeros((n1, n2))
    den = np.zeros((n1, n2))
    hs2 = hs * hs
    ones = np.ones(patch)
    # center block of xp, with a ph-halo for the patch box sums
    base = xp[sh:sh + n1 + 2 * ph, sh:sh + n2 + 2 * ph]
    # shifted[sh + dr, sh + dc] is that block shifted by (dr, dc)
    shifted = np.lib.stride_tricks.sliding_window_view(xp, base.shape)
    # row 0 carries the running sum, rows 1.. one term per column offset:
    # a sum over axis 0 adds them one by one, in order
    terms = np.empty((search + 1, n1, n2))
    for row in shifted:
        ssd = _window_sums((base - row) ** 2, ones)
        with np.errstate(over="ignore"):
            w = np.exp(-np.ldexp(ssd / hs2, 2 * (e - k)))
        terms[0] = num
        np.multiply(w, row[:, ph:ph + n1, ph:ph + n2], out=terms[1:])
        num = terms.sum(axis=0)
        terms[0] = den
        terms[1:] = w
        den = terms.sum(axis=0)
    return Raster.from_2d(np.ldexp(num / den, e))
