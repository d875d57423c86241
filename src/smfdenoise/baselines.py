"""Classical comparison filters: Gaussian, average, adaptive Wiener, non-local means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Raster

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
            _check_odd(getattr(self, name), name)
        for name in ("gaussian_sigma", "nlm_h"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValueError(f"{name} must be positive, got {v}")
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        return self


def _check_odd(size: int, name: str = "size"):
    if size < 3 or size % 2 == 0:
        raise ValueError(f"{name} must be odd and >= 3, got {size}")


def gaussian_kernel(sigma: float, size: int) -> np.ndarray:
    """Normalized sampled isotropic Gaussian on a size x size grid."""
    _check_odd(size)
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    half = size // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _weighted_window_sums(xp: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum over (a, b) of k[a, b] * xp[a:a + m1, b:b + m2] for every window of
    xp that lies inside it.  For a symmetric k on an edge-padded image this is
    the convolution with edge-replicated borders."""
    m1 = xp.shape[0] - k.shape[0] + 1
    m2 = xp.shape[1] - k.shape[1] + 1
    out = np.zeros((m1, m2))
    for a in range(k.shape[0]):
        for b in range(k.shape[1]):
            out += k[a, b] * xp[a:a + m1, b:b + m2]
    return out


def _box_sums(xp: np.ndarray, size: int) -> np.ndarray:
    """Sums of xp over every size x size window that lies inside it."""
    m1 = xp.shape[0] - size + 1
    m2 = xp.shape[1] - size + 1
    rows = xp[:m1].copy()
    for a in range(1, size):
        rows += xp[a:a + m1]
    out = rows[:, :m2].copy()
    for b in range(1, size):
        out += rows[:, b:b + m2]
    return out


def gaussian_filter(y: Raster, sigma: float, size: int) -> Raster:
    """Convolution with a normalized Gaussian kernel, edge-replicated borders."""
    k = gaussian_kernel(sigma, size)
    out = _weighted_window_sums(np.pad(y.to_2d(), size // 2, mode="edge"), k)
    return Raster.from_2d(out)


def average_filter(y: Raster, size: int) -> Raster:
    """Convolution with a uniform kernel, edge-replicated borders."""
    _check_odd(size)
    k = np.full((size, size), 1.0 / (size * size))
    out = _weighted_window_sums(np.pad(y.to_2d(), size // 2, mode="edge"), k)
    return Raster.from_2d(out)


def wiener_filter(y: Raster, size: int) -> Raster:
    """Per-pixel adaptive Wiener filter.

    Local mean and population variance over a size x size window
    (edge-replicated); the noise floor is the mean of all local variances.
    Output is mu + gain * (y - mu) with gain = max(var - floor, 0) /
    max(var, floor); fully degenerate windows pass the local mean through.
    """
    _check_odd(size)
    x = y.to_2d()
    xp = np.pad(x, size // 2, mode="edge")
    mu = _box_sums(xp, size) / (size * size)
    m2 = _box_sums(xp * xp, size) / (size * size)
    var = np.maximum(m2 - mu * mu, 0.0)
    floor = var.mean()
    denom = np.maximum(var, floor)
    safe = np.where(denom > 0.0, denom, 1.0)
    gain = np.where(denom > 0.0, np.maximum(var - floor, 0.0) / safe, 0.0)
    return Raster.from_2d(mu + gain * (x - mu))


def nlm_filter(y: Raster, patch: int, search: int, h: float) -> Raster:
    """Non-local means with Gaussian-of-SSD weights.

    Patches are taken from an edge-replicated padding of the image; for each
    offset within the search window the patch SSD map is computed by a box
    sum of the squared shifted difference, and the output is the
    weight-normalized average exp(-SSD / h^2) over all offsets (the zero
    offset included with weight 1).
    """
    _check_odd(patch, "patch")
    _check_odd(search, "search")
    if not (h > 0):
        raise ValueError(f"h must be positive, got {h}")
    x = y.to_2d()
    n1, n2 = x.shape
    ph = patch // 2
    sh = search // 2
    pad = ph + sh
    xp = np.pad(x, pad, mode="edge")
    num = np.zeros((n1, n2))
    den = np.zeros((n1, n2))
    h2 = h * h
    # center block of xp, with a ph-halo for the patch box sums
    base = xp[sh:sh + n1 + 2 * ph, sh:sh + n2 + 2 * ph]
    for dr in range(-sh, sh + 1):
        for dc in range(-sh, sh + 1):
            shifted = xp[sh + dr:sh + dr + n1 + 2 * ph, sh + dc:sh + dc + n2 + 2 * ph]
            diff2 = (base - shifted) ** 2
            ssd = _box_sums(diff2, patch)
            w = np.exp(-ssd / h2)
            num += w * shifted[ph:ph + n1, ph:ph + n2]
            den += w
    return Raster.from_2d(num / den)
