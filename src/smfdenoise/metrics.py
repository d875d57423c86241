"""Image-quality measures against a ground-truth raster: RMSE, PSNR, KLD, UQI."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Raster

__all__ = [
    "MetricsReport",
    "MetricInstabilityError",
    "rmse",
    "psnr",
    "kld",
    "ssim",
    "evaluate",
]

KLD_BINS = 10
# |UQI denominator| at or below this makes the index meaningless
UQI_DENOM_TOL = 1e-12


class MetricInstabilityError(ArithmeticError):
    """A measure is undefined for this pair: a non-positive PSNR peak, or a
    UQI denominator too close to zero to be meaningful."""


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    psnr_db: float
    kld: float
    ssim: float


def _pair(estimate: Raster, truth: Raster) -> tuple[np.ndarray, np.ndarray]:
    if (estimate.n1, estimate.n2) != (truth.n1, truth.n2):
        raise ValueError(
            f"shape mismatch: estimate {estimate.n1}x{estimate.n2} "
            f"vs truth {truth.n1}x{truth.n2}"
        )
    return estimate.data, truth.data


def rmse(estimate: Raster, truth: Raster) -> float:
    a, b = _pair(estimate, truth)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def psnr(estimate: Raster, truth: Raster) -> float:
    """20 log10(max(estimate) / rmse), in dB.

    The peak is the estimated image's maximum.  Identical images give
    +infinity as a distinguished value.
    """
    a, _ = _pair(estimate, truth)
    err = rmse(estimate, truth)
    peak = float(a.max())
    if err == 0.0:
        return math.inf
    if peak <= 0.0:
        raise MetricInstabilityError(f"maximum of estimate must be positive, got {peak}")
    return 20.0 * math.log10(peak / err)


def kld(estimate: Raster, truth: Raster) -> float:
    """Discrete KL divergence of the truth histogram from the estimate histogram.

    Both images are binned into KLD_BINS equal-width bins spanning their joint
    range; every bin mass is smoothed by one pixel's worth (1/N) before
    normalization so the divergence stays finite.
    """
    a, b = _pair(estimate, truth)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return 0.0
    edges = np.linspace(lo, hi, KLD_BINS + 1)
    n = a.size
    p = np.histogram(b, bins=edges)[0] / n + 1.0 / n  # truth
    q = np.histogram(a, bins=edges)[0] / n + 1.0 / n  # estimate
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def ssim(estimate: Raster, truth: Raster) -> float:
    """Global universal quality index (SSIM with both stabilizers at zero).

    Population statistics over the whole image; raises when the denominator
    is within UQI_DENOM_TOL of zero, where the index is unstable.
    """
    a, b = _pair(estimate, truth)
    mu_a = a.mean()
    mu_b = b.mean()
    var_a = ((a - mu_a) ** 2).mean()
    var_b = ((b - mu_b) ** 2).mean()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    denom = (mu_a ** 2 + mu_b ** 2) * (var_a + var_b)
    if abs(denom) <= UQI_DENOM_TOL:
        raise MetricInstabilityError(
            f"UQI denominator {denom} within {UQI_DENOM_TOL} of zero"
        )
    return float((2 * mu_a * mu_b) * (2 * cov) / denom)


def evaluate(estimate: Raster, truth: Raster) -> MetricsReport:
    """All four measures in one report."""
    return MetricsReport(
        rmse=rmse(estimate, truth),
        psnr_db=psnr(estimate, truth),
        kld=kld(estimate, truth),
        ssim=ssim(estimate, truth),
    )
