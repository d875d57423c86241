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


def _pair(estimate: Raster, truth: Raster) -> tuple[np.ndarray, np.ndarray, int]:
    """The two images' values divided by 2^e, and e, the exponent of their
    largest |value|.  Every measure is computed on them: the division is
    exact, so images in range give the bits they would unscaled, and no
    square of a value near float64's top overflows."""
    if (estimate.n1, estimate.n2) != (truth.n1, truth.n2):
        raise ValueError(
            f"shape mismatch: estimate {estimate.n1}x{estimate.n2} "
            f"vs truth {truth.n1}x{truth.n2}"
        )
    a, b = estimate.data, truth.data
    e = int(np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1])
    return np.ldexp(a, -e), np.ldexp(b, -e), e


def _rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def rmse(estimate: Raster, truth: Raster) -> float:
    a, b, e = _pair(estimate, truth)
    # an RMSE past float64's top, from values near it of opposite sign, is inf
    with np.errstate(over="ignore"):
        return float(np.ldexp(_rms(a, b), e))


def psnr(estimate: Raster, truth: Raster) -> float:
    """20 log10(max(estimate) / rmse), in dB.

    The peak is the estimated image's maximum.  Identical images give
    +infinity as a distinguished value.
    """
    a, b, _ = _pair(estimate, truth)
    err = _rms(a, b)
    peak = float(a.max())
    if err == 0.0:
        return math.inf
    if peak <= 0.0:
        raise MetricInstabilityError(
            f"maximum of estimate must be positive, got {float(estimate.data.max())}")
    return 20.0 * math.log10(peak / err)


def kld(estimate: Raster, truth: Raster) -> float:
    """Discrete KL divergence of the truth histogram from the estimate histogram.

    Both images are binned into KLD_BINS equal-width bins spanning their joint
    range; every bin mass is smoothed by one pixel's worth (1/N) before
    normalization so the divergence stays finite.
    """
    a, b, _ = _pair(estimate, truth)
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
    a, b, e = _pair(estimate, truth)
    mu_a = a.mean()
    mu_b = b.mean()
    var_a = ((a - mu_a) ** 2).mean()
    var_b = ((b - mu_b) ** 2).mean()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    denom = (mu_a ** 2 + mu_b ** 2) * (var_a + var_b)
    # the denominator is 2^-4e times the unscaled one, and so is the bound
    # it is held to; past 2^1000 that bound is above any denominator of
    # values under 1 in size, so the cap keeps the verdict
    if abs(denom) <= math.ldexp(UQI_DENOM_TOL, min(-4 * e, 1000)):
        raise MetricInstabilityError(
            f"UQI denominator {math.ldexp(denom, 4 * e)} within {UQI_DENOM_TOL} of zero"
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
