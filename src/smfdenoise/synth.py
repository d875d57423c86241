"""Synthetic fluorescence-spot images: Gaussian bumps plus exact-SNR white noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Raster

__all__ = [
    "CorpusError",
    "SynthConfig",
    "Spot",
    "SynthPair",
    "render_spots",
    "generate_truth",
    "add_noise",
    "generate_corpus",
]


class CorpusError(ValueError):
    """A corpus image that a valid SynthConfig cannot produce: its values
    leave the float64 range, or its truth is constant so SNR is undefined."""


@dataclass
class SynthConfig:
    n1: int = 30
    n2: int = 30
    n_images: int = 50
    spots_min: int = 3
    spots_max: int = 8
    amplitude_min: float = 0.5
    amplitude_max: float = 1.0
    psf_sigma: float = 1.2
    snr_db_min: float = 5.0
    snr_db_max: float = 10.0
    seed: int = 0

    def validate(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("lattice dimensions must be positive")
        if self.n_images < 0:
            raise ValueError("n_images must be non-negative")
        if self.spots_min < 0 or self.spots_min > self.spots_max:
            raise ValueError("need 0 <= spots_min <= spots_max")
        if self.amplitude_min > self.amplitude_max:
            raise ValueError("need amplitude_min <= amplitude_max")
        if self.psf_sigma <= 0:
            raise ValueError("psf_sigma must be positive")
        if self.snr_db_min > self.snr_db_max:
            raise ValueError("need snr_db_min <= snr_db_max")
        for name in ("amplitude_min", "amplitude_max", "psf_sigma", "snr_db_min", "snr_db_max"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        return self


@dataclass(frozen=True)
class Spot:
    row: float
    col: float
    amplitude: float


@dataclass(frozen=True)
class SynthPair:
    truth: Raster
    noisy: Raster
    spots: tuple[Spot, ...]
    target_snr_db: float
    realized_snr_db: float
    image_seed: int


def render_spots(n1: int, n2: int, spots: list[Spot] | tuple[Spot, ...],
                 psf_sigma: float) -> Raster:
    """Render a list of spots as a sum of isotropic Gaussian bumps."""
    img = np.zeros((n1, n2))
    rows = np.arange(n1, dtype=np.float64)[:, None]
    cols = np.arange(n2, dtype=np.float64)[None, :]
    for s in spots:
        img += s.amplitude * np.exp(
            -((rows - s.row) ** 2 + (cols - s.col) ** 2) / (2.0 * psf_sigma ** 2))
    return Raster.from_2d(img)


def generate_truth(cfg: SynthConfig, rng: np.random.Generator) -> tuple[Raster, list[Spot]]:
    """Gaussian bumps at uniform continuous positions inside the lattice;
    ``cfg`` has passed ``SynthConfig.validate``."""
    count = int(rng.integers(cfg.spots_min, cfg.spots_max + 1))
    spots = [
        Spot(
            row=rng.uniform(0.0, cfg.n1 - 1.0),
            col=rng.uniform(0.0, cfg.n2 - 1.0),
            amplitude=rng.uniform(cfg.amplitude_min, cfg.amplitude_max),
        )
        for _ in range(count)
    ]
    return render_spots(cfg.n1, cfg.n2, spots, cfg.psf_sigma), spots


def add_noise(truth: Raster, snr_db: float, rng: np.random.Generator) -> tuple[Raster, float]:
    """Add white Gaussian noise, rescaled so the realized SNR hits the target.

    SNR is the ratio of signal variance to noise variance in dB.  The drawn
    noise vector is rescaled to the target variance exactly, so the realized
    value differs from the target only through round-off.
    """
    sig_var = float(truth.data.var())
    if sig_var == 0.0:
        raise ValueError("truth raster is constant; SNR undefined")
    target_var = sig_var / 10.0 ** (snr_db / 10.0)
    noise = rng.standard_normal(truth.data.size)
    noise = noise * (np.sqrt(target_var) / float(noise.std()))
    realized = 10.0 * np.log10(sig_var / float(noise.var()))
    return Raster(truth.n1, truth.n2, truth.data + noise), float(realized)


def generate_corpus(cfg: SynthConfig) -> list[SynthPair]:
    """n_images independent truth/noisy pairs, deterministic under cfg.seed.

    Values that pass ``SynthConfig.validate`` can still overflow float64 or
    give a constant truth (no spots, or a PSF far narrower than a pixel);
    such an image raises ``CorpusError``.
    """
    cfg.validate()
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_images)
    pairs = []
    for k, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                truth, spots = generate_truth(cfg, rng)
                target = float(rng.uniform(cfg.snr_db_min, cfg.snr_db_max))
                noisy, realized = add_noise(truth, target, rng)
        except (ArithmeticError, ValueError) as exc:
            raise CorpusError(f"cannot generate corpus image {k}: {exc}") from exc
        pairs.append(SynthPair(
            truth=truth,
            noisy=noisy,
            spots=tuple(spots),
            target_snr_db=target,
            realized_snr_db=realized,
            image_seed=k,
        ))
    return pairs
