"""Observation model: trend design matrix, hyper-parameters and precisions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HyperParams",
    "NoiseParams",
    "SamplerNumericalError",
    "make_design",
]


class SamplerNumericalError(RuntimeError):
    """The chain left the numerically valid range: a field precision that
    overflows, a precision draw that is not positive and finite, or a linear
    system that cannot be factored."""


@dataclass
class HyperParams:
    """Sampler configuration.

    Defaults follow the synthetic-image configuration: gamma prior shapes and
    scales (alpha_l, beta_l, alpha_f, beta_f), relative threshold h, chain
    length T.  gamma_precision scales the (isotropic) prior precision of the
    trend coefficients; lam is the background coupling weight of the
    heterogeneous prior.
    """

    alpha_l: float = 1.0
    beta_l: float = 10.0
    alpha_f: float = 10.0
    beta_f: float = 0.01
    gamma_precision: float = 1e-3
    lam: float = 50.0
    h: float = 0.1
    n_iter: int = 100
    # 29 gave the best spot/background masks in a pilot study on 30x30
    # synthetic corpora; small windows flag far too much background.
    window: int = 29
    burn_in: int = 50
    seed: int = 0

    def validate(self):
        for name in ("alpha_l", "beta_l", "alpha_f", "beta_f", "gamma_precision"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not (self.lam > 1.0 and np.isfinite(self.lam)):
            need = "finite" if self.lam > 1.0 else "> 1"
            raise ValueError(f"lam must be {need}, got {self.lam}")
        if not np.isfinite(self.h):
            raise ValueError(f"h must be finite, got {self.h}")
        # past the upper bound, NumPy cannot size the chain's (n_iter, 3) float64 trace
        if not 1 <= self.n_iter <= np.iinfo(np.intp).max // 24:
            raise ValueError(f"n_iter must lie in [1, {np.iinfo(np.intp).max // 24}], "
                             f"got {self.n_iter}")
        if not (0 < self.burn_in < self.n_iter):
            raise ValueError(
                f"burn_in must lie in (0, n_iter), got {self.burn_in} with n_iter={self.n_iter}"
            )
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        return self


@dataclass(frozen=True)
class NoiseParams:
    """Observation precision kappa_l and field precision kappa_f."""

    kappa_l: float
    kappa_f: float

    def __post_init__(self):
        for name in ("kappa_l", "kappa_f"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise SamplerNumericalError(f"{name} must be positive and finite, got {v}")


def make_design(n1: int, n2: int) -> np.ndarray:
    """Pixel-wise trend basis over an n1 x n2 lattice, read-only, shape
    (n1*n2, 3): intercept, normalized row and column coordinate."""
    rows = np.repeat(np.arange(n1, dtype=np.float64), n2)
    cols = np.tile(np.arange(n2, dtype=np.float64), n1)
    rcoord = rows / (n1 - 1) if n1 > 1 else np.zeros(n1 * n2)
    ccoord = cols / (n2 - 1) if n2 > 1 else np.zeros(n1 * n2)
    z = np.column_stack([np.ones(n1 * n2), rcoord, ccoord])
    z.flags.writeable = False
    return z
