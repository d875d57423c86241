"""Bayesian denoising of single-molecule fluorescence images.

A latent Gaussian field with an intrinsic GMRF prior (optionally
heterogeneous via a spot/background mask) is fitted by a Gibbs sampler;
classical filters, image-quality metrics, a synthetic-spot generator and a
PSRF convergence diagnostic round out the toolkit.
"""

from .baselines import (
    FilterConfig,
    average_filter,
    gaussian_filter,
    nlm_filter,
    wiener_filter,
)
from .diagnostics import ConvergenceReport, TraceSet, convergence_report, psrf
from .lattice import Raster, SpotMask
from .metrics import MetricsReport, evaluate, kld, psnr, rmse, ssim
from .model import HyperParams, NoiseParams
from .sampler import HIGMRF, IGMRF, DenoiseResult, denoise
from .synth import SynthConfig, SynthPair, add_noise, generate_corpus, generate_truth

__version__ = "0.1.0"
