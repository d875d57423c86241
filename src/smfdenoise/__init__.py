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
from .lattice import (
    LatticeWeights,
    PrecisionMatrix,
    Raster,
    SpotMask,
    build_higmrf_precision,
    build_igmrf_precision,
    neighbors,
)
from .metrics import MetricsReport, evaluate, kld, psnr, rmse, ssim
from .model import DesignMatrix, HyperParams, NoiseParams, make_design
from .sampler import (
    HIGMRF,
    IGMRF,
    DenoiseResult,
    denoise,
    get_binary_image,
    sample_gamma,
    sample_kappas,
)
from .synth import SynthConfig, SynthPair, add_noise, generate_corpus, generate_truth

__version__ = "0.1.0"
