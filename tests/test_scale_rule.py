"""The one power-of-two scale rule (``lattice.pow2_scaled``), bit for bit:
every computation that sums or squares intensities, or a filter's sigma or
h, runs on them divided by 2^e, so scaling an input by 2^k scales an equivariant output by exactly 2^k
and leaves an invariant one as it is, until float64's range ends.  The
quality measures are checked the same way in test_metrics.py, TestScale."""

import math
import warnings

import numpy as np
import pytest

from smfdenoise.baselines import average_filter, gaussian_kernel, nlm_filter, wiener_filter
from smfdenoise.lattice import Raster, pow2_scaled
from smfdenoise.model import HyperParams
from smfdenoise.sampler import HIGMRF, IGMRF, denoise
from smfdenoise.synth import SynthConfig, generate_corpus


def image(k=0):
    y = np.random.default_rng(29).standard_normal((9, 7)) + 2.0
    y[4, 3] += 6.0  # a spot, so the chain's mask has something to find
    return Raster.from_2d(np.ldexp(y, k))


def test_pow2_scaled_puts_the_largest_value_in_half_to_one():
    x = np.array([[3.0, -0.25], [-6.0, 0.0]])
    scaled, e = pow2_scaled(x)
    assert e == 3 and np.array_equal(scaled, x / 8)
    scaled, e = pow2_scaled(x, axis=0)
    assert np.array_equal(e, [3, -1]) and np.array_equal(scaled, x / [8, 0.5])
    assert pow2_scaled(np.zeros(3))[1] == 0


@pytest.mark.parametrize("k", [-900, 900])
@pytest.mark.parametrize("filt", [lambda y: average_filter(y, 3), lambda y: wiener_filter(y, 5)],
                         ids=["average", "wiener"])
def test_filter_scales_by_the_power_of_two(filt, k):
    assert np.array_equal(filt(image(k)).data, np.ldexp(filt(image()).data, k))


@pytest.mark.parametrize("k", [-400, 400, -900, 900])
def test_nlm_scales_with_its_h(k):
    # h is scaled too, so h^2 is never formed and cannot leave float64
    out = nlm_filter(image(k), 5, 11, math.ldexp(0.5, k)).data
    assert np.array_equal(out, np.ldexp(nlm_filter(image(), 5, 11, 0.5).data, k))


def test_nlm_at_the_top_of_float64_is_finite():
    noisy = generate_corpus(SynthConfig(n1=10, n2=10, n_images=1, seed=1))[0].noisy
    y = Raster(10, 10, noisy.data * (1.5e308 / np.abs(noisy.data).max()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nlm_filter(y, 5, 11, 0.1)
    assert np.isfinite(out.data).all()


def test_sigma_and_h_whose_squares_leave_float64():
    # sigma^2 and h^2 would be 0, and the weights 0/0: the limits are a delta
    # kernel and weight 0 for every patch that differs from the pixel's own.
    # A sigma^2 past float64's top would give a flat kernel, or an
    # OverflowError from Python's float power.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels = gaussian_kernel(1e-200, 5), gaussian_kernel(1e300, 5)
        out = nlm_filter(image(), 5, 11, 1e-170)
    assert np.array_equal(kernels[0], [0.0, 0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(kernels[1], np.full(5, 0.2))
    assert np.array_equal(out.data, image().data)


@pytest.mark.parametrize("k", [-900, 900])
@pytest.mark.parametrize("variant", [IGMRF, HIGMRF])
def test_posterior_mean_scales_by_the_power_of_two(variant, k):
    hp = HyperParams(n_iter=4, burn_in=2, seed=5)
    base, scaled = denoise(image(), hp, variant), denoise(image(k), hp, variant)
    assert np.array_equal(scaled.posterior_mean.data, np.ldexp(base.posterior_mean.data, k))
    assert np.array_equal(scaled.final_mask.data, base.final_mask.data)
    assert np.array_equal(scaled.theta_trace, base.theta_trace)
    assert np.array_equal(scaled.gamma_trace, base.gamma_trace)
