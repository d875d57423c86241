"""Tests for the multi-chain convergence diagnostic."""

import numpy as np
import pytest

from smfdenoise.diagnostics import (
    PSRF_THRESHOLD,
    ConvergenceReport,
    DegenerateTraceError,
    TraceSet,
    convergence_report,
    psrf,
)


class TestTraceSet:
    def test_shape_properties(self):
        t = TraceSet(np.arange(12.0).reshape(3, 4))
        assert t.values.shape == (3, 4)
        with pytest.raises(ValueError):
            t.values[0, 0] = 1.0

    def test_needs_two_chains(self):
        with pytest.raises(ValueError):
            TraceSet(np.zeros((1, 5)))

    def test_needs_length_two(self):
        with pytest.raises(ValueError):
            TraceSet(np.zeros((3, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TraceSet(np.array([[0.0, np.inf], [1.0, 2.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            TraceSet(np.zeros(6))


class TestPsrf:
    def test_two_short_chains_value(self):
        # chains {0,2} and {1,3}: W=2, B=1, PSRF = 0.5 + 1/4 = 0.75
        value = psrf(TraceSet(np.array([[0.0, 2.0], [1.0, 3.0]])))
        assert abs(value - 0.75) < 1e-12

    def test_identical_chains_give_floor(self):
        # B = 0, so the statistic collapses to 1 - 1/L.
        chain = np.sin(np.arange(50.0))
        value = psrf(TraceSet(np.stack([chain, chain, chain])))
        assert abs(value - (1.0 - 1.0 / 50)) < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((4, 100))
        a = psrf(TraceSet(v))
        b = psrf(TraceSet(2.5 * v - 7.0))
        assert abs(a - b) < 1e-10

    def test_diverged_chains_exceed_threshold(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((2, 200)) * 0.1
        v[1] += 10.0
        assert psrf(TraceSet(v)) > PSRF_THRESHOLD

    def test_well_mixed_chains_below_threshold(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal((4, 500))
        assert psrf(TraceSet(v)) < PSRF_THRESHOLD

    def test_constant_chains_degenerate(self):
        with pytest.raises(DegenerateTraceError):
            psrf(TraceSet(np.ones((2, 10))))

    @pytest.mark.parametrize("k", [-1000, 0, 1000])
    def test_power_of_two_scale_keeps_every_bit(self, k):
        # traces of kappa near float64's top or bottom get the PSRF of the
        # same traces in range, with no overflow or underflow on the way
        v = np.random.default_rng(11).gamma(3.0, size=(3, 40))
        assert psrf(TraceSet(np.ldexp(v, k))) == psrf(TraceSet(v))


class TestConvergenceReport:
    def test_mixed_verdicts(self):
        rng = np.random.default_rng(11)
        good = TraceSet(rng.standard_normal((4, 300)))
        bad_values = rng.standard_normal((2, 300)) * 0.1
        bad_values[0] += 5.0
        report = convergence_report({"a": good, "b": TraceSet(bad_values)})
        assert isinstance(report, ConvergenceReport)
        assert report.passed["a"] is True
        assert report.passed["b"] is False
        assert report.all_converged is False

    def test_degenerate_names_parameter(self):
        with pytest.raises(DegenerateTraceError, match="kappa_x"):
            convergence_report({"kappa_x": TraceSet(np.zeros((2, 5)))})
