"""Tests for the trend design and hyper-parameters."""

import numpy as np
import pytest

from smfdenoise.model import (
    WINDOW_MAX,
    HyperParams,
    NoiseParams,
    SamplerNumericalError,
    make_design,
)


class TestHyperParams:
    def test_defaults_validate(self):
        HyperParams().validate()
        HyperParams(window=WINDOW_MAX).validate()

    @pytest.mark.parametrize("field,value", [
        ("alpha_l", 0.0),
        ("beta_f", -1.0),
        ("gamma_precision", 0.0),
        ("lam", 1.0),
        ("lam", np.inf),
        ("h", np.nan),
        ("h", np.inf),
        ("n_iter", 0),
        ("window", 4),
        ("window", 1),
        ("window", WINDOW_MAX + 2),
        ("window", 10 ** 30 + 1),
        ("seed", -1),
    ])
    def test_rejects_bad_values(self, field, value):
        hp = HyperParams()
        setattr(hp, field, value)
        with pytest.raises(ValueError):
            hp.validate()

    def test_burn_in_must_precede_chain_end(self):
        with pytest.raises(ValueError):
            HyperParams(n_iter=10, burn_in=10).validate()


class TestDesign:
    def test_columns_on_3x3(self):
        z = make_design(3, 3)
        np.testing.assert_array_equal(z[:, 0], np.ones(9))
        np.testing.assert_allclose(z[4], [1.0, 0.5, 0.5])  # center pixel
        np.testing.assert_allclose(z[8], [1.0, 1.0, 1.0])  # bottom-right

    def test_single_row_lattice_has_flat_row_coordinate(self):
        z = make_design(1, 4)
        np.testing.assert_array_equal(z[:, 1], np.zeros(4))
        np.testing.assert_allclose(z[:, 2], [0.0, 1 / 3, 2 / 3, 1.0])

    def test_matrix_read_only(self):
        z = make_design(2, 2)
        with pytest.raises(ValueError):
            z[0, 0] = 2.0


class TestNoiseParams:
    def test_rejects_non_positive(self):
        # a draw outside (0, inf) is a numerical failure of the chain
        with pytest.raises(SamplerNumericalError):
            NoiseParams(kappa_l=0.0, kappa_f=1.0)
        with pytest.raises(SamplerNumericalError):
            NoiseParams(kappa_l=1.0, kappa_f=np.inf)

