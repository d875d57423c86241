"""Property tests of the checks at the boundaries where values enter the
program: the configuration loader, the CSV raster format, and the lattice
precision that a mask and lam produce."""

import math
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import dense_q
from hypothesis.extra.numpy import arrays

from smfdenoise.config import ConfigError, effective_config_lines, load_config, parse_config_text
from smfdenoise.fileio import read_raster_csv, write_raster_csv
from smfdenoise.lattice import Raster, SpotMask, build_higmrf_precision
from smfdenoise.model import NoiseParams
from smfdenoise.sampler import BandedCholeskySolver

# every configuration key, spelled as files spell it
KEYS = sorted(line.split("=", 1)[0] for line in effective_config_lines(*load_config()))
VALUES = st.one_of(
    st.text(max_size=12),
    st.floats(),
    st.integers(min_value=-10, max_value=300).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "1", "3", "50.0", " 7 "]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(KEYS), VALUES, min_size=1, max_size=3))
def test_load_config_rejects_or_echo_round_trips(overrides):
    try:
        configs = load_config(overrides=overrides)
    except ConfigError:
        return
    for obj in configs:
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, float):
                assert math.isfinite(value), f"{f.name}={value} accepted"
    echo = "\n".join(effective_config_lines(*configs))
    assert load_config(overrides=parse_config_text(echo)) == configs


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_round_trips_finite_rasters_to_nine_digits(tmp_path, x):
    path = tmp_path / "r.csv"
    write_raster_csv(path, Raster.from_2d(x))
    back = read_raster_csv(path)
    assert back.to_2d().shape == x.shape
    np.testing.assert_allclose(back.to_2d(), x, rtol=5e-9, atol=0)
    # what was read writes back to the same text
    again = tmp_path / "again.csv"
    write_raster_csv(again, back)
    assert again.read_text() == path.read_text()


@st.composite
def masked_lattices(draw):
    n1 = draw(st.integers(1, 8))
    n2 = draw(st.integers(1, 8))
    mask = draw(arrays(np.int8, (n1, n2), elements=st.integers(0, 1)))
    lam = draw(st.floats(min_value=1.0, max_value=1e4, exclude_min=True))
    return n1, n2, SpotMask.from_2d(mask), lam


@settings(max_examples=200, deadline=None, database=None)
@given(masked_lattices(),
       st.floats(min_value=1e-2, max_value=1e2), st.floats(min_value=1e-2, max_value=1e2))
def test_higmrf_precision_is_symmetric_intrinsic_and_band_solvable(lattice, kappa_l, kappa_f):
    n1, n2, mask, lam = lattice
    precision = build_higmrf_precision(mask, lam)
    q = dense_q(n1, n2, precision)
    n = n1 * n2
    np.testing.assert_array_equal(q, q.T)
    # each row of Q sums to 0 before rounding; about 20 roundings per row
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(q.sum(axis=1)) <= 32 * eps * np.abs(q).sum(axis=1))
    noise = NoiseParams(kappa_l=kappa_l, kappa_f=kappa_f)
    a = kappa_l * np.eye(n) + kappa_f * q
    b = np.random.default_rng(n).standard_normal(n)
    expected = np.linalg.solve(a, b)
    got = BandedCholeskySolver(precision).solve(precision, noise, b)
    err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
    assert err <= 100 * np.linalg.cond(a) * eps
