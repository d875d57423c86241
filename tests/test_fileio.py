"""Tests for raster persistence (CSV and binary PGM)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smfdenoise.fileio import load_raster, read_pgm16, read_raster_csv, write_raster_csv
from smfdenoise.lattice import Raster, SpotMask

SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))
# finite doubles, with the ones whose text is most likely to differ: signed
# zero, subnormals, the ends of the range, and 9- and 10-digit values
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.5e-320, 2.2250738585072009e-308,
                     1.7e308, -1.7e308, 1.7976931348623157e308, 123456789.0,
                     1234567890.0, 0.123456789, -9.87654321e-5, 0.1234567891]),
    st.integers(-10**10, 10**10).map(float),
)
RASTERS = st.one_of(
    arrays(np.float64, SHAPES, elements=VALUES).map(Raster.from_2d),
    arrays(np.int8, SHAPES, elements=st.integers(0, 1)).map(SpotMask.from_2d),
)

# CSV cells as text: float reprs and 9-digit formats, the tokens where a
# parser is most likely to part from float()'s rules (underscores, padding,
# spelled-out and overflowing values, subnormals, non-ASCII digits, the
# empty cell, Fortran exponents), and short strings of number characters
TOKENS = st.one_of(
    st.floats().map(repr),
    VALUES.map(lambda v: format(v, ".9g")),
    st.sampled_from(["1_0", " 1.5", "2.5 ", "infinity", "-Infinity", "1e400", "4.9e-324",
                     "\u0661\u0662", "\u0663.\u0665", "", "1d5", "-0", "+.5", "5.", "nan"]),
    st.text(alphabet="0123456789.-+eE_ \u0667x", max_size=6),
)
CSV_ROWS = st.integers(1, 4).flatmap(
    lambda n2: st.lists(st.lists(TOKENS, min_size=n2, max_size=n2), min_size=1, max_size=4))


def csv_value_by_value(raster, comments):
    """The CSV text of ``raster`` with each value formatted on its own."""
    rows = [",".join(format(v, ".9g") for v in row) for row in raster.to_2d()]
    return "\n".join([f"# {c}" for c in comments] + rows) + "\n"


def write_pgm16(path, x):
    """Binary 16-bit big-endian PGM of the 2-D array x, mapped from
    [min, max] onto 0..65535 (all zeros for a constant array)."""
    lo, hi = x.min(), x.max()
    scale = (x - lo) / (hi - lo) if hi > lo else np.zeros_like(x)
    pixels = np.round(scale * 65535).astype(">u2")
    header = f"P5\n{x.shape[1]} {x.shape[0]}\n65535\n".encode("ascii")
    path.write_bytes(header + pixels.tobytes())


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        r = Raster.from_2d(rng.standard_normal((4, 6)))
        path = tmp_path / "r.csv"
        write_raster_csv(path, r)
        back = read_raster_csv(path)
        assert (back.n1, back.n2) == (4, 6)
        np.testing.assert_allclose(back.data, r.data, rtol=1e-8)

    def test_comments_preserved_and_skipped(self, tmp_path):
        r = Raster.from_2d(np.eye(2))
        path = tmp_path / "r.csv"
        write_raster_csv(path, r, comments=["seed=3", "T=100"])
        text = path.read_text()
        assert text.startswith("# seed=3\n# T=100\n")
        np.testing.assert_array_equal(read_raster_csv(path).data, r.data)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError):
            read_raster_csv(path)

    def test_unparsable_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# T=10\n1,2\n\n3,x\n")
        with pytest.raises(ValueError, match=rf"^{path}, line 4: .*'x'"):
            read_raster_csv(path)

    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(RASTERS)
    def test_row_writer_bytes_equal_value_by_value_format(self, tmp_path, raster):
        path = tmp_path / "r.csv"
        write_raster_csv(path, raster, comments=["T=100"])
        assert path.read_bytes() == csv_value_by_value(raster, ["T=100"]).encode()
        back = read_raster_csv(path)
        assert back.to_2d().shape == raster.to_2d().shape
        # 9 digits hold a value to 5e-9 relative; parsing adds at most as much
        np.testing.assert_allclose(back.data, raster.data, rtol=1e-8, atol=0)
        again = tmp_path / "again.csv"
        write_raster_csv(again, back, comments=["T=100"])
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(CSV_ROWS)
    def test_parse_equals_float_per_token(self, tmp_path, rows):
        # the reader parses a line with one NumPy conversion, which must
        # follow float()'s rules token by token, bit for bit, and reject
        # what float() or the raster rejects
        text = "".join(",".join(row) + "\n" for row in rows)
        path = tmp_path / "r.csv"
        path.write_text(text)
        try:
            expected = Raster.from_2d(np.array(
                [[float(tok) for tok in line.split(",")]
                 for line in map(str.strip, text.splitlines()) if line]))
        except ValueError:
            with pytest.raises(ValueError):
                read_raster_csv(path)
        else:
            assert read_raster_csv(path).data.tobytes() == expected.data.tobytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError):
            read_raster_csv(path)


class TestPgm:
    def test_round_trip_is_linear_map(self, tmp_path):
        x = np.array([[0.0, 0.5], [1.5, 2.0]])
        path = tmp_path / "r.pgm"
        write_pgm16(path, x)
        back = read_pgm16(path).to_2d()
        # written values are (x - min) / (max - min) * 65535, rounded
        expected = np.round((x - x.min()) / (x.max() - x.min()) * 65535)
        np.testing.assert_array_equal(back, expected)

    def test_header_shape(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_pgm16(path, np.zeros((3, 5)))
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n5 3\n65535\n")
        back = read_pgm16(path)
        assert (back.n1, back.n2) == (3, 5)

    def test_constant_raster_writes_zeros(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm16(path, np.full((2, 2), 7.0))
        np.testing.assert_array_equal(read_pgm16(path).data, 0.0)

    def test_eight_bit_pgm_accepted(self, tmp_path):
        path = tmp_path / "p8.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 10, 200, 255]))
        back = read_pgm16(path)
        np.testing.assert_array_equal(back.data, [0.0, 10.0, 200.0, 255.0])

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n\x00\x01")
        with pytest.raises(ValueError):
            read_pgm16(path)

    @pytest.mark.parametrize("header", [
        b"P5 # magic\n3 2\n255\n",
        b"P5# magic\n3 2\n255\n",
        b"P5\n3 # w\n2\n255\n",
        b"P5\n3# w\n# more\n 2\n255\n",
        b"P5\n3\n2 # h\n255\n",
        b"P5\n3 2\n255# maxval\n\n",
        b"P5\r\n3 # w\r2 #h\r\n255\n",
    ])
    def test_header_comments_between_any_tokens(self, tmp_path, header):
        path = tmp_path / "c.pgm"
        path.write_bytes(header + bytes([0, 1, 2, 10, 35, 255]))
        back = read_pgm16(path)
        assert (back.n1, back.n2) == (2, 3)
        np.testing.assert_array_equal(back.data, [0.0, 1.0, 2.0, 10.0, 35.0, 255.0])

    @pytest.mark.parametrize("header", [b"P5\n3 # w\n2\n255\n", b"P5\n3 2\n255# c\n\n"])
    def test_commented_header_with_truncated_body_rejected(self, tmp_path, header):
        path = tmp_path / "t.pgm"
        path.write_bytes(header + bytes(5))
        with pytest.raises(ValueError, match="truncated pixel data"):
            read_pgm16(path)

    def test_comment_ending_the_header_needs_a_whitespace_after_it(self, tmp_path):
        # Netpbm: the newline that ends a comment does not delimit the raster,
        # so a raster that begins with a comment is read as raster bytes
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P5\n2 1\n255\n#\n")
        np.testing.assert_array_equal(read_pgm16(path).data, [35.0, 10.0])

    def test_not_pgm_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"hello")
        with pytest.raises(ValueError):
            read_pgm16(path)

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_maxval_out_of_range_rejected(self, tmp_path, maxval):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n%d\n" % maxval + bytes(8))
        with pytest.raises(ValueError):
            read_pgm16(path)


class TestLoadRaster:
    def test_dispatch_on_suffix(self, tmp_path):
        r = Raster.from_2d(np.arange(4.0).reshape(2, 2))
        csv_path = tmp_path / "a.csv"
        pgm_path = tmp_path / "a.pgm"
        write_raster_csv(csv_path, r)
        write_pgm16(pgm_path, r.to_2d())
        assert load_raster(csv_path).n1 == 2
        assert load_raster(pgm_path).data.max() == 65535.0
