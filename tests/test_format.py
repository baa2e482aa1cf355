"""The "%.17g" text of data._g17_fields and data.format_rows: every float64 is
written as Python's ``"%.17g" % x`` writes it, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xmodal.data import FIELD_WIDTH, _g17_fields, format_rows

# the same examples on every run, and none kept between runs
DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def texts(values):
    """Each value's text as _g17_fields writes it, its NUL padding dropped."""
    return [bytes(field).replace(b"\0", b"").decode() for field in _g17_fields(values)]


def assert_percent_text(values):
    values = np.asarray(values, np.float64)
    assert texts(values) == ["%.17g" % v for v in values.tolist()]


def ulps_around(v, count=3):
    """v and the count doubles on each side of it."""
    out, up, down = [v], v, v
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


# every power of ten in and around the fixed-notation range, the doubles next to it,
# and the range's own bounds
POWERS = [x for m in range(-8, 19) for x in ulps_around(float(f"1e{m}"))]
# 1 + j * 2**-17 has 17 decimals: the odd j end in 5, a tie at 17 significant
# digits, rounded half to even ("1.0000076293945312|5" -> "...312")
TIES = [1 + j * 2.0**-17 for j in range(1, 4096)] + [(1 + j * 2.0**-17) * 2.0**-10
                                                     for j in range(1, 512)]
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, 9999999999999998.0, 1e16 - 2, 0.5, 1.0, 100.0]
EDGES = np.array([s * x for x in POWERS + TIES + SPECIAL for s in (1.0, -1.0)])


class TestPercentText:
    def test_edges(self):
        assert_percent_text(EDGES)

    def test_integers_up_to_1e17(self):
        rng = np.random.default_rng(0)
        assert_percent_text(np.concatenate([rng.integers(0, 10**17, 4000),
                                            rng.integers(0, 10**6, 4000)]).astype(np.float64))

    def test_normals_over_every_scale(self):
        rng = np.random.default_rng(1)
        assert_percent_text(np.concatenate([rng.normal(size=500) * 10.0**s
                                            for s in range(-12, 20)]))

    @DERANDOMIZED
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_any_float(self, values):
        assert_percent_text(values)

    @DERANDOMIZED
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        assert_percent_text(np.array(bits, np.uint64).view(np.float64))

    def test_fields_are_padded_to_the_width(self):
        fields = _g17_fields(np.array([-2.2250738585072014e-308, 1.0]))
        assert fields.shape == (2, FIELD_WIDTH)
        assert bytes(fields[0]) == b"-2.2250738585072014e-308"
        assert bytes(fields[1]).replace(b"\0", b"") == b"1"


class TestFormatRows:
    @pytest.mark.parametrize("cols", [0, 1, 3])
    def test_rows_are_their_percent_text(self, cols):
        values = np.arange(4 * cols, dtype=np.float64).reshape(4, cols) / 7 - 0.5
        prefixes, suffixes = [f"{r}\t" for r in range(4)], [f"\t{'x' * r}\n" for r in range(4)]
        want = "".join(p + ",".join("%.17g" % v for v in row) + s
                       for p, row, s in zip(prefixes, values.tolist(), suffixes))
        assert format_rows(prefixes, values, suffixes) == want.encode()

    def test_no_rows(self):
        assert format_rows([], np.empty((0, 3)), []) == b""



def test_only_the_exponents_present_are_laid_out(monkeypatch):
    # the per-exponent layout skips an exponent no value has: values of two exponents
    # read two of the 20 templates
    from xmodal import data

    reads = []

    class Reads(np.ndarray):
        def __getitem__(self, key):
            reads.append(key)
            return np.ndarray.__getitem__(self, key)

    monkeypatch.setattr(data, "_TEMPLATES", data._TEMPLATES.view(Reads))
    values = [1.5, -2.25, 31.0, 47.125]
    assert_percent_text(values)
    assert sorted(reads) == [4, 5]   # e = 0 and e = 1
