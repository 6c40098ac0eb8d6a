import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaudio import _decimal

FORMATS = {
    ".12e": _decimal.scientific,
    ".9f": lambda v: _decimal.fixed(v, 9),
    ".6f": lambda v: _decimal.fixed(v, 6),
    ".0f": lambda v: _decimal.fixed(v, 0),
}


def assert_formats_exactly(values):
    """Each format's rows, joined as CSV lines, are format(x, spec) per x."""
    values = np.asarray(values, dtype=np.float64)
    for spec, fmt in FORMATS.items():
        text = _decimal.csv_rows(fmt(values))
        assert text == "".join(format(x, spec) + "\r\n"
                               for x in values.tolist()), spec


def with_neighbours(values):
    """values and the floats one ulp below and above each."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


@pytest.mark.deep
@settings(deadline=None)
@given(st.lists(st.one_of(
    st.floats(min_value=0.0, allow_infinity=False), st.floats(),
    # up to 17 digits at any exponent that gives 2 or 3 exponent digits
    st.builds(lambda d, e: float(f"{d}e{e}"), st.integers(1, 10 ** 17),
              st.integers(-130, 110))), min_size=1, max_size=40))
@example([0.0, 1e-300, 1e300, 5e-324, 2.2250738585072014e-308,
          1.7976931348623157e308, 0.5, 2.5, 1e13, 2.5e100, 3.7e-100,
          5.25e101, 9.5e-101])
def test_formats_match_python(values):
    # any float64: subnormals, zero, huge, negative and non-finite values
    assert_formats_exactly(values)


def test_powers_of_ten_and_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert_formats_exactly(with_neighbours(powers))


@pytest.mark.deep
@settings(deadline=None)
@given(digits=st.lists(st.integers(10 ** 12, 10 ** 13 - 1), min_size=1,
                       max_size=20),
       exponent=st.integers(-110, 110),
       whole=st.lists(st.integers(0, 10 ** 14), min_size=1, max_size=20))
def test_near_ties_match_python(digits, exponent, whole):
    # the float nearest to a decimal midpoint, and its neighbours one ulp
    # either side: of 13 significant digits for .12e, and of the last shown
    # digit for the fixed formats
    ties = [float(f"{d}5e{exponent - 13}") for d in digits]
    ties += [float(f"{w}5e{-places - 1}") for w in whole
             for places in (0, 6, 9)]
    assert_formats_exactly(with_neighbours(ties))


def test_shape_is_kept_and_fallback_widens_the_field():
    out = _decimal.scientific(np.array([[1.5, -2.0e-150], [0.0, 3.0]]))
    assert out.shape == (2, 2, len("-2.000000000000e-150"))
    block = _decimal.fixed(np.array([9.0, 10.0]), 0)[:, np.newaxis]
    assert _decimal.csv_rows(block, out) == (
        "9,1.500000000000e+00\r\n9,-2.000000000000e-150\r\n"
        "10,0.000000000000e+00\r\n10,3.000000000000e+00\r\n")
