"""Every parser of outside input (the four CSV formats and the three --by
encodings) ends in a value or in ParseError, never in another exception."""

import pytest
from hypothesis import example, given, settings, strategies as st

from rearrange_lab import grid2d, lattice, series, step1d
from rearrange_lab.errors import ParseError
from rearrange_lab.grid2d import LatticeHyperplane
from rearrange_lab.halfspace import Halfspace

# Numbers as text, with the spellings float() reads as non-finite or
# overflowing, next to some that are not numbers at all.
NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "", " ", "x",
                     "1_0", "0x1"]),
)
FIELD = st.one_of(NUMBER, st.text(max_size=4))
HEADER = st.one_of(
    st.sampled_from([step1d.CSV_HEADER, lattice.CSV_HEADER,
                     series.CSV_HEADER]),
    st.builds("{},{}".format, NUMBER, NUMBER),
    st.text(max_size=12),
)
ROW = st.lists(FIELD, max_size=6).map(",".join)
CSV_TEXT = st.one_of(
    st.builds(lambda head, rows: "\n".join([head, *rows]) + "\n",
              HEADER, st.lists(ROW, max_size=8)),
    st.text(),
)
BY_TEXT = st.one_of(
    st.builds("nu={},d={}".format, NUMBER, NUMBER),
    st.builds("dir={},s={}".format, st.sampled_from("XYUDxyq"), NUMBER),
    st.text(max_size=20),
)


def _value_or_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@pytest.mark.parametrize("parse", [
    step1d.loads, lattice.loads, grid2d.loads, series.ConvergenceSeries.loads,
], ids=["step1d", "lattice", "grid2d", "series"])
@settings(deadline=None)
@given(text=CSV_TEXT)
@example(text="1,inf\n0,0,0\n0,1,0\n0,0,0\n")
def test_csv_loads(parse, text):
    _value_or_parse_error(parse, text)


@pytest.mark.parametrize("parse", [
    lambda text: Halfspace.parse(text, 1),
    lambda text: Halfspace.parse(text, 2),
    LatticeHyperplane.parse,
], ids=["halfspace-1d", "halfspace-2d", "lattice-hyperplane"])
@settings(deadline=None)
@given(text=BY_TEXT)
@example(text="dir=Y,s=inf")
@example(text="dir=X,s=8.98846567431158e+307")
@example(text="nu=1,d=-1e400")
@example(text="nu=1e400,d=1")
def test_by_parsers(parse, text):
    _value_or_parse_error(parse, text)
