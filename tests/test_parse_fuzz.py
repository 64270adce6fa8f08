"""Every parser of outside input (the four CSV formats and the three --by
encodings) ends in a value or in ParseError, never in another exception,
and the schedule's --rho ends in exit code 0 or 2."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from rearrange_lab import cli, grid2d, lattice, series, step1d
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
    st.builds("c={}".format, NUMBER),
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
    cli.ENGINES["lattice"][2],
], ids=["halfspace-1d", "halfspace-2d", "lattice-hyperplane",
        "lattice-involution"])
@settings(deadline=None)
@given(text=BY_TEXT)
@example(text="dir=Y,s=inf")
@example(text="dir=X,s=8.98846567431158e+307")
@example(text="nu=1,d=-1e400")
@example(text="nu=1e400,d=1")
@example(text="c")
def test_by_parsers(parse, text):
    _value_or_parse_error(parse, text)


@settings(deadline=None)
@given(rho=NUMBER, count=st.integers(1, 50))
@example(rho="2.2250738585072014e-308", count=50)   # 2**-1022
@example(rho="8.98846567431158e+307", count=3)       # 2**1023
@example(rho="1e-320", count=2)
def test_schedule_rho(rho, count):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = cli.main(["schedule", "--count", str(count), f"--rho={rho}"])
    assert code in (0, 2)
    if code == 0:
        offsets = [float(line.split("d=")[1]) for line in out.getvalue().split()]
        assert len(offsets) == count
        assert all(0 < d <= float(rho) for d in offsets)
