"""The whole-column table codec of ``_textio`` against the field-at-a-time
codec it replaced, kept here verbatim as the reference: over the four CSV
formats, every text gives the same object and the same bytes back, or the
same ParseError message; every object dumps to the same bytes."""

import sys
from itertools import repeat, zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rearrange_lab import _textio, grid2d, lattice, series, step1d
from rearrange_lab.errors import ParseError
from rearrange_lab.grid2d import GridFunction
from rearrange_lab.lattice import LatticeFunction
from rearrange_lab.series import ConvergenceRecord, ConvergenceSeries
from rearrange_lab.step1d import StepFunction
from test_csv_roundtrip import RECORD, SITE, VALUE, grid_functions, step_functions
from test_parse_fuzz import CSV_TEXT

HUGE = sys.float_info.max


# -- The reference: the codec as it was, field at a time. --------------------

def _texts(convert, values):
    """The fields of values in a column that convert reads back."""
    if convert is int:
        return map(str, values)
    return map(format, values, repeat(".17g"))


def dumps(header, columns, body) -> str:
    if not isinstance(header, str):
        header = ",".join([str(x) if isinstance(x, int) else format(x, ".17g")
                           for x in header])
    if callable(columns):
        lines = [",".join(_texts(columns, row)) for row in body]
    else:
        lines = map(",".join, zip_longest(*map(_texts, columns, body),
                                          fillvalue=""))
    return "\n".join([header, *lines]) + "\n"


def optional(convert):
    """The conversion of a column whose empty field means an absent value."""
    return lambda field: convert(field) if field.strip() else None


def _columns(lines: list, columns: tuple) -> list:
    """The fields of lines, converted, as one list per column."""
    table = [line.split(",") for line in lines]
    for line, fields in zip(lines, table):
        if len(fields) != len(columns):
            raise ValueError(f"row {line!r} has {len(fields)} fields, "
                             f"want {len(columns)}")
    if not table:
        return [[] for _ in columns]
    return [list(map(convert, column))
            for convert, column in zip(columns, zip(*table))]


def loads(text: str, header, columns, build):
    lines = [line for line in text.split("\n") if line.strip()]
    fixed = isinstance(header, str)
    if not lines or (fixed and lines[0].strip() != header):
        raise ParseError(f"expected header {header!r}" if fixed
                         else "empty table")
    try:
        head = [] if fixed else [col[0] for col in _columns(lines[:1], header)]
        if callable(columns):
            body = [[list(map(columns, line.split(",")))
                     for line in lines[1:]]]
        else:
            body = _columns(lines[1:], columns)
        return build(*head, *body)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


SERIES_COLUMNS = (int, float, float, float, float)

# format: (loads, dumps, reference loads, reference dumps)
FORMATS = {
    "step1d": (
        step1d.loads, step1d.dumps,
        lambda text: loads(text, step1d.CSV_HEADER,
                           (float, optional(float)), step1d._from_columns),
        lambda u: dumps(step1d.CSV_HEADER, (float, float),
                        [u.breakpoints.tolist(), u.values.tolist()])),
    "lattice": (
        lattice.loads, lattice.dumps,
        lambda text: loads(
            text, lattice.CSV_HEADER, (int, float),
            lambda sites, values: LatticeFunction(zip(sites, values))),
        lambda u: dumps(lattice.CSV_HEADER, (int, float), zip(*u.items()))),
    "grid2d": (
        grid2d.loads, grid2d.dumps,
        lambda text: loads(text, (int, float), float, GridFunction),
        lambda u: dumps((u.m, u.h), float, u.values.tolist())),
    "series": (
        ConvergenceSeries.loads, ConvergenceSeries.dumps,
        lambda text: loads(
            text, series.CSV_HEADER, SERIES_COLUMNS,
            lambda *columns: ConvergenceSeries(map(ConvergenceRecord, *columns))),
        lambda s: dumps(series.CSV_HEADER, SERIES_COLUMNS,
                        zip(*[(r.n, r.lp_error, r.weighted_mass, r.sup_error,
                               r.deviation_measure) for r in s.records]))),
}


def _outcome(parse, ref_dumps, text):
    """("error", message), or ("value", type, bytes, lattice insertion
    order); the bytes come from the reference writer, which prints every
    double bit-exactly, so equal bytes mean bit-equal objects."""
    try:
        x = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    order = list(x._values) if isinstance(x, LatticeFunction) else None
    return "value", type(x), ref_dumps(x), order


def _same_as_reference(name, text):
    new_loads, new_dumps, ref_loads, ref_dumps = FORMATS[name]
    got = _outcome(new_loads, ref_dumps, text)
    assert got == _outcome(ref_loads, ref_dumps, text)
    if got[0] == "value":
        assert new_dumps(new_loads(text)) == got[2]


# -- Texts near each format: mostly the right header and width. --------------

FLOAT_FIELD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["-0.0", "0.0", "-0", "inf", "-inf", repr(-HUGE),
                     "5e-324", " 1.5 ", "1_0", "", " ", "\t", "x"]),
    st.integers(-3, 3).map(str),
)
INT_FIELD = st.one_of(st.integers(-3, 3).map(str),
                      st.sampled_from(["", " 2 ", "1_0", "1.5", "-0"]))
BLANK = st.sampled_from(["", " ", "\r", " \t "])


def _table(header, fields):
    """Text of a header and rows: rows of the fields' width, rows of any
    width, blank lines, and an optional missing final newline."""
    row = st.one_of(
        st.tuples(*fields).map(",".join),
        st.lists(fields[-1], max_size=len(fields) + 1).map(",".join),
        BLANK,
    )
    return st.builds(lambda head, rows, end: "\n".join([head, *rows]) + end,
                     header, st.lists(row, max_size=10),
                     st.sampled_from(["\n", "", "\r\n", ",\n"]))


def _grid_text():
    def build(m, h, cells, ragged):
        rows = [",".join(cells[i:i + 2 * m + 1])
                for i in range(0, len(cells), 2 * m + 1)]
        return "\n".join([f"{m},{h}", *rows, *ragged]) + "\n"
    return st.integers(0, 2).flatmap(lambda m: st.builds(
        build, st.just(m),
        st.sampled_from(["1", "0.5", "1e-300", " 2 ", "inf", "x"]),
        st.lists(FLOAT_FIELD, min_size=(2 * m + 1) ** 2,
                 max_size=(2 * m + 1) ** 2),
        st.lists(st.lists(FLOAT_FIELD, max_size=4).map(",".join), max_size=1)))


TEXTS = {
    "step1d": _table(st.sampled_from([step1d.CSV_HEADER, " breakpoint,value "]),
                     (FLOAT_FIELD, FLOAT_FIELD)),
    # sites from a small range, so that a site repeats
    "lattice": _table(st.just(lattice.CSV_HEADER), (INT_FIELD, FLOAT_FIELD)),
    "grid2d": st.one_of(_grid_text(), _table(
        st.builds("{},{}".format, INT_FIELD, FLOAT_FIELD),
        (FLOAT_FIELD, FLOAT_FIELD, FLOAT_FIELD))),
    "series": _table(st.just(series.CSV_HEADER),
                     (INT_FIELD, *[FLOAT_FIELD] * 4)),
}


CASE = st.sampled_from(sorted(FORMATS)).flatmap(
    lambda name: st.tuples(st.just(name), st.one_of(TEXTS[name], CSV_TEXT)))


@settings(deadline=None, max_examples=600)
@given(case=CASE)
# -0.0 and 0.0 in one grid (bit patterns, not values, key the texts)
@example(case=("grid2d", "1,1\n-0.0,0.0,-0\n0,-0.0,0.0\n0,0,-0.0\n"))
# inf and -HUGE in series columns
@example(case=("series", f"{series.CSV_HEADER}\n0,inf,{-HUGE!r},inf,{-HUGE!r}\n"
                         f"1,{-HUGE!r},inf,-0.0,0\n"))
# a padded field and an underscore, which float() and int() accept
@example(case=("step1d", "breakpoint,value\n 1.5 ,1_0\n2,\n"))
@example(case=("lattice", "site,value\n 1_0 , 1.5 \n"))
# an empty value mid-column, also one of spaces; a blank last value
@example(case=("step1d", "breakpoint,value\n0,1\n1,\n2,3\n3,\n"))
@example(case=("step1d", "breakpoint,value\n0,1\n1, \n2,3\n3,\n"))
@example(case=("step1d", "breakpoint,value\n0,1\n1,\t\n"))
@example(case=("step1d", "breakpoint,value\n0,\n1,\n"))
@example(case=("step1d", "breakpoint,value\n0,x\n1,\n"))
# ragged grid rows, and a trailing comma
@example(case=("grid2d", "1,1\n0,0,0\n0,0\n0,0,0\n"))
@example(case=("grid2d", "1,1\n0,0,0\n0,0,0,0\n0,0,0\n"))
@example(case=("grid2d", "1,1\n0,0,0,\n0,0,0\n0,0,0\n"))
@example(case=("grid2d", "0,1\n1\n2\n"))
@example(case=("step1d", "breakpoint,value\n0,1,\n1,\n"))
@example(case=("lattice", "site,value\n1,2,\n"))
# whitespace-only and \r lines, and header-only tables
@example(case=("step1d", "breakpoint,value\r\n \n0,1\r\n\r\n\t\n1,\r\n"))
@example(case=("lattice", " site,value \n\r\n"))
@example(case=("step1d", "breakpoint,value\n"))
@example(case=("lattice", "site,value\n"))
@example(case=("grid2d", "1,2\n"))
@example(case=("grid2d", "0,1\n"))
@example(case=("series", f"{series.CSV_HEADER}\n"))
# a duplicate lattice site after a negative value, and the other order
@example(case=("lattice", "site,value\n1,-1\n2,1\n2,3\n"))
@example(case=("lattice", "site,value\n2,1\n2,3\n1,-1\n"))
@example(case=("lattice", "site,value\n2,0\n2,0\n"))
@example(case=("lattice", "site,value\n0,nan\n1,inf\n"))
@example(case=("lattice", "site,value\n0,0\n1,-0.0\n2,1.5\n"))
def test_loads_matches_reference(case):
    _same_as_reference(*case)


def _same_bytes(name, x):
    _, new_dumps, _, ref_dumps = FORMATS[name]
    assert new_dumps(x) == ref_dumps(x)


@settings(deadline=None)
@given(u=step_functions())
@example(u=StepFunction([-0.0, 1.0, 2.0], [1.0, 1.0000000000000002]))
@example(u=StepFunction([-HUGE / 2, 0.0, HUGE / 2], [5e-324, HUGE]))
# a rearrangement's breakpoints are +-x pairs
@example(u=step1d.rearrange(StepFunction([-3.0, 0.1, 0.5, 2.75, 40.0],
                                         [2.0, 1.0, 3.0, 0.25])))
def test_step1d_dumps_matches_reference(u):
    _same_bytes("step1d", u)


@settings(deadline=None)
@given(u=st.dictionaries(SITE, VALUE, max_size=8).map(LatticeFunction))
@example(u=LatticeFunction({-10**20: HUGE, 10**20 + 1: HUGE, 0: 1.0}))
def test_lattice_dumps_matches_reference(u):
    _same_bytes("lattice", u)


@settings(deadline=None)
@given(u=grid_functions())
@example(u=GridFunction(1, 0.5, [[-0.0, 0.0, -0.0], [0.0, 1.0, 0.0],
                                 [-0.0, -0.0, 0.0]]))
@example(u=GridFunction(1, 1.0, np.arange(9.0).reshape(3, 3).T))
def test_grid2d_dumps_matches_reference(u):
    _same_bytes("grid2d", u)


@settings(deadline=None)
@given(s=st.lists(RECORD, max_size=6).map(ConvergenceSeries))
@example(s=ConvergenceSeries([
    ConvergenceRecord(0, float("inf"), -HUGE, -0.0, 0.0),
    ConvergenceRecord(10**20, -HUGE, float("inf"), 0.0, -0.0)]))
def test_series_dumps_matches_reference(s):
    _same_bytes("series", s)


# -- Every double formatted once per magnitude. ------------------------------

SIGN = -2**63   # the sign bit, as an int64
PINNED_BITS = [int(b) for b in np.array(
    [0.0, 5e-324, HUGE, float("inf"), float("nan")]).view(np.int64)]


@settings(deadline=None)
@given(bits=st.lists(st.integers(-2**63, 2**63 - 1), max_size=16),
       mirrored=st.booleans())
@example(bits=PINNED_BITS, mirrored=True)   # +-0, +-5e-324, +-max, +-inf, +-nan
@example(bits=[b ^ SIGN for b in PINNED_BITS], mirrored=False)
def test_texts_format_each_double(bits, mirrored):
    """_texts(float, a) formats a column as format(x, ".17g") does each x:
    any 64-bit patterns, and columns holding x beside -x (the sign bit
    flipped, NaN included)."""
    if mirrored:
        bits = [b for x in bits for b in (x, x ^ SIGN)]
    a = np.array(bits, dtype=np.int64).view(float)
    assert _textio._texts(float, a) == [format(x, ".17g") for x in a.tolist()]
