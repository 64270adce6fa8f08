"""The run-length ConvergenceSeries against the tuple of its records.

A series built from rows and the ends of their runs (as the triangular
driver builds it) must read exactly as the tuple of records it stands
for: the records the plain loop makes, one per outer step, each a copy
of its run's row with its own n.
"""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rearrange_lab import _textio, series as series_module
from rearrange_lab.series import (CSV_HEADER, ConvergenceRecord,
                                  ConvergenceSeries)

HUGE = 1.7976931348623157e308
# A small pool, so that neighbouring runs often hold floats equal by ==
# with other bits (0.0 and -0.0).
FLOAT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, HUGE, -HUGE,
                                   float("inf"), 0.1]),
                  st.floats(allow_nan=False))
FIELDS = st.tuples(FLOAT, FLOAT, FLOAT, FLOAT)


@st.composite
def runs(draw):
    """(rows, ends): each row's n is the end of the run before it, or
    (now and then) any n; each run holds one to five records, and now and
    then the floats of the run before it."""
    rows, ends = [], []
    n = draw(st.sampled_from([0, 1, 10**20]))
    for fields in draw(st.lists(FIELDS, max_size=6)):
        if rows and draw(st.integers(0, 4)) == 0:
            n = draw(st.integers(0, 10**20))
        if rows and draw(st.booleans()):
            fields = rows[-1]._fields()
        rows.append(ConvergenceRecord(n, *fields))
        n += draw(st.integers(1, 5))
        ends.append(n)
    return rows, ends


def expanded(rows, ends):
    """The records the runs stand for, one per n."""
    return tuple(dataclasses.replace(row, n=m)
                 for row, end in zip(rows, ends) for m in range(row.n, end))


def reference_dumps(records):
    """The CSV text of records by the table writer, one row per record."""
    return _textio.dumps(
        CSV_HEADER, (int, float, float, float, float),
        zip(*[(r.n, r.lp_error, r.weighted_mass, r.sup_error,
               r.deviation_measure) for r in records]))


@settings(max_examples=300, deadline=None)
@given(drawn=runs())
@example(drawn=([], []))
@example(drawn=([ConvergenceRecord(0, 0.0, 1.0, -0.0, 0.0),
                 ConvergenceRecord(3, -0.0, 1.0, 0.0, 0.0)], [3, 6]))
def test_reads_as_its_records(drawn):
    series = ConvergenceSeries._runs(*drawn)
    records = expanded(*drawn)
    assert len(series) == len(records)
    assert series.records == records
    assert tuple(series) == records
    for i in range(-len(records), len(records)):
        assert series[i] == records[i]
    for i in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            series[i]
    assert series[1:-1] == records[1:-1]
    if records:
        assert series.final == records[-1]
    else:
        with pytest.raises(IndexError):
            series.final
    assert series.weighted_masses() == [r.weighted_mass for r in records]
    assert series.dumps() == reference_dumps(records)
    flat = ConvergenceSeries(records)
    assert series == flat and hash(series) == hash(flat)
    assert ConvergenceSeries.loads(series.dumps()) == series


def test_a_run_past_the_int64_range():
    row = ConvergenceRecord(2**63 - 2, 0.5, 1.0, 0.0, 0.25)
    series = ConvergenceSeries._runs([row], [2**63 + 2])
    assert len(series) == 4
    assert series.final == dataclasses.replace(row, n=2**63 + 1)
    assert series.dumps().splitlines()[-1] == f"{2**63 + 1},0.5,1,0,0.25"


@settings(max_examples=200, deadline=None)
@given(drawn=runs(), lines=st.integers(1, 4))
def test_written_in_blocks_of_bounded_lines(drawn, lines):
    """write_csv writes blocks of whole lines, each ended once it holds
    _LINES lines or more, and the file holds dumps' bytes, the table
    writer's."""
    series = ConvergenceSeries._runs(*drawn)
    want = reference_dumps(expanded(*drawn))
    with mock.patch.object(series_module, "_LINES", lines), \
            tempfile.TemporaryDirectory() as tmp:
        blocks = list(series._blocks())
        path = Path(tmp, "series.csv")
        series.write_csv(path)
        assert path.read_bytes() == want.encode()
        assert series.dumps() == want
    assert blocks[0].startswith(CSV_HEADER + "\n")
    counts = [block.count("\n") for block in blocks]
    counts[0] -= 1   # the header line
    assert all(block.endswith("\n") for block in blocks)
    assert all(lines <= k < 2 * lines for k in counts[:-1])
    assert 0 <= counts[-1] < 2 * lines
