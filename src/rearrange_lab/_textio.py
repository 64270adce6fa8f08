"""The text formats of rearrange_lab, decided in one place.

Tables (the step1d, lattice, grid2d and convergence-series CSV files):

- UTF-8 text with ``\\n`` line endings, ending in one; blank lines are
  skipped on read.
- The first line is a header: a fixed line such as ``site,value``, or a
  row of values (the grid's ``m,h``).
- Every further line is one row of comma-separated fields.  A table with a
  fixed list of columns rejects a row of any other width.
- Each column has a conversion that reads it (``int``, ``float``, or
  ``optional(float)``).  An ``int`` column is written exactly by ``str``,
  every other column at 17 significant digits (``.17g``), which
  round-trips every double bit-exactly; a header row of values is written
  the same way by each value's type.
- A field is empty where a value is absent: on write, past the end of a
  column shorter than the first; on read, ``optional`` reads it as None.
- Any ``ValueError`` from a conversion or from building the result is a
  ``ParseError``.  Fields are converted column by column, each column top
  to bottom (row by row for a table of any width), so the first bad field
  in that order names the error.

A table is handled a whole column at a time: the body is split once,
each column is converted by one ``map``, and on write each distinct
magnitude in a column (a 2-D body is one column) is formatted once, keyed
by the bits of ``|x|``; its text is reused wherever the magnitude repeats,
with a ``-`` before it where the sign bit is set (so ``-0.0`` and ``0.0``
stay apart), except for NaN, which is ``nan`` for either sign.

Keyed encodings (the CLI's ``--by``): ``key=value`` parts separated by
commas, each key given once and converted by its own conversion.
"""

from itertools import repeat, zip_longest

import numpy as np

from .errors import ParseError


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


_MAGNITUDE = np.int64(2**63 - 1)   # every bit of a double but its sign


def _texts(convert, values) -> list:
    """The fields of values in a column that convert reads back."""
    if convert is int:
        return list(map(str, values))
    a = np.asarray(values, dtype=float).ravel()
    bits = a.view(np.int64)
    # Keyed by the bits of |x|, so x and -x share one format call: for
    # every double but NaN, whose text is "nan" for either sign bit, the
    # text of -x is "-" + the text of x (-0.0 and -inf included).
    magnitudes, where = np.unique(bits & _MAGNITUDE, return_inverse=True)
    texts = np.array(list(map(format, magnitudes.view(float).tolist(),
                              repeat(".17g"))), dtype=object)[where]
    negative = (bits < 0) & ~np.isnan(a)
    texts[negative] = "-" + texts[negative]
    return texts.tolist()


def dumps(header, columns, body) -> str:
    """The table text.

    header is the fixed first line, or the values of a first row.  columns
    are the conversions that read the table back: a tuple, with body one
    sequence per column (a column shorter than the first leaves its last
    fields empty), or one conversion, with body a 2-D array of rows.
    """
    if not isinstance(header, str):
        header = ",".join([str(x) if isinstance(x, int) else format(x, ".17g")
                           for x in header])
    if callable(columns):
        rows = np.asarray(body)
        texts = iter(_texts(columns, rows))
        # each line takes the next rows.shape[1] texts
        lines = map(",".join, zip(*[texts] * rows.shape[1]))
    else:
        lines = map(",".join, zip_longest(*map(_texts, columns, body),
                                          fillvalue=""))
    return "\n".join([header, *lines]) + "\n"


class optional:
    """The conversion of a column whose empty field means an absent value
    (convert itself must reject a blank field)."""

    def __init__(self, convert):
        self.convert = convert

    def __call__(self, field):
        return self.convert(field) if field.strip() else None

    def column(self, fields: list) -> list:
        """list(map(self, fields)), with one call of convert for each run of
        fields between empty ones."""
        try:
            out, start = [], 0
            for _ in range(fields.count("")):
                stop = fields.index("", start)
                out += map(self.convert, fields[start:stop])
                out.append(None)
                start = stop + 1
            out += map(self.convert, fields[start:])
            return out
        except ValueError:   # a field of spaces, or a bad one: field by field
            return list(map(self, fields))


def _commas(lines: list) -> list:
    """The number of commas in each line."""
    return list(map(str.count, lines, repeat(",")))


def _fields(lines: list) -> list:
    """Every field of lines, row by row."""
    return ",".join(lines).split(",") if lines else []


def _columns(lines: list, columns: tuple) -> list:
    """The fields of lines, converted, as one list per column."""
    width = len(columns)
    commas = _commas(lines)
    if commas.count(width - 1) != len(lines):
        row = next(i for i, k in enumerate(commas) if k != width - 1)
        raise ValueError(f"row {lines[row]!r} has {commas[row] + 1} fields, "
                         f"want {width}")
    fields = _fields(lines)
    return [convert.column(fields[k::width]) if isinstance(convert, optional)
            else list(map(convert, fields[k::width]))
            for k, convert in enumerate(columns)]


def _rows(lines: list, convert):
    """The fields of lines, converted, as a 2-D float array when every row
    has the same width, else as a list of rows."""
    fields = _fields(lines)
    commas = _commas(lines)
    if lines and commas.count(commas[0]) == len(lines):
        return np.fromiter(map(convert, fields), float, len(fields)).reshape(
            len(lines), commas[0] + 1)
    values = list(map(convert, fields))
    rows, start = [], 0
    for k in commas:
        rows.append(values[start:start + k + 1])
        start += k + 1
    return rows


def loads(text: str, header, columns, build):
    """build(*head, *body) for the table in text.

    header is the fixed first line, or the conversions of a first row,
    whose values are then head.  columns are the conversions of every
    further row: a tuple, with body one list per column, or one conversion,
    with body the single value of :func:`_rows`, for rows of any width.
    """
    lines = list(filter(str.strip, text.split("\n")))
    fixed = isinstance(header, str)
    if not lines or (fixed and lines[0].strip() != header):
        raise ParseError(f"expected header {header!r}" if fixed
                         else "empty table")
    try:
        head = [] if fixed else [col[0] for col in _columns(lines[:1], header)]
        if callable(columns):
            body = [_rows(lines[1:], columns)]
        else:
            body = _columns(lines[1:], columns)
        return build(*head, *body)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def keyed(text: str, conversions: dict, form: str) -> list:
    """The converted values of the keys of conversions, in order, from a
    ``key=value,...`` text; ParseError naming form, the expected text, if
    a part has no ``=``, a key is missing, repeated or not one of
    conversions, or a conversion fails."""
    try:
        parts = [part.split("=", 1) for part in text.strip().split(",")]
        fields = dict(parts)
        if len(fields) != len(parts) or fields.keys() != conversions.keys():
            raise ValueError("a key is missing, repeated or unknown")
        return [convert(fields[key]) for key, convert in conversions.items()]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad encoding {text!r} (want {form})") from exc
