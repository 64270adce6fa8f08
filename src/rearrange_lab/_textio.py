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
  ``ParseError``.

Keyed encodings (the CLI's ``--by``): ``key=value`` parts separated by
commas, each key converted by its own conversion.
"""

from itertools import repeat, zip_longest

from .errors import ParseError


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _texts(convert, values):
    """The fields of values in a column that convert reads back."""
    if convert is int:
        return map(str, values)
    return map(format, values, repeat(".17g"))


def dumps(header, columns, body) -> str:
    """The table text.

    header is the fixed first line, or the values of a first row.  columns
    are the conversions that read the table back: a tuple, with body one
    list per column (a column shorter than the first leaves its last
    fields empty), or one conversion, with body a list of rows of any width.
    """
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
    """build(*head, *body) for the table in text.

    header is the fixed first line, or the conversions of a first row,
    whose values are then head.  columns are the conversions of every
    further row: a tuple, with body one list per column, or one conversion,
    with body the single list of all rows, of any width.
    """
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


def keyed(text: str, conversions: dict, form: str) -> list:
    """The converted values of the keys of conversions, in order, from a
    ``key=value,...`` text; ParseError naming form, the expected text, if
    a part has no ``=``, a key is missing or a conversion fails."""
    try:
        fields = dict(part.split("=", 1) for part in text.strip().split(","))
        return [convert(fields[key]) for key, convert in conversions.items()]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad encoding {text!r} (want {form})") from exc
