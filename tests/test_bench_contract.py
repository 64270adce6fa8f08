"""What the benchmark's tracer (``bench/spans.py``) needs of the package.

The tracer wraps each function that its ``LAYERS`` names, looked up by
name, and rebuilds each tuple entry of a module-level dict with the wrapped
functions in it.  A deleted or renamed function, or a table entry that is
not a plain tuple, breaks every traced benchmark run; these tests make it
fail here first.
"""

import importlib.util
from pathlib import Path

import pytest

from rearrange_lab import cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_table_entries_are_plain_tuples():
    assert cli.ENGINES
    for engine, entry in cli.ENGINES.items():
        assert type(entry) is tuple, engine


def test_tracer_wraps_and_restores_the_engine_table(spans):
    # entering the tracer looks up every LAYERS name, so a deleted or
    # renamed layer function fails here too
    table = dict(cli.ENGINES)
    with spans.Tracer():
        for entry in cli.ENGINES.values():
            read_csv, write_csv, _, polarize, rearrange, _ = entry
            for fn in (read_csv, write_csv, polarize, rearrange):
                assert hasattr(fn, "__wrapped__"), fn
    assert cli.ENGINES == table
