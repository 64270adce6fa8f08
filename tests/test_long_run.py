"""scripts/long_run.py prints one row of the long-run table in ROADMAP.md
(item 8)."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_one_row_of_the_table(capsys):
    spec = importlib.util.spec_from_file_location(
        "long_run", ROOT / "scripts" / "long_run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["200"])
    row = capsys.readouterr().out
    # n_max, run, dumps, peak RSS before dumps and after, final L^1 error
    match = re.fullmatch(r"\| 200 \| \d+\.\d\d s \| \d+\.\d\d s "
                         r"\| (\d+) MB \| (\d+) MB \| (\S+) \|\n", row)
    assert match
    assert 0 < int(match[1]) <= int(match[2])
    assert float(match[3]) > 0   # the draw never reaches u*
