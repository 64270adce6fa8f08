"""The golden corpus of scripts/golden.py against tests/golden.json: the
same series CSVs, function CSVs and exit codes as when it was recorded.
A change that alters outputs on purpose re-records the file with
``python3 scripts/golden.py`` and says so."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _golden():
    spec = importlib.util.spec_from_file_location(
        "golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_recorded_corpus():
    golden = _golden()
    recorded = json.loads(golden.GOLDEN.read_text())
    assert golden.first_difference(recorded, golden.compute()) is None
