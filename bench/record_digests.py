"""Record the output digests the benchmark compares against.

    python3 bench/record_digests.py      # writes bench/digests.json

Runs every workload at full size on the default seed, checks each op's
outputs against the invariants, and stores one SHA-256 prefix per input.
Record only on a commit whose outputs are the reference: later commits must
reproduce these bytes exactly.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    digests = {"seed": workloads.DEFAULT_SEED}
    for name, cls in workloads.WORKLOADS.items():
        work = HERE.parent / ".bench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            wl = cls(workloads.DEFAULT_SEED, "full", Path(tmp))
            wl.setup()
            count = wl.recorded_ops
            for i in range(count):
                reason = wl.check(i, wl.op(i))
                if reason:
                    sys.exit(f"{name}: {reason}")
            digests[name] = [wl.seen[wl.key(i)] for i in range(count)]
        print(f"{name}: {count} digests", file=sys.stderr)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
