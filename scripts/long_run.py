"""Time one long 1-D convergence run and print its row of the long-run
table in ROADMAP.md (item 8).

The run is converge_restricted(u, rho=0.1, n_max=N) on a stalled draw,
u = random_step_function(random.Random(11), span=1.0), whose state never
reaches its rearrangement.  The row gives N, the run's wall time, the
wall time of ConvergenceSeries.dumps on its series, the process's peak
resident set size before dumps and after it, and the final L^1 error:

    python3 scripts/long_run.py N

N is at most 10^6, the CLI's limit; the peak RSS counts the whole
process, interpreter and imports included.
"""

from __future__ import annotations

import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rearrange_lab import analysis, generators  # noqa: E402


def main(argv: list[str]) -> None:
    if len(argv) != 1:
        sys.exit(__doc__)
    n_max = int(argv[0])
    u = generators.random_step_function(random.Random(11), span=1.0)
    start = time.perf_counter()
    series = analysis.converge_restricted(u, rho=0.1, n_max=n_max)
    run = time.perf_counter() - start
    run_mb = _peak_mb()
    start = time.perf_counter()
    series.dumps()
    dumps = time.perf_counter() - start
    print(f"| {n_max} | {run:.2f} s | {dumps:.2f} s | {run_mb:.0f} MB "
          f"| {_peak_mb():.0f} MB | {series.final.lp_error:.2g} |")


def _peak_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    main(sys.argv[1:])
