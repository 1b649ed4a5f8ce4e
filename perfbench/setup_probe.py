"""Time set-up in a fresh interpreter: import specsense and its CLI, build a workload's inputs.

Prints the elapsed seconds on its last line.  Started by ``run.py``, from
the repository root: ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import specsense  # noqa: E402,F401
import specsense.cli  # noqa: E402,F401

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - start)
