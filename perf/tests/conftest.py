"""Make the benchmark modules and the simulator importable in tests."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
for path in (PERF, PERF.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
