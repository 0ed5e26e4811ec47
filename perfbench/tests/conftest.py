import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# The library, the benchmark modules and the test suite's brute-force oracles.
for path in (ROOT / "src", ROOT / "perfbench", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
