"""Make the benchmark's modules and ``src/`` importable for its tests."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
for path in (_BENCH, os.path.join(os.path.dirname(_BENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
