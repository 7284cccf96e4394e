"""Make ``pytest bench`` find the program and the benchmark package
without ``PYTHONPATH``."""

import sys

from bench.spec import ROOT, SRC

for path in (str(SRC), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
