"""perfbench — the repository's one benchmark (see README.md here).

Run as ``python3 -m perfbench`` from the repository root.  The package
puts ``<repo>/src`` on ``sys.path`` itself, so neither the driver nor the
spawned worker processes (which import :mod:`perfbench.fns` by name)
need ``PYTHONPATH``.
"""

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
#: Everything a run leaves behind (results, traces, probe WALs) lands here.
OUT = os.path.join(REPO, "perfbench", "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
