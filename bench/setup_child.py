"""kmforge set-up time, measured inside a fresh interpreter.

    python3 bench/setup_child.py sl2C [sl3C ...]

Prints two numbers: the seconds from just before ``import kmforge`` to the
catalogs of the named algebras being built, and the time of the yardstick's
reference computation, taken right after.  Interpreter start-up is left out,
and nothing of the benchmark harness is imported before the set-up is timed,
so the first figure is kmforge's own cost.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from kmforge.catalog import catalog_for  # noqa: E402

for algebra in sys.argv[1:]:
    catalog_for(algebra)
setup_s = time.perf_counter() - t0

from yardstick import reference_s  # noqa: E402

print(setup_s, reference_s())
