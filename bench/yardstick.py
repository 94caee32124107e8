"""The host-speed yardstick shared by the pass and set-up timings.

The host this benchmark runs on changes speed by tens of percent for a
minute at a time, under other tenants' load.  Dividing a kmforge timing by
the time of a fixed computation taken next to it cancels most of that
drift; kmforge changes move the timing and leave the yardstick alone.
Imports only the standard library, so a set-up child can time it after
kmforge is ready without adding to the set-up it measures.
"""

import time
from fractions import Fraction

# About the reference's time on a quiet 2-vCPU host of the kind the baseline
# was recorded on.  Set-up time is reported in seconds at this host speed.
NOMINAL_REFERENCE_S = 0.1

POOL = 2048  # elements: a working set of a few MB, like a kmforge pass's


def reference_s():
    """Time a fixed computation that uses no kmforge code (about 0.1 s).

    It multiplies small-``Fraction`` polynomials held in dicts, reduced mod
    x^4 - 1, drawn from a pool with a stride: the object churn and the
    scattered memory access of kmforge's cyclotomic arithmetic, so that the
    host's load slows both alike.
    """
    t0 = time.perf_counter()
    pool = [{k: Fraction((i * k) % 7 - 3, 1 + (i + k) % 5) for k in range(4)}
            for i in range(POOL)]
    out = [None] * POOL
    for rep in range(1500):
        a, b = pool[(rep * 769) % POOL], pool[(rep * 1031 + 3) % POOL]
        prod = {}
        for i, x in a.items():
            for j, y in b.items():
                k = (i + j) % 4
                prod[k] = prod.get(k, 0) + x * y
        out[(rep * 389) % POOL] = prod
    return time.perf_counter() - t0
