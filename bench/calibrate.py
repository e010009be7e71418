"""The host's speed, measured on a fixed reference kernel.

The benchmark runs on shared hosts whose speed swings between a fast and a
slow state, about 1.5 times apart, within seconds and over minutes, with
the process on the CPU the whole time (no steal, no run-queue wait).  Raw
seconds then spread from run to run far more than any change worth
measuring.  ``reference`` is a fixed piece of work of the kind the solver
does (a small sparse LU with solves against it, short numpy vectors, an
interpreted Python loop) that owes nothing to ``sppa``, so no change to the
program under test moves it.  Timed between the pieces of a solve, it
gives the host's speed around each piece; a piece's time over the
reference's is what the end-to-end metrics are built from.

This module imports neither ``sppa`` nor, until the kernel first runs,
``scipy``: a fresh process times those imports as set-up.
"""

import functools
import time

import numpy as np

# about the reference kernel's time on the machine the benchmark was written
# on (2 vCPU KVM guest, Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17); a
# scaled timing is in seconds of that machine
REFERENCE_S = 0.003


@functools.cache
def _kernel():
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = 200
    a = (sp.random(n, n, density=0.015, random_state=1, format="csc")
         + sp.identity(n, format="csc") * 4.0).tocsc()
    return splu, a, np.random.default_rng(1).standard_normal((12, n))


def reference() -> float:
    """Seconds taken by one run of the reference kernel (about 3 ms)."""
    splu, a, vectors = _kernel()
    t0 = time.perf_counter()
    lu = splu(a)
    acc = 0.0
    for v in vectors:
        x = lu.solve(v)
        y = lu.solve(x, trans="T")
        ratio = x / (np.abs(y) + 1.0)
        acc += float(ratio[int(np.argmin(ratio))]) + float(y @ x)
    table: dict[int, float] = {}
    for i in range(3000):
        k = i % 89
        table[k] = table.get(k, 0.0) + (i * 0.5) % 7.0
    return time.perf_counter() - t0
