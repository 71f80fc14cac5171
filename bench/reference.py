"""A fixed reference loop that measures the host's speed, not the program's.

The machines this benchmark runs on are shared: the same pass of the same
code takes anywhere from 1x to 2x its fastest time, in stretches of seconds
to minutes, and CPU time tracks wall time, so the slowdown is in the
hardware, not in waiting.  The benchmark therefore times this loop right
before and right after every pass and reports the pass's wall time in units
of the loop's (``pass_ref``).  The loop imports nothing from ``gaugerec`` and
uses the same kinds of work the package does (JSON text, a sparse LU
factorization and solve, pointwise complex array algebra), so a change to
the package moves ``pass_ref`` and a change in host speed mostly does not.

The loop's inputs are fixed and it must not change: a different loop gives
different units, and the trajectory of ``pass_ref`` would break.
"""

from __future__ import annotations

import json
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla


class ReferenceLoop:
    """About 60 ms of fixed work on a 2 GHz Xeon core."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.floats = rng.standard_normal(30000).tolist()
        self.array = rng.standard_normal(400000) + 1j
        n = 60
        eye = sp.identity(n)
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (n, n))
        self.matrix = (sp.kron(eye, lap) + sp.kron(lap, eye)).tocsc()
        self.rhs = np.ones(n * n)

    def run(self) -> float:
        """Wall seconds of one turn of the loop."""
        t0 = time.perf_counter()
        json.loads(json.dumps(self.floats))
        sla.splu(self.matrix).solve(self.rhs)
        (self.array * self.array.conj() + np.abs(self.array)).sum()
        return time.perf_counter() - t0
