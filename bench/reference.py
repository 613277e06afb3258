"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host is a shared VM whose speed drifts by 15 to 30 per cent
over minutes, with no time stolen that the guest could see: in a single
process the CPU time tracks the wall time.  The drift is slower than a run,
so a median over the runs of one invocation does not remove it.  So
`run.py` times this kernel on the same core just before and just after each
run, and divides the run's wall time by the mean of the two.

The kernel does the kinds of work `gcg run` spends its time on, with numpy
and scipy alone and never with `gcg`: sparse LU solves of the 5-point
Laplacian at the workloads' grid sizes (32 x 32 and 64 x 64), elementwise
numpy operations and reductions on vectors of those lengths, and the
Python-level calls between them.  A change to `gcg` cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

GRID_SIZES = (32, 64)
# Rounds per timing; about 1 s on the reference machine (see README.md).
ROUNDS = 1200
STEPS = (1.0, 0.5, 0.25, 0.125)


def _laplacian(n: int) -> sp.csc_matrix:
    t = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    i = sp.identity(n)
    return (sp.kron(t, i) + sp.kron(i, t)).tocsc()


class Reference:
    """The kernel's operands, built once; `seconds()` times one pass."""

    def __init__(self):
        self.systems = [
            (splu(_laplacian(n)), np.linspace(-1.0, 1.0, n * n)) for n in GRID_SIZES
        ]
        self._work(ROUNDS // 20)  # warm-up, untimed

    def _work(self, rounds: int) -> float:
        acc = 0.0
        for _ in range(rounds):
            for lu, b in self.systems:
                x = lu.solve(b)
                for s in STEPS:
                    y = np.clip(b + s * x, -0.5, 0.5)
                    acc += float(y @ y) + 0.5 * float(np.abs(y).sum())
        return acc

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = self._work(ROUNDS)
        elapsed = time.perf_counter() - start
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite sum")
        return elapsed
