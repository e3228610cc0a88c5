"""Host-speed reference: fixed work timed in among the ops of a run.

The machines this benchmark runs on are shared; their speed drifts by 20-30%
over tens of seconds, and every timing of a run moves with it. Each workload
process therefore times fixed work that does not involve anisospec, in among
its ops, and scales its timings by nominal / (mean seconds per sample). The
scaled figures are seconds on a host where one sample takes its nominal
time, about its time on an idle 2-core Xeon VM; the raw ones stay in the
record.

Two kinds of reference work match the two kinds of op:
- `kernel`: scipy's `cg` on a 400-node Laplacian and a pure-Python loop, the
  work compute ops spend their time in. In a process that runs ops, a timer
  signal runs it every PERIOD_S seconds of wall time, between the bytecodes
  of the op, so the samples follow the host's speed through long ops.
- `cold_import`: a fresh interpreter that imports numpy and the scipy modules
  anisospec loads, the work a cold start spends its time in.
"""

import signal
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

KERNEL_S = 0.05  # nominal seconds of one kernel run
COLD_IMPORT_S = 0.5  # nominal seconds of one cold import
PERIOD_S = 0.5  # wall seconds between kernel runs while ops run
_N = 20
_T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_LAPLACIAN = (sp.kron(sp.eye(_N), _T) + sp.kron(_T, sp.eye(_N))).tocsr()
_RHS = np.ones(_N * _N)
_COLD = [sys.executable, "-c", "import numpy, scipy.sparse.linalg, scipy.spatial, scipy.special"]


def kernel():
    for _ in range(50):
        cg(_LAPLACIAN, _RHS, rtol=1e-10, maxiter=2000)
    s = 0
    for i in range(50_000):
        s += i % 7


def cold_import():
    subprocess.run(_COLD, check=True, timeout=60)


class Reference:
    """Timed samples of one kind of reference work."""

    def __init__(self, work=kernel, nominal: float = KERNEL_S, warm: bool = True):
        self.work, self.nominal = work, nominal
        if warm:
            work()  # the first sample is not timed: caches and lazy set-up
        self.seconds = 0.0
        self.count = 0

    def run(self, n: int = 1):
        for _ in range(n):
            t = time.perf_counter()
            self.work()
            self.seconds += time.perf_counter() - t
            self.count += 1

    def start(self):
        """Run a sample every PERIOD_S seconds of wall time, from a timer
        signal, until stop(). Time taken by samples must be subtracted from
        the op timings (see `seconds`)."""
        signal.signal(signal.SIGALRM, lambda *_: self.run())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def scale(self) -> float:
        """Factor from seconds measured beside these samples to seconds at
        the reference speed."""
        return scale(self.nominal, self.seconds, self.count)


def scale(nominal: float, seconds: float, count: int) -> float:
    """Factor from seconds measured beside `count` samples that took
    `seconds` to seconds at the reference speed."""
    return nominal * count / seconds
