"""Reference kernel: a fixed piece of work timed next to every op.

This host's CPU speed drifts by up to a factor of two over spells from
under a second to minutes (NOTES.md). The same code then reads 20-35%
slower in one run than in the next, which is wider than any useful
regression bound. The kernel below runs before and after every timed op;
an op's cost in ``ref`` is its latency over the mean latency of the two
kernel runs that bracket it. A slow spell slows both alike, so the ratio
stays put, while a change to lcl moves the op and not the kernel.

The kernel does in small what the workloads do, so that it slows as they
do: RK4 steps of a 4x4 frame with small numpy arrays (integrator),
17-digit CSV rows (write_trace_csv) and, in the mix for suite50, a full
SVD of a 1001 x 4 matrix (the oracle's). For cold_classify, whose op is
mostly a fresh interpreter importing numpy and scipy, the kernel is a
fresh interpreter that imports numpy. It imports nothing from lcl and
must not change: every ``ref`` figure is in units of it.
"""

from __future__ import annotations

import io
import subprocess
import sys
import time

import numpy as np

# Steps of RK4 and CSV rows, and full SVDs, per kernel run. A workload
# uses the mix nearest its own: the interpreter slows more than LAPACK
# in a slow spell, so a kernel heavier in SVD than the op under-reads
# the spell.
MIXES = {"python": (240, 0), "mixed": (120, 1)}
PROCESS = [sys.executable, "-c", "import numpy"]
TIMEOUT_S = 120.0
_M = np.random.default_rng(0).standard_normal((1001, 4))
_EYE = np.eye(4)


def kernel(mix: str) -> int:
    """Run the fixed work once; returns the CSV length so it is used."""
    steps, svds = MIXES[mix]
    f, h = _EYE.copy(), 1e-3
    rows = np.empty((steps, 22))
    for i in range(steps):
        k = 0.5 + 0.1 * np.sin(i * h)
        a = np.array([[0.0, k, 0.0, 0.0], [-k, 0.0, 0.3, 0.0],
                      [0.0, -0.3, 0.0, 0.2], [0.0, 0.0, -0.2, 0.0]])
        k1 = a @ f
        k2 = a @ (f + 0.5 * h * k1)
        k3 = a @ (f + 0.5 * h * k2)
        k4 = a @ (f + h * k3)
        f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows[i, 0] = i * h
        rows[i, 1:5] = f[0]
        rows[i, 5:21] = f.reshape(16)
        rows[i, 21] = float(np.max(np.abs(f @ f.T - _EYE)))
    buf = io.StringIO()
    for row in rows.tolist():
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    for _ in range(svds):
        np.linalg.svd(_M, full_matrices=True)
    return buf.tell()


def timed(mix: str) -> float:
    """Wall time of one kernel run; mix "process" runs PROCESS."""
    start = time.perf_counter()
    if mix == "process":
        subprocess.run(PROCESS, check=True, timeout=TIMEOUT_S)
    else:
        kernel(mix)
    return time.perf_counter() - start
