"""Machine-speed calibration: a fixed reference computation timed next to every cell.

On a shared host the speed can drift by more than half between minutes
(other tenants on the same cores), which swamps any median over a run.
Each measured time is therefore reported in *reference seconds*:
multiplied by ``REFERENCE_S / kernel time`` with the kernel timed just
before and just after the measurement in the same process.  On a host running at the
reference speed the two units agree.  The kernel touches no optkit code, so
a change to the library moves the reported times and not the scale.
"""

import json
import time

import numpy as np

# kernel time on an uncontended 2.0 GHz x86-64 core, numpy 2.4 + OpenBLAS 0.3, one thread
REFERENCE_S = 0.010

_RNG = np.random.default_rng(0)
_A = _RNG.random((128, 128)) + 128.0 * np.eye(128)
_B = np.ones(128)
_V = _RNG.random(64)


def kernel():
    """Interpreter loop, small numpy calls, dense solves and hexfloat text (~10 ms)."""
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    for _ in range(1000):
        s += float(np.dot(_V, _V))
    for _ in range(20):
        np.linalg.solve(_A, _B)
    json.dumps([float(i).hex() for i in range(5000)])
    return s


def kernel_seconds(repeats):
    """Median wall time of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]
