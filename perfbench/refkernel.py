"""Reference kernel that measures how fast the machine is right now.

On a shared virtual machine the speed of a core drifts by up to a factor of
two within seconds: other tenants load the same hardware, and no time is
stolen from the process, so CPU time drifts as much as wall time.  The
kernel is fixed work that does not use volcd, in two parts like a solver
iteration: a loop of small numpy row updates with a scalar read back, which
is interpreter-bound, and a loop of gathers, scatters and ``exp``/``log1p``
on a few hundred entries, which is bound by numpy's vector code.  A time
multiplied by ``REFERENCE_KERNEL_S`` over the kernel time measured around it
reads as seconds on the machine the reference was taken on (Intel Xeon,
2 vCPUs, when quiet) and follows the machine's speed far less than the raw
time; a change to volcd moves it as much as the raw time.
"""

import time

import numpy as np

REFERENCE_KERNEL_S = 0.0026
_ROWS = np.linspace(-1.0, 1.0, 6400).reshape(64, 100)
_Z = np.linspace(-2.0, 2.0, 1000)
_IDX = np.arange(0, 1000, 4)


def _once() -> float:
    g = np.zeros(100)
    z = _Z.copy()
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(1000):
        g -= _ROWS[i & 63] * 1e-3
        acc += float(g[i % 100])
    for i in range(200):
        zt = z[_IDX]
        z[_IDX] = zt - 1e-3 * np.log1p(np.exp(-np.abs(zt)))
        acc += float(zt[i % 250])
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Median of five timings of the kernel, about 15 ms in all."""
    return sorted(_once() for _ in range(5))[2]
