"""Fixed reference kernel that measures how fast the host runs at the moment.

The worker runs it before every timed op.  It uses no qcrbench code, so a
change to the program leaves its cost alone, while a slower or faster phase
of the host moves it together with the ops.  Its mix follows the program's
work: an interpreter loop, many numpy calls on 96-point arrays (the fitter's
batch size) and a few passes over 65 536-point arrays (a `noise_map` call).
"""

import time

import numpy as np

_SMALL = np.random.default_rng(0).random(96)
_LARGE = np.random.default_rng(1).random(65536)
# the large passes write into this buffer: a fresh 512 KiB array would come
# from mmap or the heap depending on what the process allocated before
_OUT = np.empty_like(_LARGE)


def kernel():
    total = 0
    for i in range(20000):
        total += i * i
    x = _SMALL
    for _ in range(200):
        x = np.sqrt(x * 1.0001 + _SMALL)
    for _ in range(16):
        np.exp(_LARGE, out=_OUT)
        np.multiply(_OUT, _LARGE, out=_OUT)
        _OUT.sum()
    return total


def cpu_seconds():
    """CPU time of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start
