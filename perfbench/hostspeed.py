"""Host-speed calibration: scales measured times to a reference host speed.

The host that runs the benchmark shares its CPUs with other machines, and
its speed moves by up to 40 % within seconds and by 15-25 % between whole
runs of identical work.  The benchmark therefore times one fixed unit of
work that does not touch the program right before and right after every
timed piece of the program's work, and reports that piece's time as

    measured seconds * REFERENCE_UNIT_S / (mean of the two unit times)

that is, in seconds on a host that runs the unit in REFERENCE_UNIT_S.  The
unit mixes the three kinds of work the workloads spend their time on: an
interpreter loop, NumPy passes over a 256 KiB array and shifts of a big int.
"""

from __future__ import annotations

import time

import numpy as np

# The unit takes about this long on the 2-CPU x86-64 container the reference
# numbers in README.md come from, so scaled times stay close to wall times.
REFERENCE_UNIT_S = 1e-3

_ARRAY = np.arange(1 << 15, dtype=np.int64)
_BIG = (1 << 20000) - 1


def unit_seconds():
    """Wall time of one calibration unit."""
    t0 = time.perf_counter()
    x = 0
    for i in range(3000):
        x += (i * 7) % 13
    for _ in range(4):
        x += int(((_ARRAY >> 3) & 5).sum())
    b = _BIG
    for i in range(200):
        b ^= b >> (i + 1)
    return time.perf_counter() - t0


def scale(seconds, unit_before, unit_after):
    """`seconds`, measured between two calibration units, at reference speed."""
    return seconds * REFERENCE_UNIT_S * 2 / (unit_before + unit_after)
