"""Machine-speed calibration: fixed tasks that never call the program.

On a machine whose vCPUs change speed by up to 1.5-2x, both in stretches of
10-30 s and from one 50-ms interval to the next (see README.md), a run's raw
timings land in whichever states it met, and run medians spread by 0.3-0.4.
So every workload runs a fixed calibration task between its operations, after
any operation that ends ``INTERVAL_S`` or more after the last calibration, and
reports its times at a reference speed: an operation's wall time is multiplied
by ``reference_s / c``, where ``c`` is the mean of the calibrations just before
and just after it and ``reference_s`` is the task's time at the reference
speed.  A calibration's time is the median of ``REPEATS`` runs of the task,
so one interrupted run does not move it.  Set-up time is scaled the same way
by ``run.py``, with a fresh interpreter's import of the libraries as the task.

The tasks depend only on the Python, numpy and scipy versions, never on the
program, so no change to the program moves them.  Each one does the kind of
work its workloads do: Fraction elimination for the exact reports, a dense
symmetric eigensolve for the spectral ones.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import numpy
import scipy.linalg

import oracles

INTERVAL_S = 0.1  # longest stretch of operations between two calibrations
REPEATS = 3  # task runs per calibration; their median is its time

_rng = random.Random(20221121)
_RATIONAL = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(20)] for _ in range(20)]
_gen = numpy.random.default_rng(20221121)
_SYMMETRIC = _gen.standard_normal((300, 300))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T


def fraction_elimination():
    """Rank of a fixed 20 x 20 rational matrix by Fraction Gauss elimination."""
    oracles.rank(_RATIONAL)


def dense_eigensolve():
    """All eigenpairs of a fixed 300 x 300 symmetric matrix."""
    scipy.linalg.eigh(_SYMMETRIC)


# task name -> (task, the seconds one run takes at the reference speed: about
# its time on the machine of README.md in the machine's fast state)
TASKS = {
    "fraction": (fraction_elimination, 0.012),
    "eigh": (dense_eigensolve, 0.011),
}


class Calibration:
    """Timings of one task, and the scale factor they give each operation."""

    def __init__(self, name):
        self.task, self.reference_s = TASKS[name]
        self.task()  # first call: thread pools and caches

    def time(self):
        """Median seconds of REPEATS runs of the task."""
        runs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.task()
            runs.append(time.perf_counter() - start)
        return statistics.median(runs)


def op_scales(calibrations, reference_s):
    """Each operation's scale factor, from (operations before, seconds) calibrations.

    The operations between two calibrations are scaled by their mean.
    """
    scales = []
    for (start, before), (stop, after) in zip(calibrations, calibrations[1:]):
        scales += [2 * reference_s / (before + after)] * (stop - start)
    return scales
