"""Host-speed correction from a fixed reference loop sampled in the same run.

On the shared 2-core hosts this benchmark runs on, the simulation engines
slow down and speed up by up to ~75% over stretches of 5-30 s, on both
cores at once (see README.md, "Why times are host-corrected").  A 20 s run
cannot average that out, so raw wall times of the same commit disagree
between runs far more than any useful regression bound.

The correction: between the timed steps of a repeat, the benchmark times a
fixed reference sample made of the two kinds of work the engines spend
their time on, interpreter-bound Python (integer arithmetic, dict, tuple
and str churn) and cache-sized numpy kernels (a 30 x 1500 int64 hash, fold
and row minimum, the shape of a min-wise sampler feed).  A repeat's times
are multiplied by ``REFERENCE_S / median(reference samples)``, which turns
them into seconds at the reference sample's nominal speed.  The reference
is the benchmark's own code, so a change to the program moves the corrected
times by exactly the factor it moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

#: The reference loop's nominal duration; corrected times are seconds at
#: the speed where one reference sample takes this long.
REFERENCE_S = 0.004
#: One reference sample per this much timed work (at least one, at most 8).
SAMPLE_EVERY_S = 0.15


_P = (1 << 31) - 1
_COEFF_A = (np.arange(1, 31, dtype=np.int64) * 7919)[:, None]
_COEFF_B = np.arange(30, dtype=np.int64)[:, None]
_IDS = (np.arange(1500, dtype=np.int64) * 104729 % _P)[None, :]


def reference_sample() -> float:
    """Time one pass of the fixed reference work."""
    start = time.perf_counter()
    total = 0
    for value in range(25000):
        total += value * value
    table = {}
    for value in range(6000):
        table[value] = (total, str(value))
    for _ in range(6):
        hashed = _COEFF_A * _IDS + _COEFF_B
        folded = (hashed >> 31) + (hashed & _P)
        ((folded << 32) | _IDS).min(axis=1)
    return time.perf_counter() - start


def sample_after(duration: float, samples: List[float]) -> None:
    """Append reference samples in proportion to a just-timed step."""
    count = min(8, max(1, math.ceil(duration / SAMPLE_EVERY_S)))
    samples.extend(reference_sample() for _ in range(count))


def correction(samples: List[float]) -> float:
    """The factor that turns raw seconds into reference-speed seconds."""
    return REFERENCE_S / statistics.median(samples)
