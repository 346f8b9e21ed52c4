"""The host's speed, probed between timed steps, to rescale their times.

The VM this benchmark was built on shares its cores with other tenants:
a fixed task runs at one speed for ten to thirty seconds, then up to half
again as slow, and back.  A probe is a fixed task that uses nothing of the
program: one interpreter start (`python -c pass`), a pure-Python loop and
a numpy pass over 8 MiB.  Its speed index is the mean, over those three
parts, of the part's time over its reference time below, so 1.0 is the
reference speed and 1.4 is forty percent slower.  The client probes once
before its first timed step and once after every step; a step's time is
rescaled by the median index of the four probes nearest to it, two before
and two after.  Every process of a run is pinned to one CPU, so the probe
and the step it brackets run on the same core.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Quiet-period medians of each part on the 2-vCPU Xeon VM the benchmark
# was tuned on; they only fix the unit, any constants would do.
REFERENCE_S = {"start": 0.060, "loop": 0.016, "numpy": 0.012}
LOOP_N = 200_000
NUMPY_N = 1 << 20


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Speed:
    """The probe sequence of one run; step k lies between probes k and k+1."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.data = np.random.default_rng(0).random(NUMPY_N)
        self.indices: list[float] = []
        self.parts: list[dict[str, float]] = []

    def probe(self) -> int:
        """Probe once; return the number of the step that starts now."""
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "pass"], env=self.env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        t1 = time.perf_counter()
        acc = 0
        for i in range(LOOP_N):
            acc += i * i
        t2 = time.perf_counter()
        work = self.data.copy()
        work *= 1.0001
        work.sort()
        t3 = time.perf_counter()
        parts = {"start": t1 - t0, "loop": t2 - t1, "numpy": t3 - t2}
        self.parts.append(parts)
        self.indices.append(statistics.fmean(parts[k] / REFERENCE_S[k] for k in REFERENCE_S))
        return len(self.indices) - 1

    def index(self, step: int) -> float:
        """Speed index around a step, once the probe after it has been made."""
        return statistics.median(self.indices[max(0, step - 1) : step + 3])

    def summary(self) -> dict:
        ordered = sorted(self.indices)
        return {
            "probes": len(ordered),
            "index_median": statistics.median(ordered),
            "index_min": ordered[0],
            "index_max": ordered[-1],
            "part_medians_s": {
                k: statistics.median(p[k] for p in self.parts) for k in REFERENCE_S
            },
        }
