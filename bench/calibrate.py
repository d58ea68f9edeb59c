"""Machine-speed calibration for the gated times.

On a shared host the speed of one vCPU can drift by 30% over minutes with
no change to the program. A fixed kernel timed in the same process,
interleaved with the workload's passes, slows and speeds up with it. The
runner divides the median block time of a run into ``REF_BLOCK_S`` and
scales the run's set-up and pass times by that factor, which reports them
in seconds at the reference speed.

The kernel does not call spikekit, so no change to spikekit moves it. It
mixes the kinds of work spikekit does: small element-wise array
operations, a BLAS product, strided reductions and interpreted loops. Its
inputs are fixed and do not depend on the workload seed.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

# About the median user CPU seconds of one block on the machine the
# benchmark was written on (2-vCPU Xeon VM, numpy 2.4, one OpenBLAS thread).
REF_BLOCK_S = 0.05


def _cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class Calibration:
    """Times calibration blocks and keeps every sample of the run."""

    def __init__(self):
        rng = np.random.default_rng(20250512)
        self.frames = rng.random((20, 128, 128))
        self.spikes = (rng.random((20, 128, 128)) < 0.1).astype(np.uint8)
        self.a = rng.standard_normal((64, 576))
        self.b = rng.standard_normal((576, 1024))
        self.samples: list[float] = []

    def block(self) -> float:
        """Run one block and return its user CPU seconds."""
        start = _cpu()
        v = np.zeros(self.frames.shape[1:])
        for _ in range(3):
            for frame in self.frames:
                v += np.clip(frame + 0.01, 0.0, 1.0)
                fired = v >= 1.0
                v[fired] -= 1.0
        for _ in range(6):
            self.a @ self.b
            self.spikes[::-1].argmax(axis=0)
        total = 0
        for i in range(60000):
            total += i * i
        seconds = _cpu() - start
        self.samples.append(seconds)
        return seconds

    def measure(self, seconds: float) -> None:
        """Run blocks until they have taken ``seconds`` (at least one)."""
        spent = self.block()
        while spent < seconds:
            spent += self.block()

    def factor(self) -> float:
        """Reference speed over this run's speed: multiply a time by it to
        state the time at the reference speed."""
        return REF_BLOCK_S / statistics.median(self.samples)
