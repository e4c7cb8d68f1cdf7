"""Host speed sampling: time a call and scale it to a reference host speed.

On a shared host the CPU's speed drifts, by up to 2x, and it changes
within a fraction of a second: on the 2-vCPU VM this benchmark was
written on, a samattr HVP loop timed in 0.02 s slices spread 0.45
(IQR/median), with the speed of one slice still correlated 0.7 with the
next. A probe timed only before and after a job cannot follow that
during a 15 s job. So a ``Sampler`` measures the host's speed *during*
the call it times: an interval timer raises SIGALRM every ``interval``
seconds, and the handler, which runs in the main thread between two
bytecodes of the call, times one run of a fixed probe. The call's time is
the time between the samples, and each stretch of it is weighted by the
host speed measured at its two ends, so the result reads as seconds at
one reference host speed. It starts no thread or process.

Two probes share no code with samattr, so a faster program still reads
faster:

- ``numpy_probe``, for jobs: a small tanh MLP gradient on gathered rows,
  the operations the program spends its time in (row gathers, small
  dense matmuls, tanh, exp, row reductions on batch-sized arrays).
  Interleaved in ~15 ms slices with a loop of logistic HVPs and a loop of
  32-row MLP gradients, their times spread 0.15 and 0.19 over 0.4 s
  windows, and 0.02 and 0.05 divided by the probe's.
- ``python_probe``, for the set-up in a fresh interpreter, which must not
  import NumPy before the import it times: a plain Python loop. Ten
  set-ups spread 0.12 raw and 0.07 scaled by it; scaled instead by probes
  right before and after the child process, they spread 0.28.
"""

from __future__ import annotations

import signal
import time


def numpy_probe():
    """About 1 ms of small NumPy operations at the host's usual speed: the
    summed gradient of a (20, 32, 4) tanh MLP on 32 rows gathered from a
    400-row table, for 24 batches."""
    import numpy as np

    rng = np.random.default_rng(0)
    features = rng.standard_normal((400, 20))
    labels = rng.integers(0, 4, 400)
    w1 = rng.standard_normal((32, 20))
    w2 = rng.standard_normal((4, 32))
    batches = [rng.choice(400, 32, replace=False) for _ in range(8)]

    def probe() -> None:
        for _ in range(3):
            for rows in batches:
                x, y = features[rows], labels[rows]
                z = np.tanh(x @ w1.T)
                o = z @ w2.T
                p = np.exp(o - o.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                p[np.arange(len(y)), y] -= 1.0
                _ = p.T @ z
                d = (p @ w2) * (1.0 - z * z)
                _ = d.T @ x
                _ = d.sum(axis=0)

    return probe


def python_probe() -> None:
    """About 0.25 ms of plain Python at the host's usual speed."""
    acc, table = 0, {}
    for i in range(2000):
        table[i % 17] = acc
        acc += i * i % 7


class Sampler:
    """Times calls while sampling the host's speed with ``probe``.

    ``reference_s`` is the probe's usual time inside a timed call (where
    the call has cooled the probe's caches) on the host this was written
    on (Intel Xeon VM, 2 vCPUs at 2.0 GHz, OpenBLAS with 2 threads), so
    scaled times read close to raw ones there.
    """

    def __init__(self, probe, reference_s: float, interval: float):
        self._probe = probe
        self._reference_s = reference_s
        self._interval = interval
        self._samples: list[tuple[float, float]] = []  # (start, end) of each sample

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self._probe()
        self._samples.append((start, time.perf_counter()))

    def timed(self, fn):
        """Call fn() while sampling the host's speed. Returns fn's result,
        its wall time without the samples, and that time scaled to the
        reference host speed."""
        self._samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()
        samples = self._samples
        speeds = [self._reference_s / (end - start) for start, end in samples]
        wall = scaled = 0.0
        for i in range(len(samples) - 1):
            gap = samples[i + 1][0] - samples[i][1]
            wall += gap
            scaled += gap * (speeds[i] + speeds[i + 1]) / 2.0
        return result, wall, scaled


def job_sampler() -> Sampler:
    """The sampler for CLI jobs: a 1 ms sample every 20 ms (~5% of a job)."""
    return Sampler(numpy_probe(), reference_s=0.0014, interval=0.02)


def setup_sampler() -> Sampler:
    """The sampler for set-up: a 0.25 ms sample every 10 ms (~3%)."""
    return Sampler(python_probe, reference_s=0.00035, interval=0.01)
