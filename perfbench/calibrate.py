"""Host-speed calibration: a fixed CPU kernel timed between the ops.

On a vCPU of a shared host, speed can swing by a third within seconds
and stay there for minutes; process CPU time swings with it, so it is no
cure.  Every op is therefore bracketed by two calibration bursts, and
its latency is scaled by ``REF_BURST_S`` over the mean of the two.  The
kernel mixes the kinds of work radwig does -- interpreter loops, dict
and string churn, compiling source (as an import does), small- and
large-array numpy, fresh pages, and a GEMM on one BLAS thread -- so that
a slow period stretches it about as much as it stretches an op.  It
touches nothing of radwig: a change to the program cannot move it.
"""

import signal
import statistics
import time

import numpy as np

# one run over the kernels on a quiet 2.1 GHz Xeon (Sapphire Rapids class)
# vCPU; a fixed constant, so scaled latencies are seconds at that speed
REF_BURST_S = 0.006
BURST_REPS = 8
SAMPLE_EVERY_S = 0.5          # in-op samples of a long in-process op
SAMPLE_REPS = 3

_GEMM = np.random.default_rng(0).random((224, 224))
_LONG = np.linspace(0.1, 10.0, 60000)
_SHORT = _LONG[:64].copy()
_WORDS = [f"w{i}" for i in range(4000)]
_SOURCE = "\n".join(f"def f{i}(x, y=1):\n    return [x * k + y for k in range({i})]"
                     for i in range(40))


def _interpreter():
    s = 0
    for i in range(15000):
        s += i * i % 7
    return s


def _objects():
    counts = {}
    for w in _WORDS:
        counts[w] = counts.get(w, 0) + len(w)
    return sorted(counts.items())[:3]


def _compile():
    return compile(_SOURCE, "<calibrate>", "exec")


def _small_arrays():
    v = _SHORT
    for _ in range(250):
        v = np.sqrt(v * v + 1.0) - 1.0 + v
    return v


def _large_arrays():
    return float(np.log(np.exp(-_LONG) + 1.0).sum() + np.cos(_LONG).sum())


def _fresh_pages():
    return float(np.ones(1 << 20).sum())     # 8 MiB: mapped, faulted, unmapped


def _gemm():
    return _GEMM @ _GEMM @ _GEMM


KERNELS = (_interpreter, _objects, _compile, _small_arrays, _large_arrays,
           _fresh_pages, _gemm)


def burst(reps=BURST_REPS) -> float:
    """Median seconds of one pass over the kernels, out of ``reps``; the
    median outvotes the cold passes just after an op has run."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for kernel in KERNELS:
            kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class InOpSamples:
    """Short bursts taken from a timer signal while an in-process op runs,
    every SAMPLE_EVERY_S, so that a long op is scaled by the speed over its
    whole length and not only at its two ends.  ``spent`` is the time the
    samples took, which the caller takes off the op's latency.  The signal
    is handled between bytecodes, so a sample never splits a C call."""

    def __init__(self):
        self.bursts = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.bursts.append(burst(SAMPLE_REPS))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
