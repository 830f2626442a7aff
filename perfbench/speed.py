"""Machine-speed gauge that normalises timings taken on a shared host.

On a host shared with other tenants, the same work runs in fast and slow
phases that last from seconds to minutes and differ by up to half again,
which swamps the run-to-run comparison the benchmark exists for. So every
op is bracketed by a fixed probe and its time scaled by ``NOMINAL_PROBE_S /
mean(probe before, probe after)``: a reported time is the op's time in
seconds at the host speed where the probe takes ``NOMINAL_PROBE_S``. Raw
times are kept next to the scaled ones.

The probe does the program's own mix of work (complex exponentials,
bin-wise products, FFTs, float formatting) on arrays small enough to stay in
L2, after one untimed pass that brings them back into cache. It thus gauges
the speed of the core the benchmark runs on, not the cache footprint of the
op before it: a probe timed straight after a large op runs up to a third
slower, which would let a change to the program move the scale. On the
reference host, over ten seeds, scaling cut the spread of ``op_p50_s``
(quartile distance over median) from 0.27 to 0.03 on ``sweep-grid`` and
``propagate-dump``. The memory-bound ``scenario-deep`` follows the probe
only about half as much (elasticity 0.44 against 0.75 and 0.96), and its
spread stays near 0.10 scaled or raw. The probe uses only numpy and the
standard library with fixed settings, in buffers allocated once, so no
change to the program under test can change what it measures and it adds
no memory peak of its own.
"""

from time import perf_counter

import numpy as np

#: Probe time on a 2-vCPU KVM guest of an Intel Xeon (family 6, model 143)
#: with numpy 2.4.
NOMINAL_PROBE_S = 0.02
#: Probe array length: three complex arrays of it take 768 KiB.
PROBE_N = 16384
#: Timed passes over the probe arrays.
PROBE_PASSES = 16


class Gauge:
    """Fixed probe of host speed."""

    def __init__(self):
        self.phase = -40j * np.linspace(0.0, 1.0, PROBE_N) ** 2
        self.h = np.empty(PROBE_N, dtype=complex)
        self.acc = np.empty(PROBE_N, dtype=complex)

    def _passes(self, count: int) -> None:
        h, acc = self.h, self.acc
        for _ in range(count):
            np.exp(self.phase, out=h)
            np.multiply(h, h, out=acc)
            acc += 1.0
            np.fft.fft(acc, out=acc)
            acc *= h
            np.fft.ifft(acc, out=acc)

    def probe(self) -> float:
        """Wall time of one probe with warm caches, seconds."""
        self._passes(1)
        start = perf_counter()
        self._passes(PROBE_PASSES)
        ",".join(f"{v:.9g}" for v in self.h.real[:1000])
        return perf_counter() - start

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor mapping an interval timed between two probes to nominal speed."""
        return NOMINAL_PROBE_S / (0.5 * (before + after))
