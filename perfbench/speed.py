"""Machine speed, measured with a fixed numpy kernel that the program never touches.

On a shared machine the same code runs up to 30% faster or slower, in
phases that last from seconds to many minutes, so two sets of runs can
differ by that much. The benchmark times this kernel in bursts around its
set-ups and rounds and, while an operation runs, in probes of a few calls
every PROBE_EVERY_S. A time measured over [a, b] is scaled to REF_MS, the
kernel's time at the reference speed, by the kernel calls measured closest
to it: scaled = (measured - kernel time inside) * REF_MS / median kernel
time. A change to minisvs does not change the kernel, so it shows in full.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# close to the kernel's median time on the machine of the README figures
# (2.6-2.8 ms per run), so scaled times read close to raw ones there
REF_MS = 2.5
CALLS_PER_BURST = 100
CALLS_PER_PROBE = 2
PROBE_EVERY_S = 0.3
NEAREST = 7


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((512, 64)).astype(np.float32)
        self._w = (rng.standard_normal((64, 64)) / 8).astype(np.float32)
        # per kernel call, in time order: when it started and how long it took
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._last_probe = -np.inf

    def _kernel(self) -> float:
        # the program's mix in miniature: small f32 matmuls, elementwise
        # ops, reductions and interpreter work. It allocates no object the
        # cyclic collector tracks, so probes do not move the program's
        # collections, and with them its peak memory.
        x, total = self._x, 0.0
        for _ in range(20):
            x = np.tanh(x @ self._w)
            x = x - x.mean(axis=0)
            for i in range(8):
                total += float(x[i, 0])
        return total

    def _calls(self, n: int) -> None:
        clock = time.perf_counter
        for _ in range(n):
            t0 = clock()
            self._kernel()
            self.starts.append(t0)
            self.seconds.append(clock() - t0)

    def burst(self) -> None:
        self._calls(CALLS_PER_BURST)

    def maybe_probe(self) -> None:
        """A few kernel calls, if PROBE_EVERY_S has passed since the last probe ended."""
        now = time.perf_counter()
        if now - self._last_probe >= PROBE_EVERY_S:
            self._last_probe = now  # a traced probe calls back here when it ends
            self.probe()
            self._last_probe = time.perf_counter()

    def probe(self) -> None:
        self._calls(CALLS_PER_PROBE)

    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(self.seconds)

    def _span(self, a: float, b: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)

    def busy(self, a: float, b: float) -> float:
        """Seconds of kernel calls that started inside [a, b]."""
        lo, hi = self._span(a, b)
        return sum(self.seconds[lo:hi])

    def scale(self, a: float, b: float) -> float:
        """REF_MS over the median kernel call inside [a, b], or the NEAREST calls to it."""
        lo, hi = self._span(a, b)
        if hi - lo < NEAREST:
            mid = 0.5 * (a + b)
            near = sorted(range(max(lo - NEAREST, 0), min(hi + NEAREST, len(self.starts))),
                          key=lambda i: abs(self.starts[i] - mid))[:NEAREST]
            return REF_MS / (1e3 * statistics.median(self.seconds[i] for i in near))
        return REF_MS / (1e3 * statistics.median(self.seconds[lo:hi]))

    def scaled(self, a: float, b: float) -> float:
        """The time [a, b] took, less kernel calls inside, at the reference speed."""
        return (b - a - self.busy(a, b)) * self.scale(a, b)
