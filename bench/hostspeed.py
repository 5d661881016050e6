"""Host speed probe: puts operation times on a fixed time base on a shared CPU.

On a virtual machine whose cores are shared with other tenants, the same
pure-Python work runs at one speed or at about half of it, in spells of tens
of milliseconds, and even the fast speed moves between runs.  The share of
slow time drifts over minutes, so two 30 s runs of the same code can differ
in wall time by 30% while the library did exactly the same work.  Longer runs
and medians do not remove a drift that slow.

While an operation runs, a SIGALRM every INTERVAL_S times a fixed pure-Python
kernel of about 50 us (1% of the operation's time), so the probe samples the
host's speed evenly through the operation.  The operation's time, less the
probes' own time, is then scaled by

    REF_PROBE_S / (mean probe time during the operation)

that is, it is expressed on a machine where the kernel takes REF_PROBE_S:
about its time on an unshared core of the 2.1 GHz Xeon the benchmark was
tuned on.  Measured this way, the library's time moves with its own speed,
as wall time does, since the kernel is fixed here and calls no library code;
but the host's speed, which moves the kernel's time as much as the library's,
cancels out.  The wall-clock figures are printed beside the corrected ones.
"""
from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.005
REF_PROBE_S = 40e-6
KERNEL_STEPS = 250


def _kernel() -> float:
    s = 0.0
    for k in range(KERNEL_STEPS):
        x = k * 1e-3
        s += math.exp(-x) * math.cos(x)
    return s


class HostProbe:
    def __init__(self):
        self.samples: list[float] = []  # probe times of the current operation
        self.every: list[float] = []    # probe times of the whole run

    def _probe(self, signum, frame) -> None:
        t0 = perf_counter()
        _kernel()
        self.samples.append(perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        """Stop probing; return the probe times taken since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.every += self.samples
        return self.samples

    def corrected(self, wall: float, samples: list[float]) -> float:
        """An operation's time on the reference machine, from its wall time and
        the probes taken during it (those of the whole run if it had none,
        and none at all, so no correction, before the first probe)."""
        net = wall - sum(samples)
        mean = statistics.fmean(samples or self.every or [REF_PROBE_S])
        return net * REF_PROBE_S / mean
