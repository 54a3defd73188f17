"""A clock that reads wall time at the host's uncontended speed.

On a shared two-vCPU virtual machine the same pure-Python loop runs up to
twice as slow while a neighbour loads the host, and that state flips every
few seconds.  Raw wall times of one job list then spread by 20-30 % between
runs, which hides any real change to the program.

RefClock samples the host's speed every TICK_S seconds: a timer signal runs
a fixed integer-hash loop of the benchmark's own (no lacelab code), and the
loop's duration divided by CAL_REF_S is the current slowdown.  Each stretch
of wall time between two ticks is divided by the slowdown measured around
it, and the ticks' own time is left out.  The result is in seconds at the
speed where the calibration loop takes CAL_REF_S: an idle core of the
2-vCPU VM the baseline was measured on.

The correction assumes that the measured code slows down under load by the
same factor as the calibration loop.  Interpreted Python roughly does;
numpy-heavy code slows less, so its corrected time reads low while the host
is loaded.  clock_check.py measures how far this holds for a workload, and
raw_now() keeps the uncorrected time beside the corrected one.
"""

import signal
import statistics
import time

TICK_S = 0.1
CAL_ITERATIONS = 4000
CAL_REF_S = 0.0012  # the loop's duration on an idle core of the 2-vCPU VM
_MASK = (1 << 64) - 1


def calibration_loop() -> int:
    """Fixed interpreted work, like lacelab's scalar kernels."""
    x = 12345
    for i in range(CAL_ITERATIONS):
        z = (x + 0x9E3779B97F4A7C15 + i) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = z ^ (z >> 31)
    return x


class RefClock:
    def __init__(self, timer=time.perf_counter, calibrate=calibration_loop,
                 ref_s=CAL_REF_S):
        self._timer = timer
        self._calibrate = calibrate
        self._ref_s = ref_s
        self._recent = []
        self._corrected = 0.0
        self._raw = 0.0
        self._factor = 1.0
        self._last = timer()
        self.sample()

    def sample(self):
        """Measure the slowdown and bank the wall time since the last one."""
        t0 = self._timer()
        self._calibrate()
        t1 = self._timer()
        # median of the last three samples, so one preempted loop does not
        # rescale a whole interval
        self._recent = (self._recent + [(t1 - t0) / self._ref_s])[-3:]
        factor = statistics.median(self._recent)
        self._corrected += (t0 - self._last) / (0.5 * (self._factor + factor))
        self._raw += t0 - self._last
        self._factor = factor
        self._last = t1

    def now(self) -> float:
        """Corrected seconds since the clock was made."""
        return self._corrected + (self._timer() - self._last) / self._factor

    def raw_now(self) -> float:
        """Uncorrected seconds since the clock was made, ticks left out.

        Over an interval, the change of raw_now over the change of now is
        the mean slowdown the interval was divided by.
        """
        return self._raw + (self._timer() - self._last)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
