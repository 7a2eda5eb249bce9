"""Machine-speed calibration: fixed work timed next to the measured work.

The host this benchmark runs on may be shared: the same code can run 1.5x
slower for seconds or minutes at a time while neighbours are busy. A
calibration step is a fixed piece of work of the kind a workload spends
its time on, which shares no code with causalsteer and calls no BLAS
routine, so a change to the program, or to the BLAS threads it runs with,
does not move it; only the machine's speed does. Around each timed call
the benchmark runs calibration steps for a fifth of the call's time, and
reports the call's time scaled by the reference step time over the mean
step time measured on both sides of it: the call's time on a machine as
fast as one on which each part of a step takes REFERENCE_S.

The kinds of work (PARTS):

- ``python``: a loop of Python float arithmetic.
- ``propagate``: passes in topological order over a 70-variable linear
  DAG, gathering each variable's parents with numpy as the package's
  propagation loops do (element-wise product and sum, not a BLAS dot).
- ``rows``: a column gather, weighted sum and tanh over a 20000 x 16
  array, memory-bound like sampling and scoring many rows.
"""

from time import perf_counter

import numpy as np

PARTS = ("python", "propagate", "rows")
#: Seconds one part of a step typically takes on a shared 2-vCPU x86-64
#: host at 2.1 GHz (numpy 2.4, Python 3.11): the speed results are scaled to.
REFERENCE_S = 0.001
#: Calibration time after a call, as a share of the call's time.
SHARE = 0.2


class Calibration:
    def __init__(self, parts):
        if not parts or set(parts) - set(PARTS):
            raise ValueError(f"calibration parts must be some of {PARTS}, not {parts}")
        rng = np.random.default_rng(0)
        self._weights = np.where(rng.random((70, 70)) < 0.1, np.tril(rng.standard_normal((70, 70)), -1), 0.0)
        self._table = rng.standard_normal((20000, 16))
        self._columns = np.array([1, 4, 6, 9, 13])
        self._coeffs = rng.standard_normal(self._columns.size)
        self._parts = [getattr(self, "_" + name) for name in parts]
        self._reference = REFERENCE_S * len(parts)
        self._last = None  # mean step seconds measured after the previous call
        self.steps: list[float] = []  # seconds of every step run

    @staticmethod
    def _python() -> None:
        total = 0.0
        for k in range(13000):
            total += k * 0.5

    def _propagate(self) -> None:
        w = self._weights
        for _ in range(2):
            x = np.zeros(w.shape[0])
            x[0] = 1.0
            for v in range(1, w.shape[0]):
                pa = np.flatnonzero(w[v])
                if pa.size:
                    x[v] = (w[v, pa] * x[pa]).sum() + 0.5

    def _rows(self) -> None:
        np.tanh((self._table[:, self._columns] * self._coeffs).sum(axis=1)) + self._table[:, 3]

    def step(self) -> float:
        """One calibration step, every part once; returns its seconds."""
        start = perf_counter()
        for part in self._parts:
            part()
        elapsed = perf_counter() - start
        self.steps.append(elapsed)
        return elapsed

    def _steps_for(self, seconds: float) -> float:
        """Steps for ``seconds`` (at least one); returns their mean seconds."""
        spent, n = self.step(), 1
        while spent < seconds:
            spent += self.step()
            n += 1
        return spent / n

    def measure(self, fn, *args):
        """``fn(*args)`` timed between calibration steps.

        Returns (result, seconds, scaled seconds): the scale is the reference
        step time over the mean of the steps run just before and just after
        the call.
        """
        if self._last is None:
            self._last = self._steps_for(4 * self._reference)
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        before, self._last = self._last, self._steps_for(SHARE * elapsed)
        return result, elapsed, elapsed * 2.0 * self._reference / (before + self._last)
