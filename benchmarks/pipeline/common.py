"""Helpers shared by the benchmark's processes (no program imports)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
#: The checkout the benchmark runs in (``benchmarks/pipeline/..``).
ROOT = HERE.parents[1]
PINS_PATH = HERE / "expected_sha256.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"

#: How often a SpeedMeter samples.
SAMPLE_INTERVAL_S = 0.01
#: What one :func:`sample_work` takes on the reference host, a shared
#: 2-vCPU Intel Xeon virtual machine with Python 3.11 and NumPy 2.4,
#: when no other tenant slows it: of 3000 samples, the fastest 0.1%
#: took 0.46 ms and the fastest 1% 0.48 ms (the median, on a busy
#: host, 1.15 ms).
REFERENCE_SAMPLE_S = 0.00046

_SAMPLE_ARRAY = np.random.default_rng(0).random(1024)
_SAMPLE_TEXT = json.dumps([[i, i * 0.5, str(i)] for i in range(40)])
_SAMPLE_RECORDS = json.dumps([
    {"instance": [i, 2 * i, 3 * i], "times": [i * 1e-3, i * 2e-3], "best": "gemm", "flops": i * 1000}
    for i in range(120)
])


def sample_work() -> float:
    """A fixed piece of the program's kind of work, about 0.4 ms.

    Small-array NumPy sorts and medians, a dict build, JSON decodes
    (one of them of study-payload-like records) and a blake2b digest.
    It is benchmark code, so no change to the program moves it; other
    tenants of a shared machine slow it as they slow the program.
    The records decode makes it follow the store's JSON work: with it,
    repeated store-reload processes spread by 4.2% instead of 6.7%,
    and study-quick ones by 4.0% instead of 5.8%.
    """
    total = float(len(json.loads(_SAMPLE_RECORDS)))
    for i in range(4):
        ordered = np.sort(_SAMPLE_ARRAY)
        medians = np.median(
            (_SAMPLE_ARRAY * (1.0 + i * 1e-6)).reshape(-1, 16), axis=1
        )
        squares = {j: j * j for j in range(100)}
        total += float(medians.sum()) + float(ordered[7])
        total += sum(squares.values()) * 1e-12
        total += len(json.loads(_SAMPLE_TEXT))
        total += hashlib.blake2b(ordered[:64].tobytes()).digest()[0]
    return total


class SpeedMeter:
    """Samples how fast this process's CPU is, every SAMPLE_INTERVAL_S.

    A SIGALRM timer runs :func:`sample_work` in the main thread,
    between the program's bytecodes, and records when each sample
    started and ended.  A shared host slows each vCPU down on its own,
    by up to 2x, and its speed changes within tens of milliseconds;
    samples taken inside the measured work follow it, where a
    calibration before and after a round cannot.  :class:`SpeedScale`
    turns the samples into seconds at reference speed.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._busy = False
        self._previous = None
        self.running = False

    def _sample(self, _signum=None, _frame=None) -> None:
        if self._busy:  # a tick that arrived during a sample
            return
        self._busy = True
        start = time.perf_counter()
        sample_work()
        self.samples.append((start, time.perf_counter()))
        self._busy = False

    def start(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.running = True
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def stop(self, *_signal_args) -> None:
        """Stop sampling (idempotent; usable as a signal handler)."""
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.running = False
        self._sample()

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.samples))


class SpeedScale:
    """Seconds at reference speed, from one process's meter samples.

    Time inside a sample belongs to the meter and counts 0.  The time
    between two samples counts at the speed of the four samples
    nearest to it: ``t × REFERENCE_SAMPLE_S / median(their durations)``.
    Before the first and after the last sample, the nearest gap's
    speed applies.  Sample times are ``time.perf_counter`` readings,
    the system-wide monotonic clock on Linux, so one process can scale
    a window it measured with another process's samples.
    """

    def __init__(self, samples: Sequence[Sequence[float]]) -> None:
        # A copy first: a meter may append while this reads its list.
        bounds = np.array(list(samples), dtype=float)
        if len(bounds) < 2:
            raise ValueError("a speed scale needs at least two samples")
        starts, ends = bounds[:, 0], bounds[:, 1]
        durations = np.pad(ends - starts, (1, 2), mode="edge")
        nearest = np.lib.stride_tricks.sliding_window_view(durations, 4)
        self._factors = REFERENCE_SAMPLE_S / np.median(nearest, axis=1)[:-1]
        # The scaled clock is piecewise linear: flat over samples,
        # slope factors[k] over the gap after sample k.
        self._x = bounds.reshape(-1)
        steps = np.zeros(len(self._x))
        steps[2::2] = (starts[1:] - ends[:-1]) * self._factors
        self._y = np.cumsum(steps)

    @classmethod
    def load(cls, path) -> "SpeedScale":
        return cls(json.loads(Path(path).read_text()))

    def clock(self, t):
        """The scaled clock at perf_counter reading(s) ``t``."""
        t = np.asarray(t, dtype=float)
        x, y = self._x, self._y
        return np.where(
            t < x[0], y[0] - (x[0] - t) * self._factors[0],
            np.where(
                t > x[-1], y[-1] + (t - x[-1]) * self._factors[-1],
                np.interp(t, x, y),
            ),
        )

    def seconds(self, start, end):
        """Seconds at reference speed between perf_counter readings."""
        return self.clock(end) - self.clock(start)

    def factor(self) -> float:
        """Median speed factor: reference time per second on this host."""
        return float(np.median(self._factors))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile: ``ceil(q·N)``-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def peak_rss_mb(pid: str = "self") -> float:
    """A process's peak resident set size (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def sha256(text) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def load_pins() -> Dict[str, str]:
    """Study key slug → sha256 of its canonical payload text."""
    return json.loads(PINS_PATH.read_text())


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``REPRO_*`` settings of the calling shell (a cache directory, a
    fault plan, a disabled code path) would change what is measured,
    so none is passed on; the program is imported from ``src/``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env
