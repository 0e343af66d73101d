"""Host-speed probe: a tiny fixed kernel timed around and during each CLI call.

The 2-vCPU host this benchmark was built on changes speed by up to 1.8x over
seconds to minutes, with little steal time and process CPU time equal to
wall time.  Median raw pass times of the same code spread by 10-33 % across
ten runs.  The probe times a small kernel that uses no irtr_lab code but
does the same kinds of work as the workloads: an interpreter loop, a
3072-point exp and leggauss(32) as in quadrature, and four Haar-like draws
(spawned Generator, 4x4 QR, sign fix, a validating frozen dataclass, a 2x2
eigvalsh) as in the random-measurement path.  It takes five samples just
before and five just after each call, and one every 50 ms while the call
runs, from a SIGALRM handler.  Signal handlers run in the main thread, so
the process stays single-threaded.  The median sample is the host's speed
for that call.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

INTERVAL_S = 0.05
BRACKET_SAMPLES = 5


@dataclass(frozen=True)
class _Basis:
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (4, 4):
            raise ValueError("matrix must be 4x4")
        object.__setattr__(self, "matrix", matrix)


class HostSpeedProbe:
    """Host speed around (and, with ``in_call``, during) each CLI call.

    Traced runs turn ``in_call`` off, so the handler's time never lands in a
    span.
    """

    def __init__(self, in_call: bool = True):
        self.in_call = in_call
        self._weights = np.array([0.4, 0.3, 0.2, 0.1])
        self._nodes = np.linspace(-8.0, 8.0, 3072)
        self._seeds = np.random.SeedSequence(0)
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for value in range(1_000):
            total += value * value
        np.exp(-self._nodes * self._nodes).sum()
        leggauss(32)
        for child in self._seeds.spawn(4):
            normal = np.random.default_rng(child).standard_normal((4, 4))
            q_factor, r_factor = np.linalg.qr(normal)
            basis = _Basis(q_factor * np.sign(np.diag(r_factor)))
            np.linalg.eigvalsh(basis.matrix[:2, :2] + basis.matrix[:2, :2].T)
            float(np.sum(basis.matrix**2 @ self._weights))
        self.samples.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def around_call(self):
        """Sample around and during the body; yields the probe.

        After the body, ``in_call_s`` is the time the handler spent inside
        it, to be subtracted from the call's wall time.
        """
        self.samples = []
        for _ in range(BRACKET_SAMPLES):
            self.sample()
        if self.in_call:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            if self.in_call:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.in_call_s = sum(self.samples[BRACKET_SAMPLES:])
            for _ in range(BRACKET_SAMPLES):
                self.sample()

    @property
    def speed_s(self) -> float:
        """Median kernel time over the last call's samples."""
        return statistics.median(self.samples)
