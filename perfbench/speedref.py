"""A machine-speed reference interleaved with the program under test.

The benchmark shares a few cores of a host whose speed drifts by up to ~1.7x
over minutes, and every part of a run (interpreter, numpy, LAPACK) slows
together.  Wall times of the same code then spread wider than any useful
regression bound.  ``SpeedRef`` runs a fixed slice of numpy and Python work
from a ``SIGALRM`` handler every ``PERIOD_S`` of wall time, so the slices
sample the machine's speed at the same moments as the program, whatever the
program's call structure.  ``normalize`` takes the slices' busy time out of a
span of wall time and rescales the rest to the speed at which one slice takes
``NOMINAL_SLICE_S``: seconds "at reference speed".

Python runs signal handlers between bytecodes of the main thread, so a slice
never interrupts a numpy or LAPACK call; a stall inside one (such as the first
multi-threaded ``pinv``) stays in the program's time.  The slice touches only
its own small arrays and random generator, never the program's state.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.005
# mean slice time on a 2-vCPU x86-64 VM (numpy 2.4 with OpenBLAS) in a quiet
# minute; it only fixes the scale of the reported seconds
NOMINAL_SLICE_S = 4.5e-4

_gen = np.random.default_rng(0)
_H16 = _gen.standard_normal((16, 16)) + 1j * _gen.standard_normal((16, 16))
_H16 = _H16 + _H16.conj().T
_H4 = _H16[:4, :4].copy()
_M = _gen.standard_normal((64, 32))
_P = np.full(16, 1 / 16)


def reference_slice() -> int:
    """The fixed work of one slice: the kinds of operation a tomography trial
    is made of (small Hermitian eigensolves, dense products, a pseudo-inverse,
    multinomial sampling and interpreted Python)."""
    w, v = np.linalg.eigh(_H16)
    (v * w) @ v.conj().T
    np.linalg.eigh(_H4)
    _gen.multinomial(1000, _P)
    np.linalg.pinv(_M)
    s = 0
    for i in range(300):
        s += i * i % 7
    return s


class SpeedRef:
    """Interleaves reference slices with whatever the main thread runs."""

    def __init__(self):
        self.busy_s = 0.0
        self.slices = 0

    def _tick(self, signum, frame):
        tick = perf_counter()
        reference_slice()
        self.busy_s += perf_counter() - tick
        self.slices += 1

    def start(self):
        reference_slice()  # first-call set-up stays out of the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return self.busy_s, self.slices


def normalize(wall_s: float, start: tuple, end: tuple) -> tuple:
    """(program seconds, seconds at reference speed) of a span of wall time
    that began at mark ``start`` and ended at mark ``end``."""
    busy = end[0] - start[0]
    slices = end[1] - start[1]
    program_s = wall_s - busy
    if slices == 0:  # too short to sample; only sub-period spans get here
        return program_s, program_s
    return program_s, program_s * NOMINAL_SLICE_S * slices / busy
