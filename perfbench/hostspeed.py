"""Host speed: a fixed kernel timed around every measured call.

The shared 2-vCPU host this benchmark runs on moves between speed
states up to ~2x apart that last from seconds to many minutes.  Process
CPU time moves with them, so they are not steal time, and a 35 s run
cannot average them away: runs taken across a change of state spread
20-40% in raw seconds.  So every measured call is bracketed by two
timings of :func:`kernel`, and its time is rescaled to the reference
speed by ``REFERENCE_S`` over the mean of the two.  The kernel imports
nothing from the program, so a change to the program leaves its time
alone and shows in full in the rescaled figures.  The simulator does
not slow down exactly as much as the kernel, so the correction is
partial; ``RATIONALE.md`` gives the measurements.
"""

import time

#: Seconds the kernel takes at the reference speed: its median, wall and
#: CPU alike, on a 2-vCPU Intel Xeon KVM guest under Python 3.11 in the
#: host's faster state.
REFERENCE_S = 0.036


class _Slot:
    __slots__ = ("tag", "hits")

    def __init__(self, tag):
        self.tag = tag
        self.hits = 0

    def touch(self, tag):
        if self.tag == tag:
            self.hits += 1
            return True
        self.tag = tag
        return False


def kernel():
    """Fixed pure-Python work in the simulator's idiom: dict updates and
    method calls on slotted objects.  Returns a hit count."""
    table = {}
    slots = [_Slot(i) for i in range(512)]
    hits = 0
    for i in range(150_000):
        key = (i * 7) & 1023
        table[i & 1023] = table.get(key, 0) + i
        hits += slots[i & 511].touch(key)
    return hits


def time_kernel():
    """``(wall, cpu)`` seconds of one :func:`kernel` call."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0


def rescale(values, kernel_s):
    """Each of ``values`` rescaled to the reference speed by the kernel
    time measured around it."""
    return [v * REFERENCE_S / k for v, k in zip(values, kernel_s)]
