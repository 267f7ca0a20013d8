"""Host-speed reference: scale measured times to a fixed nominal speed.

On a shared host the CPU speed a process gets drifts by tens of percent over
seconds to minutes, and every wall or CPU time drifts with it.  The benchmark
therefore times a fixed reference probe next to the work it measures and
reports each time scaled by the probe's nominal time over the probe time
seen at that moment: the time the work would take on a machine on which the
probe takes exactly its nominal time.  No probe touches parhiggs, so a
change to the program moves the scaled times and not the scale.  Raw times
are printed next to the scaled ones.

In-process workloads use ``INTERPRETER_WORK``, a pure-Python job run in the
benchmark process; cli-session uses the start of a bare child interpreter
(see ``cli_session.py``), which tracks the cost of its children better.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

HALF_WINDOW = 3   # probes on each side of a segment that set its scale


class Reference:
    """A probe (a function returning the seconds it took), its nominal time
    and how often the timed phase runs it."""

    def __init__(self, probe, nominal_s: float, every_s: float):
        self.probe, self.nominal_s, self.every_s = probe, nominal_s, every_s


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def _reference_job() -> int:
    """Integer arithmetic, dict updates, small objects and a sort: the
    interpreter work parhiggs is made of, without Fraction (whose cost a
    change to the program could shift onto the probe's share)."""
    acc, table, cells = 0, {}, []
    for i in range(600):
        acc += i * i % 7
        table[i & 127] = acc
        cell = _Cell((i * 7) % 13, i)
        cells.append((cell.key, cell.value))
        table[cell.key] = table.get(cell.key, 0) + cell.value
    cells.sort()
    return acc + len(cells) + len(table)


def interpreter_probe(reps: int = 10) -> float:
    """Seconds for ``reps`` runs of the reference job."""
    t0 = perf_counter()
    for _ in range(reps):
        _reference_job()
    return perf_counter() - t0


# nominal: a round figure near the probe time on a 2-core cloud VM
INTERPRETER_WORK = Reference(interpreter_probe, nominal_s=4.0e-3, every_s=0.25)


class SpeedTrack:
    """Probes taken between segments of measured work.

    ``tick`` is called after every measured operation and probes when
    ``every_s`` has passed since the last probe; ``segment`` is the index of
    the segment an operation that ends now belongs to.  After the run,
    ``scales()`` gives one factor per segment: the nominal probe time over
    the median of the probes nearest that segment.
    """

    def __init__(self, ref: Reference):
        self.ref = ref
        self.probes = [ref.probe()]
        self._last = perf_counter()

    @property
    def segment(self) -> int:
        return len(self.probes) - 1

    def tick(self) -> None:
        if perf_counter() - self._last >= self.ref.every_s:
            self.probes.append(self.ref.probe())
            self._last = perf_counter()

    def close(self) -> None:
        self.probes.append(self.ref.probe())

    def scales(self) -> list[float]:
        p = self.probes
        return [self.ref.nominal_s / median(p[max(0, j + 1 - HALF_WINDOW):j + 1 + HALF_WINDOW])
                for j in range(len(p) - 1)]


def timed_scaled(fn, ref: Reference, reps: int = 3):
    """Run ``fn()`` between ``reps`` probes before and after; return its
    result, raw seconds and seconds scaled to nominal speed."""
    before = [ref.probe() for _ in range(reps)]
    t0 = perf_counter()
    result = fn()
    raw = perf_counter() - t0
    after = [ref.probe() for _ in range(reps)]
    return result, raw, raw * ref.nominal_s / median(before + after)
