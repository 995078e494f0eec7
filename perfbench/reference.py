"""The machine-speed reference that the end-to-end timings are scaled to.

On a shared machine the CPU switches between a fast and a slower state
as the neighbours' load changes: every few seconds, with the share of
slow time drifting over minutes.  Between sets of ten runs of one commit
every timing of the program moved together by 1.3-1.7x, in both
directions.  The reference is fixed work that uses none of the program's
code: a point read through the standard ``sqlite3`` module on an
in-memory table, then a few lines of Python that turn the row into a dict
and a string -- the two kinds of work one statement of the program does.
Timed next to the program, it gives the machine's speed at that moment,
and the benchmark reports each timing as it would read on a machine where
one reference iteration takes :data:`NOMINAL_US`.
"""

from __future__ import annotations

import random
import sqlite3
import statistics
import time

#: Reference iteration time the end-to-end timings are scaled to: about
#: what it takes on a 2-vCPU x86-64 VM in its fast state (about 4.3 us;
#: 7.4 us in its slow state).
NOMINAL_US = 5.0
#: How long one reference measurement runs.
MEASURE_S = 0.1
#: A batch times this many iterations, after ``WARM`` untimed ones that
#: bring back into the caches what other work pushed out.
BATCH, WARM = 8, 2
ROWS = 20_000
COLUMNS = ("tenant", "order_no", "qty", "status")


class Reference:
    """Times the reference work; keeps every measurement."""

    def __init__(self):
        rng = random.Random(0)
        # The traced run's DDL thread measures around its moves too, while
        # the thread that built the reference waits.
        self.db = sqlite3.connect(":memory:", check_same_thread=False)
        self.db.execute("CREATE TABLE t(tenant TEXT, order_no INTEGER, qty INTEGER, "
                        "status INTEGER)")
        self.db.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            ((f"tenant-{i % 8}", i, rng.randint(1, 9), i % 2) for i in range(ROWS)))
        self.next_id = 0
        #: Every measurement, in microseconds per iteration.
        self.samples_us: list[float] = []

    def iteration(self) -> str:
        self.next_id = (self.next_id + 7919) % ROWS
        row = self.db.execute(
            "SELECT tenant, order_no, qty, status FROM t WHERE rowid = ?",
            (self.next_id + 1,)).fetchone()
        record = dict(zip(COLUMNS, row))
        return ",".join(f"{key}={value}" for key, value in record.items())

    def batch(self) -> float:
        """Seconds per iteration over one batch."""
        for _ in range(WARM):
            self.iteration()
        begun = time.perf_counter()
        for _ in range(BATCH):
            self.iteration()
        return (time.perf_counter() - begun) / BATCH

    def measure(self) -> float:
        """The median over :data:`MEASURE_S` of batch iteration times, in
        us."""
        times = []
        end = time.perf_counter() + MEASURE_S
        while time.perf_counter() < end:
            times.append(self.batch())
        value = statistics.median(times) * 1e6
        self.samples_us.append(value)
        return value

    def factor(self) -> float:
        """Measure now; the factor that scales a time taken now to the
        nominal machine (divide a rate by it)."""
        return NOMINAL_US / self.measure()

    def close(self) -> None:
        self.db.close()
