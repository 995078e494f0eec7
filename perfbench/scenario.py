"""Workloads, set-up, closed-loop clients and the correctness check.

Every workload runs over the orders scenario of
:mod:`repro.workloads.orders`: ``v1`` (the base release), ``v2``
(``ADD COLUMN total``) and ``v3`` (``SPLIT`` of Orders into Open/Closed),
with ``v1`` materialized.  The benchmark generates every input from its
``--seed``; the program only ever receives the resulting SQL statements.
"""

from __future__ import annotations

import gc
import os
import random
import re
import select
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.backend.sqlite import LiveSqliteBackend
from repro.workloads import orders as scenario

#: Each client runs this mix (shares of its statements); ``propagated``
#: adds ``scan_share`` whole-table scans on top.
READ_SHARE, UPDATE_SHARE, INSERT_DELETE_SHARE = 0.70, 0.10, 0.10
RANGE_ROWS = 100
WRITE_KINDS = ("update", "insert", "delete")
#: Latency groups of the samples: the write kinds count as ``write``.
KINDS = ("read", "write", "range", "scan")
INVENTORY_PER_TENANT = 5
#: SQLite's default per-connection page cache (``cache_size = -2000``).
SQLITE_PAGE_CACHE_BYTES = 2000 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    tenants: int
    orders_per_tenant: int
    #: Schema version each client is pinned to, one entry per client.
    pins: tuple[str, ...]
    scan_share: float = 0.0
    #: Evolution cycles with the two ``MATERIALIZE ONLINE`` moves, spread
    #: over the timed loop.
    probe_move_cycles: int = 1
    #: Set-ups per untraced run (``setup_s`` is their median).
    setups: int = 3

    @property
    def orders(self) -> int:
        return self.tenants * self.orders_per_tenant


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Why each workload exists is recorded in BENCHMARK.json.
        Workload("point-local", 8, 25_000, ("v1",), probe_move_cycles=3),
        Workload("propagated", 8, 625, ("v2", "v3"), scan_share=0.02,
                 probe_move_cycles=5, setups=9),
    )
}

#: Scans the DDL client runs after each block of the timed loop where
#: the mix has none.
SCANS_PER_BLOCK = 4


def describe(wl: Workload, database_bytes: int) -> dict:
    """The properties the workload's numbers depend on."""
    return {
        "orders": wl.orders,
        "database_bytes": database_bytes,
        "database_vs_sqlite_page_cache": round(
            database_bytes / SQLITE_PAGE_CACHE_BYTES, 3
        ),
        "flush_policy": "WAL, synchronous=NORMAL, autocommit per statement",
        "clients": len(wl.pins),
        "loop": "closed",
        "version_pins": list(wl.pins),
    }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def generate_rows(wl: Workload, seed: int) -> tuple[list[tuple], list[tuple]]:
    """The orders and inventory rows of one run, drawn from ``seed``."""
    rng = random.Random(seed)
    names = [scenario.tenant_name(i) for i in range(wl.tenants)]
    orders = [
        scenario.order_row(rng, tenant, scenario.order_no_for(index, serial))
        for index, tenant in enumerate(names)
        for serial in range(wl.orders_per_tenant)
    ]
    stock = [
        scenario.inventory_row(rng, tenant, serial)
        for tenant in names
        for serial in range(INVENTORY_PER_TENANT)
    ]
    return orders, stock


def remove_database(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        try:
            os.remove(f"{path}{suffix}")
        except FileNotFoundError:
            pass


def build_database(path: Path, orders: list[tuple], stock: list[tuple]):
    """Create the file database through the program: attach the live
    backend to an engine holding ``v1``, load the rows through a ``v1``
    connection, then evolve ``v2`` and ``v3``.  Returns
    ``(engine, backend, {"attach_s", "build_s"})``."""
    remove_database(path)
    started = time.perf_counter()
    engine = repro.InVerDa()
    engine.execute(scenario.ORDERS_V1_SCRIPT)
    backend = LiveSqliteBackend.attach(engine, database=str(path), pool_size=6)
    attached = time.perf_counter()
    conn = connect(engine, backend, "v1")
    try:
        conn.executemany(
            "INSERT INTO Orders(tenant, order_no, qty, status) VALUES (?, ?, ?, ?)",
            orders,
        )
        conn.executemany(
            "INSERT INTO Inventory(sku, stock, reserved) VALUES (?, ?, ?)", stock
        )
    finally:
        conn.close()
    engine.execute(scenario.ORDERS_V2_SCRIPT)
    engine.execute(scenario.ORDERS_V3_SCRIPT)
    built = time.perf_counter()
    return engine, backend, {"attach_s": attached - started,
                             "build_s": built - attached}


def copy_database(source: Path, target: Path) -> None:
    """A consistent copy of a live WAL database (SQLite's backup API)."""
    remove_database(target)
    src = sqlite3.connect(str(source))
    dst = sqlite3.connect(str(target))
    try:
        src.backup(dst)
    finally:
        dst.close()
        src.close()


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


def connect(engine, backend, version: str, *, trace: bool = False):
    """An autocommit connection of the program, pinned to ``version``."""
    return repro.connect(engine, version, autocommit=True, backend=backend,
                         trace=trace)


def _status_kb(field_name: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field_name} missing from /proc status")


def rss_mb() -> float:
    """Resident set size (``VmRSS``) of this process, in MB."""
    return _status_kb("VmRSS") / 1024.0


def rss_peak_mb() -> float:
    """Peak resident set size (``VmHWM``) of this process since the last
    :func:`reset_rss_peak`, in MB."""
    return _status_kb("VmHWM") / 1024.0


def reset_rss_peak() -> None:
    """Set this process's ``VmHWM`` back to its current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as clear:
        clear.write("5")


class Server:
    """``python -m repro.server --db <file>`` in its own process."""

    def __init__(self, path: Path, root: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--db", str(path),
             "--port", "0"],
            cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.output: list[str] = []
        self.host, self.port = self._await_listening(deadline=60.0)

    def _await_listening(self, deadline: float) -> tuple[str, int]:
        """The address from the server's ``listening on`` line (printed
        once the listener accepts connections)."""
        stream = self.process.stdout
        until = time.monotonic() + deadline
        while time.monotonic() < until:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stream.readline()
            if not line:
                break
            self.output.append(line.rstrip())
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("server did not come up: " + " | ".join(self.output))

    def stop(self) -> None:
        """SIGTERM (the server's graceful drain), then wait for it to exit
        (its ``close()`` waits out the accept thread here)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            rest, _ = self.process.communicate()
        self.output.extend((rest or "").splitlines())


# ----------------------------------------------------------------------
# The expected state
# ----------------------------------------------------------------------


def table_for(version: str, status: int) -> str:
    if version == "v3":
        return "Open" if status % 2 == 0 else "Closed"
    return "Orders"


def tables(version: str) -> list[str]:
    """The tables holding orders in ``version``."""
    return ["Open", "Closed"] if version == "v3" else ["Orders"]


def statements(version: str, table: str) -> dict[str, str]:
    """The workload's statement texts on one table of ``version``.  Later
    versions write their own ``total`` column on insert, as their app
    would."""
    columns = "tenant, order_no, qty, status" + ("" if version == "v1" else ", total")
    values = ", ".join("?" for _ in columns.split(","))
    return {
        "read": f"SELECT tenant, order_no, qty, status FROM {table} WHERE rowid = ?",
        "update": f"UPDATE {table} SET qty = qty + 1 WHERE rowid = ?",
        "insert": f"INSERT INTO {table}({columns}) VALUES ({values})",
        "delete": f"DELETE FROM {table} WHERE rowid = ?",
        "range": f"SELECT rowid, qty FROM {table} WHERE rowid >= ? AND rowid < ?",
        "scan": f"SELECT count(rowid), sum(qty) FROM {table}",
    }


@dataclass
class Model:
    """What the database must hold: ``rows[rowid] = [tenant, order_no,
    qty, status]``, built from the generated inputs and updated with every
    acknowledged statement."""

    rows: dict[int, list]
    base_ids: list[int]
    #: Rowids a failed statement may or may not have changed.
    uncertain: set[int] = field(default_factory=set)

    @property
    def qty_sum(self) -> int:
        return sum(row[2] for row in self.rows.values())


def model_from_rows(orders: list[tuple]) -> Model:
    """The expected state of a freshly built database.  The program
    numbers the loaded rows 1..n in load order; :func:`check_loaded`
    checks that, and the check after the run compares every row."""
    rows = {index + 1: list(row) for index, row in enumerate(orders)}
    return Model(rows, list(rows))


def check_loaded(engine, backend, model: Model) -> None:
    """Aggregates of ``v1`` against a model from :func:`model_from_rows`;
    nothing of the size of the table is fetched."""
    conn = connect(engine, backend, "v1")
    try:
        loaded = conn.execute(
            "SELECT count(rowid), sum(qty), min(rowid), max(rowid) FROM Orders"
        ).fetchone()
    finally:
        conn.close()
    expected = (len(model.rows), model.qty_sum, min(model.rows), max(model.rows))
    if tuple(loaded) != expected:
        raise RuntimeError(f"the loaded database holds {loaded} "
                           f"(count, sum(qty), min/max rowid), expected {expected}")


def snapshot_model(engine, backend, orders: list[tuple], increments: int) -> Model:
    """Read rowids from ``v1`` and check the loaded payload against the
    generated rows (``increments`` = qty +1 updates already applied)."""
    conn = connect(engine, backend, "v1")
    try:
        rows = conn.execute(
            "SELECT rowid, tenant, order_no, qty, status FROM Orders"
        ).fetchall()
    finally:
        conn.close()
    loaded = sorted((tenant, order_no, status) for _, tenant, order_no, _, status in rows)
    generated = sorted((tenant, order_no, status) for tenant, order_no, _, status in orders)
    loaded_sum = sum(row[3] for row in rows)
    expected_sum = sum(row[2] for row in orders) + increments
    if loaded != generated or loaded_sum != expected_sum:
        raise RuntimeError("the loaded database does not hold the generated rows")
    if increments == 0:
        by_order = {row[1]: row[2] for row in orders}
        if any(by_order[order_no] != qty for _, _, order_no, qty, _ in rows):
            raise RuntimeError("loaded qty values differ from the generated rows")
    model_rows = {rowid: [t, o, q, s] for rowid, t, o, q, s in rows}
    return Model(model_rows, sorted(model_rows))


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    ranked = sorted(samples)
    if not ranked:
        return 0.0
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


class Client:
    """One closed-loop client on one connection, pinned to one version.

    It draws its statements from its own seeded generator, records the
    latency of every statement started inside the timed window, and
    keeps the effects of acknowledged writes for the correctness check.
    :meth:`end_block` reduces a block's samples to its percentiles.
    """

    def __init__(self, index: int, version: str, conn, model: Model, wl: Workload,
                 seed: int, tracer=None):
        self.index = index
        self.version = version
        self.conn = conn
        self.wl = wl
        self.rng = random.Random(seed * 1009 + index)
        self.base_ids = model.base_ids
        # Read for the status of base rows, which the loop never changes.
        self.rows = model.rows
        self.tables = tables(version)
        self.texts = {table: statements(version, table) for table in self.tables}
        self.tenant_index = wl.tenants + index  # the client's own stride
        self.serial = 0
        self.pending: deque[tuple[int, str]] = deque()
        self.tracer = tracer
        # Effects of acknowledged statements.
        self.increments: Counter = Counter()
        self.inserted: dict[int, list] = {}
        self.deleted: set[int] = set()
        self.uncertain: set[int] = set()
        self.mismatches: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        # Latency (seconds) of each statement of the current block started
        # in the window, and when it started, as packed doubles: the loop
        # allocates nothing the cyclic GC has to traverse.
        self.samples = {kind: array("d") for kind in KINDS}
        self.started = {kind: array("d") for kind in KINDS}
        #: Statements of the current block completed inside the window.
        self.completed = 0
        #: Per finished block: ``{kind: (p50, p99)}`` of the kinds sampled,
        #: and the statements completed.
        self.block_stats: list[dict[str, tuple[float, float]]] = []
        self.block_completed: list[int] = []
        #: Samples over all finished blocks, per kind.
        self.sample_counts: Counter = Counter()

    def _sql(self, kind: str, table: str) -> str:
        return self.texts[table][kind]

    def next_statement(self):
        """``(kind, sql, params, rowid)`` of the next statement."""
        rng = self.rng
        if self.wl.scan_share and rng.random() < self.wl.scan_share:
            return "scan", self._sql("scan", rng.choice(self.tables)), (), None
        draw = rng.random()
        if draw < READ_SHARE + UPDATE_SHARE:
            kind = "read" if draw < READ_SHARE else "update"
            rowid = rng.choice(self.base_ids)
            table = table_for(self.version, self.rows[rowid][3])
            return kind, self._sql(kind, table), (rowid,), rowid
        if draw < READ_SHARE + UPDATE_SHARE + INSERT_DELETE_SHARE:
            # Inserts and deletes alternate, so the table size stays
            # constant: each client holds at most one surviving insert.
            if self.pending:
                rowid, table = self.pending[0]
                return "delete", self._sql("delete", table), (rowid,), rowid
            status = rng.randint(0, 1)
            qty = rng.randint(1, 9)
            row = (scenario.tenant_name(self.tenant_index),
                   scenario.order_no_for(self.tenant_index, self.serial), qty, status)
            self.serial += 1
            if self.version != "v1":
                row += (qty * 100,)
            return ("insert", self._sql("insert", table_for(self.version, status)),
                    row, None)
        start = rng.choice(self.base_ids)
        return ("range", self._sql("range", rng.choice(self.tables)),
                (start, start + RANGE_ROWS), None)

    def _acknowledge(self, kind: str, params: tuple, rowid, cursor, rows) -> None:
        if kind == "read":
            if len(rows) != 1:
                self.mismatches.append(f"read of rowid {rowid} returned {len(rows)} rows")
        elif kind == "update":
            if cursor.rowcount != 1:
                self.mismatches.append(f"update of rowid {rowid} hit {cursor.rowcount} rows")
            self.increments[rowid] += 1
        elif kind == "insert":
            new_id = cursor.lastrowid
            self.inserted[new_id] = list(params[:4])
            self.pending.append((new_id, table_for(self.version, params[3])))
        elif kind == "delete":
            self.pending.popleft()
            if cursor.rowcount != 1:
                self.mismatches.append(f"delete of rowid {rowid} hit {cursor.rowcount} rows")
            self.deleted.add(rowid)

    def _fail(self, kind: str, rowid, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {exc!r}"[:300])
        if kind == "delete":
            self.pending.popleft()
            self.uncertain.add(rowid)
        elif kind == "update":
            self.uncertain.add(rowid)

    def step(self, window_start: float, window_end: float) -> bool:
        """Run one statement; ``False`` once ``window_end`` has passed.
        Statements started before ``window_start`` are the warm-up and
        are not timed."""
        clock = time.perf_counter
        if clock() >= window_end:
            return False
        kind, sql, params, rowid = self.next_statement()
        self.attempted += 1
        begun = clock()
        try:
            cursor = self.conn.execute(sql, params)
            executed = clock()
            rows = cursor.fetchall() if kind in ("read", "range", "scan") else None
        except Exception as exc:  # any statement that raises is a failure
            self._fail(kind, rowid, exc)
            return True
        done = clock()
        self._acknowledge(kind, params, rowid, cursor, rows)
        if begun < window_start:
            return True
        group = "write" if kind in WRITE_KINDS else kind
        self.samples[group].append(done - begun)
        self.started[group].append(begun)
        if done <= window_end:
            self.completed += 1
        if self.tracer is not None:
            self.tracer.statement(kind, begun, executed, done, cursor.trace)
        return True

    def end_block(self) -> None:
        """Keep the block's percentiles and completed count; drop its
        samples, so the benchmark's own memory stays flat over a run."""
        self.block_stats.append({
            kind: (percentile(samples, 0.5), percentile(samples, 0.99))
            for kind, samples in self.samples.items() if samples})
        self.block_completed.append(self.completed)
        for kind in KINDS:
            self.sample_counts[kind] += len(self.samples[kind])
            del self.samples[kind][:]
            del self.started[kind][:]
        self.completed = 0

    def merge_into(self, model: Model) -> None:
        for rowid, count in self.increments.items():
            model.rows[rowid][2] += count
        for rowid, row in self.inserted.items():
            model.rows[rowid] = list(row)
        for rowid in self.deleted:
            model.rows.pop(rowid, None)
        model.uncertain |= self.uncertain


# ----------------------------------------------------------------------
# Schema evolution cycles
# ----------------------------------------------------------------------


@dataclass
class ProbeLog:
    """What the DDL client measured: evolutions, moves and scans."""

    evolve_s: list[float] = field(default_factory=list)
    scan_s: list[float] = field(default_factory=list)
    move_s: list[float] = field(default_factory=list)
    #: The mean of the reference factors measured right before and right
    #: after each move.
    move_factors: list[float] = field(default_factory=list)
    #: ``(start, end)`` perf_counter windows of every move.
    move_windows: list[tuple[float, float]] = field(default_factory=list)
    #: ``(chunks, rows)`` of each move, read from the registry after it.
    move_progress: list[tuple[float, float]] = field(default_factory=list)
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _gauge(snapshot: dict, name: str) -> float:
    series = snapshot.get(name, {}).get("series") or [{}]
    return float(series[0].get("value", 0.0))


class DdlClient:
    """A second connection, pinned to ``v1``, that evolves the schema and
    runs the scan probe.  Version ``p<i>`` renames ``qty`` to ``pq<i>``.

    An evolution cycle is ``CREATE SCHEMA VERSION`` → the first statement
    on it → (two online moves) → ``DROP``; it leaves the physical tables
    where they started.  A cycle that raises counts as a failed statement
    and stops further cycles.
    """

    def __init__(self, engine, backend, model: Model, seed: int, log: ProbeLog,
                 reference, *, progress: bool):
        self.engine = engine
        self.backend = backend
        self.reference = reference
        self.rng = random.Random(seed * 7919)
        self.base_ids = model.base_ids
        self.log = log
        self.progress = progress
        self.index = 0
        self.broken = False
        self.ddl = connect(engine, backend, "v1")

    def scans(self, count: int) -> None:
        """Whole-table scans (``count(rowid), sum(qty)``) of ``v1``."""
        for _ in range(count):
            self.log.attempted += 1
            begun = time.perf_counter()
            self.ddl.execute(statements("v1", "Orders")["scan"]).fetchall()
            self.log.scan_s.append(time.perf_counter() - begun)

    def _run(self, sql: str) -> None:
        self.log.attempted += 1
        self.ddl.execute(sql)

    def cycle(self, *, move: bool) -> None:
        if self.broken:
            return
        try:
            self._cycle(move)
        except Exception as exc:  # reported as a failed statement
            self.broken = True
            self.log.failed += 1
            self.log.errors.append(repr(exc)[:300])

    def _cycle(self, move: bool) -> None:
        log = self.log
        name, column = f"p{self.index}", f"pq{self.index}"
        self.index += 1
        started = time.perf_counter()
        self._run(f"CREATE SCHEMA VERSION {name} FROM v1 WITH "
                  f"RENAME COLUMN qty IN Orders TO {column};")
        conn = connect(self.engine, self.backend, name)
        try:
            log.attempted += 1
            rows = conn.execute(
                f"SELECT tenant, order_no, {column}, status FROM Orders WHERE rowid = ?",
                (self.rng.choice(self.base_ids),),
            ).fetchall()
            log.evolve_s.append(time.perf_counter() - started)
            if len(rows) != 1:
                raise RuntimeError(f"first read on {name} returned {len(rows)} rows")
            if move:
                for version in (name, "v1"):
                    before = self.reference.factor()
                    begun = time.perf_counter()
                    self._run(f"MATERIALIZE ONLINE '{version}';")
                    ended = time.perf_counter()
                    log.move_factors.append((before + self.reference.factor()) / 2)
                    log.move_s.append(ended - begun)
                    log.move_windows.append((begun, ended))
                    if self.progress:
                        snap = self.ddl.stats()["metrics"]
                        log.move_progress.append(
                            (_gauge(snap, "repro_backfill_chunks"),
                             _gauge(snap, "repro_backfill_rows")))
        finally:
            conn.close()
        self._run(f"DROP SCHEMA VERSION {name};")
        log.cycles += 1

    def close(self) -> None:
        self.ddl.close()


def evolution_job(ddl: DdlClient, window: tuple[float, float]) -> None:
    """A DDL thread next to the clients: one full cycle from the start of
    the block, so the clients run into the online moves."""
    time.sleep(max(0.0, window[0] - time.perf_counter()))
    ddl.cycle(move=True)


# ----------------------------------------------------------------------
# Running clients
# ----------------------------------------------------------------------


def run_clients(clients: list[Client], seconds: float, warmup: float,
                extra=None) -> tuple[float, float]:
    """Run the clients (and ``extra((start, end))``, a DDL thread);
    returns the timed window ``(start, end)``.

    One thread drives every client, a statement of each in turn: two
    client threads in one process trade the GIL in a pattern that
    changes from run to run, and they run on different CPUs, whose speed
    the machine-speed reference (measured on one thread) cannot track.

    Everything allocated so far (the expected state, the engine) is moved
    out of the cyclic GC's reach first, so a full collection does not
    stall the clients for a traversal of set-up objects."""

    def drive(window_start: float, window_end: float) -> None:
        while all(client.step(window_start, window_end) for client in clients):
            pass

    gc.collect()
    gc.freeze()
    window_start = time.perf_counter() + warmup
    window_end = window_start + seconds
    threads = [threading.Thread(target=drive, args=(window_start, window_end),
                                name="perfbench-clients")]
    if extra is not None:
        threads.append(threading.Thread(target=extra,
                                        args=((window_start, window_end),),
                                        name="perfbench-ddl"))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return window_start, window_end


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def check_database(engine, backend, model: Model) -> list[str]:
    """Compare every version's rows with the expected state.

    * each row reads the same through ``v1``, ``v2`` and ``v3`` (``v2``
      and ``v3`` also agree on ``total``; Open holds the even statuses,
      Closed the odd ones);
    * ``count(v1.Orders) = count(v2.Orders) = count(Open) + count(Closed)``;
    * ``sum(qty)`` equals the initial sum plus acknowledged increments
      and inserted qty, minus deleted qty;
    * every acknowledged, undeleted insert is visible through every version.
    """
    problems: list[str] = []
    conns = {v: connect(engine, backend, v) for v in ("v1", "v2", "v3")}
    try:
        v1 = {r[0]: list(r[1:]) for r in conns["v1"].execute(
            "SELECT rowid, tenant, order_no, qty, status FROM Orders").fetchall()}
        v2 = {r[0]: list(r[1:]) for r in conns["v2"].execute(
            "SELECT rowid, tenant, order_no, qty, status, total FROM Orders").fetchall()}
        v3 = {}
        for table, parity in (("Open", 0), ("Closed", 1)):
            for rowid, *row in conns["v3"].execute(
                    f"SELECT rowid, tenant, order_no, qty, status, total FROM {table}"
            ).fetchall():
                if rowid in v3:
                    problems.append(f"rowid {rowid} is in both Open and Closed")
                if row[3] % 2 != parity:
                    problems.append(f"rowid {rowid} in {table} has status {row[3]}")
                v3[rowid] = row
        counts = [
            conns["v1"].execute("SELECT count(rowid) FROM Orders").fetchone()[0],
            conns["v2"].execute("SELECT count(rowid) FROM Orders").fetchone()[0],
            conns["v3"].execute("SELECT count(rowid) FROM Open").fetchone()[0]
            + conns["v3"].execute("SELECT count(rowid) FROM Closed").fetchone()[0],
        ]
        sums = [
            conns["v1"].execute("SELECT sum(qty) FROM Orders").fetchone()[0],
            conns["v2"].execute("SELECT sum(qty) FROM Orders").fetchone()[0],
            conns["v3"].execute("SELECT sum(qty) FROM Open").fetchone()[0]
            + conns["v3"].execute("SELECT sum(qty) FROM Closed").fetchone()[0],
        ]
    finally:
        for conn in conns.values():
            conn.close()
    if v1 != {rowid: row[:4] for rowid, row in v2.items()}:
        problems.append("v1 and v2 disagree on the Orders rows")
    if v2 != v3:
        problems.append("v2 and v3 (Open + Closed) disagree on the Orders rows")
    if len(set(counts)) != 1 or counts[0] != len(v1):
        problems.append(f"row counts differ across versions: {counts}")
    if len(set(sums)) != 1:
        problems.append(f"sum(qty) differs across versions: {sums}")
    expected = {k: v for k, v in model.rows.items() if k not in model.uncertain}
    actual = {k: v for k, v in v1.items() if k not in model.uncertain}
    if not model.uncertain and sums[0] != model.qty_sum:
        problems.append(f"sum(qty) is {sums[0]}, expected {model.qty_sum}")
    if expected != actual:
        missing = sorted(set(expected) - set(actual))[:5]
        extra = sorted(set(actual) - set(expected))[:5]
        changed = sorted(k for k in set(expected) & set(actual)
                         if expected[k] != actual[k])[:5]
        problems.append(
            f"rows differ from the expected state: missing {missing}, "
            f"unexpected {extra}, changed {changed}"
        )
    return problems
