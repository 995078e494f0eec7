"""Per-layer measurements for the traced pass.

Two sources, both from outside the program:

* :class:`SpanRecorder` records the benchmark's own spans around every
  statement of the traced closed loop and joins in the spans the program
  already emits (``connect(..., trace=True)``: ``statement`` / ``plan`` /
  ``execute``; over TCP the reply's ``timing`` envelope and the
  server-side spans).  It checks that the layers add up.
* :class:`LayerProbe` times single calls into each layer's public
  functions with one client: the planner and backend plan objects, raw
  ``sqlite3`` on the physical table and on the generated views, the
  metrics registry, the wire-protocol framing, the engine's evolution
  and code generation.  Counts (SQL statements, VM steps, scanning
  query shapes) come from ``sqlite3`` hooks on the session handles.
"""

from __future__ import annotations

import io
import json
import random
import re
import sqlite3
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.backend import codegen
from repro.backend.planner import compile_statement_sqlite
from repro.obs.metrics import MetricsRegistry
from repro.server import protocol
from repro.sql.connection import resolve_schema_version
from repro.sql.parser import SqlParser

from scenario import (RANGE_ROWS, WRITE_KINDS, Model, connect, statements,
                      table_for, tables)

#: A child span may end this much after its parent (clock granularity).
SPAN_TOLERANCE_S = 2e-6
#: Over TCP, the median part of the benchmark's ``cursor.execute`` call
#: outside the client's round trip (building the request and the cursor)
#: may be at most this long.
REMOTE_GAP_S = 150e-6
#: Statements whose spans are written to the span file.
KEPT_STATEMENTS = 1000
#: Fig. 8 of the paper: generated delta code against hand-written SQL.
PAPER_FIG8 = {"materialized_x": 1.04, "propagated_x_at_most": 2.0}


def median_us(samples) -> float:
    return statistics.median(samples) * 1e6 if samples else 0.0


# ----------------------------------------------------------------------
# Spans of the traced closed loop
# ----------------------------------------------------------------------


class SpanRecorder:
    """Benchmark spans per statement, joined with the program's spans.

    Each statement gets the trace id of the program's trace; the
    benchmark adds ``bench.<kind>`` (the whole call), ``bench.execute``
    (``cursor.execute``) and ``bench.fetch`` (``fetchall``) and parents
    the program's root span on ``bench.execute``.  Spans are held in
    memory and written by :meth:`write`.
    """

    def __init__(self, remote: bool):
        self.remote = remote
        self.layers: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict] = []
        self.statements = 0
        self.violations: list[str] = []
        self._lock = threading.Lock()

    def _span(self, name, trace_id, span_id, parent_id, start, end) -> dict:
        return {"name": name, "trace_id": trace_id, "span_id": span_id,
                "parent_id": parent_id, "start": start, "end": end}

    def statement(self, kind: str, begun: float, executed: float, done: float,
                  trace) -> None:
        if trace is None:
            with self._lock:
                self.violations.append(f"{kind}: no trace on a traced connection")
            return
        by_name = defaultdict(list)
        for span in trace.spans:
            by_name[span.name].append(span)
        layers: list[tuple[str, float]] = []
        problems: list[str] = []
        call = executed - begun
        if self.remote:
            root = trace.root  # client.statement: the round trip
            network = by_name["network"][0] if by_name["network"] else None
            engine_root = (by_name["engine.statement"] or [None])[0]
            if network is None or engine_root is None:
                problems.append("remote trace lacks the network or engine span")
            else:
                # The client derives the wire span as round trip minus
                # engine_ms, so the sum is checked against the
                # benchmark's own timing of the call instead.
                engine_s = network.attributes["engine_ms"] / 1000.0
                layer_sum = network.duration + engine_s
                if layer_sum > call + SPAN_TOLERANCE_S:
                    problems.append("wire + engine exceeds the measured call")
                gap = call - layer_sum
                if engine_root.duration > engine_s + SPAN_TOLERANCE_S:
                    problems.append("server statement span exceeds engine_ms")
                if kind == "read":
                    layers += [("server.wire_us", network.duration),
                               ("server.engine_us", engine_s),
                               ("server.call_gap_us", gap)]
            statement_span = engine_root
        else:
            root = trace.root  # statement
            statement_span = root
            if root.start + SPAN_TOLERANCE_S < begun or \
                    root.start + root.duration > executed + SPAN_TOLERANCE_S:
                problems.append("statement span lies outside cursor.execute")
        if root.duration > call + SPAN_TOLERANCE_S:
            problems.append("program root span exceeds the measured call")
        if statement_span is not None:
            children = [s for s in trace.spans
                        if s.parent_id == statement_span.span_id]
            child_total = sum(s.duration for s in children)
            if child_total > statement_span.duration + SPAN_TOLERANCE_S:
                problems.append("child spans exceed their statement span")
            for span in children:
                if span.name == "plan":
                    layers.append(("sql.plan_us", span.duration))
                elif span.name == "execute":
                    if kind == "read":
                        layers.append(("sql.execute_us.read", span.duration))
                    elif kind in WRITE_KINDS:
                        layers.append(("sql.execute_us.write", span.duration))
            if kind == "read":
                layers.append(("sql.self_us", statement_span.duration - child_total))
        with self._lock:
            self.statements += 1
            for name, value in layers:
                self.layers[name].append(value)
            if problems and len(self.violations) < 20:
                self.violations.append(f"{kind}: " + "; ".join(problems))
            if self.statements <= KEPT_STATEMENTS:
                self._keep(kind, begun, executed, done, trace)

    def _keep(self, kind, begun, executed, done, trace) -> None:
        tid = trace.trace_id
        root_id, exec_id = f"{tid}-b", f"{tid}-e"
        self.spans.append(self._span(f"bench.{kind}", tid, root_id, None, begun, done))
        self.spans.append(self._span("bench.execute", tid, exec_id, root_id,
                                     begun, executed))
        self.spans.append(self._span("bench.fetch", tid, f"{tid}-f", root_id,
                                     executed, done))
        for span in trace.spans:
            self.spans.append(self._span(
                span.name, span.trace_id, span.span_id,
                span.parent_id or exec_id, span.start, span.start + span.duration,
            ))

    def medians_us(self) -> dict[str, float]:
        return {name: median_us(values) for name, values in self.layers.items()}

    def check_remote_gap(self) -> None:
        """Over TCP, the median of the benchmark's call minus wire +
        engine must stay within :data:`REMOTE_GAP_S`."""
        gaps = self.layers.get("server.call_gap_us")
        if gaps and statistics.median(gaps) > REMOTE_GAP_S:
            self.violations.append(
                f"read: median call minus wire + engine is "
                f"{median_us(gaps):.1f} us, over {REMOTE_GAP_S * 1e6:.0f} us")

    def write(self, path: Path, *, append: bool = False) -> None:
        with open(path, "a" if append else "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def wire_reads(conn, version: str, ids: dict[str, list[int]], seed: int,
               seconds: float, recorder: SpanRecorder) -> None:
    """Point reads on a traced remote connection for ``seconds``, each
    folded into ``recorder`` (after a short warm-up)."""
    rng = random.Random(seed * 13 + 5)
    table = tables(version)[0]
    sql = statements(version, table)["read"]
    clock = time.perf_counter
    warm_until = clock() + min(0.5, seconds / 4)
    end = warm_until + seconds
    while clock() < end:
        begun = clock()
        cursor = conn.execute(sql, (rng.choice(ids[table]),))
        executed = clock()
        cursor.fetchall()
        done = clock()
        if begun >= warm_until:
            recorder.statement("read", begun, executed, done, cursor.trace)


# ----------------------------------------------------------------------
# Single-client layer measurements
# ----------------------------------------------------------------------


def _timed(call, count: int, budget_s: float) -> list[float]:
    """Durations of up to ``count`` calls ``call(i)``, within a budget."""
    durations = []
    deadline = time.perf_counter() + budget_s
    clock = time.perf_counter
    for i in range(count):
        begun = clock()
        call(i)
        durations.append(clock() - begun)
        if clock() > deadline and len(durations) >= 5:
            break
    return durations


def _explain(conn, sql: str, params: tuple) -> dict:
    return dict(conn.execute("EXPLAIN " + sql, params).fetchall())


def _scanned_tables(raw: sqlite3.Connection, sql: str, params: tuple,
                    views: set[str]) -> tuple[list[str], str]:
    """Tables (not views or constant rows) the query plan scans, and the
    plan text."""
    plan = raw.execute("EXPLAIN QUERY PLAN " + sql, params).fetchall()
    text = "\n".join(f"{parent}:{node} {detail}" for node, parent, _, detail in plan)
    scanned = []
    for *_, detail in plan:
        match = re.match(r"SCAN (\S+)", detail)
        if not match or detail.startswith("SCAN CONSTANT ROW"):
            continue
        name = match.group(1).split(".")[-1]
        if name not in views:
            scanned.append(name)
    return scanned, text


def _new_session(backend, before: set[int]):
    for session in backend.live_sessions():
        if id(session) not in before:
            return session
    raise RuntimeError("the connection leased no backend session")


class LayerProbe:
    """Measures every in-process layer on a built database, one client.

    The qty increments the probe applies are counted in
    :attr:`increments` so the correctness check can account for them.
    """

    def __init__(self, engine, backend, path: Path, model_ids: dict[str, list[int]],
                 pins: tuple[str, ...], seed: int, budget_s: float):
        self.engine = engine
        self.backend = backend
        self.path = path
        self.ids = model_ids  # rowids per v3 table and for Orders
        self.pins = list(dict.fromkeys(pins))
        self.rng = random.Random(seed * 31 + 7)
        self.budget = budget_s
        self.metrics: dict[str, float] = {}
        self.detail: dict = {"scanning_shapes": [], "samples": {}}
        self.increments = 0

    # -- helpers ---------------------------------------------------------

    def _rowid(self, table: str) -> int:
        return self.rng.choice(self.ids[table])

    def _record(self, name: str, samples: list[float], scale: float = 1e6) -> float:
        value = statistics.median(samples) * scale if samples else 0.0
        self.metrics[name] = value
        self.detail["samples"][name] = len(samples)
        return value

    def _raw(self) -> sqlite3.Connection:
        raw = sqlite3.connect(str(self.path), isolation_level=None,
                              check_same_thread=False)
        raw.execute("PRAGMA busy_timeout = 5000")
        raw.execute("PRAGMA synchronous = NORMAL")
        raw.execute("PRAGMA recursive_triggers = ON")
        return raw

    # -- the layers ------------------------------------------------------

    def run(self) -> None:
        raw = self._raw()
        try:
            views = {name for (name,) in raw.execute(
                "SELECT name FROM sqlite_master WHERE type = 'view'")}
            conn = connect(self.engine, self.backend, "v1")
            try:
                v1_sql = _explain(conn, statements("v1", "Orders")["read"], (1,))
            finally:
                conn.close()
            physical = re.search(r"FROM (\S+)\s*$", v1_sql["view_sql"]).group(1)
            self.detail["physical_table"] = physical
            self.compile_cost()
            self.backend_run()
            self.sqlite_floor(raw, physical)
            self.counts()
            self.scan_shapes(raw, views)
        finally:
            raw.close()
        self.metrics_cost()
        self.protocol_cost()
        self.tracing_overhead()
        self.evolution_cost()

    def compile_cost(self) -> None:
        """``sql.compile_us``: parse (uncached parser) + lower to a plan."""
        samples = []
        for version in self.pins:
            schema_version = resolve_schema_version(self.engine, version)
            for table in tables(version):
                for sql in statements(version, table).values():
                    def call(_i, sql=sql):
                        compile_statement_sqlite(
                            schema_version, SqlParser(sql).parse_statement())
                    samples += _timed(call, 20, self.budget / 10)
        self._record("sql.compile_us", samples)

    def backend_run(self) -> None:
        """``backend.run_us.*``: ``plan.run(session, params)`` alone, the
        write inside an explicit transaction so its commit is excluded."""
        reads, writes = [], []
        session = self.backend.open_session()
        try:
            for version in self.pins:
                schema_version = resolve_schema_version(self.engine, version)
                for table in tables(version):
                    texts = statements(version, table)
                    read = compile_statement_sqlite(
                        schema_version, SqlParser(texts["read"]).parse_statement())
                    update = compile_statement_sqlite(
                        schema_version, SqlParser(texts["update"]).parse_statement())
                    reads += _timed(lambda _i: read.run(session, (self._rowid(table),)),
                                    300, self.budget / 8)
                    for _ in range(40):
                        rowid = self._rowid(table)
                        session.begin_immediate()
                        begun = time.perf_counter()
                        update.run(session, (rowid,))
                        writes.append(time.perf_counter() - begun)
                        session.commit()
                        self.increments += 1
                        if sum(writes) > self.budget / 8:
                            break
        finally:
            session.close()
        self._record("backend.run_us.read", reads)
        self._record("backend.run_us.write", writes)

    def sqlite_floor(self, raw: sqlite3.Connection, physical: str) -> None:
        """Fig. 8 on the live backend: raw ``sqlite3`` on the physical table
        (hand-written SQL) against the plan's generated ``backend_sql`` on
        the view and its ``INSTEAD OF`` trigger; plus ``COMMIT`` alone."""
        table_read = f"SELECT tenant, order_no, qty, status FROM {physical} WHERE p = ?"
        table_write = f"UPDATE {physical} SET qty = qty + 1 WHERE p = ?"
        t_reads, t_writes, v_reads, v_writes, commits = [], [], [], [], []
        for version in self.pins:
            vconn = connect(self.engine, self.backend, version)
            try:
                for table in tables(version):
                    texts = statements(version, table)
                    view_read = _explain(vconn, texts["read"], (1,))["backend_sql"]
                    view_write = _explain(vconn, texts["update"], (1,))["backend_sql"]
                    ids = lambda: (self._rowid(table),)  # noqa: E731
                    t_reads += _timed(lambda _i: raw.execute(table_read, ids()).fetchall(),
                                      300, self.budget / 16)
                    v_reads += _timed(lambda _i: raw.execute(view_read, ids()).fetchall(),
                                      300, self.budget / 16)
                    for sql, out in ((table_write, t_writes), (view_write, v_writes)):
                        raw.execute("BEGIN IMMEDIATE")
                        try:
                            out += _timed(lambda _i, sql=sql: raw.execute(sql, ids()),
                                          100, self.budget / 16)
                        finally:
                            raw.execute("COMMIT")
            finally:
                vconn.close()
        self.increments += len(t_writes) + len(v_writes)
        for _ in range(60):
            raw.execute("BEGIN IMMEDIATE")
            raw.execute(f"UPDATE {physical} SET qty = qty WHERE p = ?",
                        (self._rowid("Orders"),))
            begun = time.perf_counter()
            raw.execute("COMMIT")
            commits.append(time.perf_counter() - begun)
        self._record("backend.commit_us", commits)
        table_r = self._record("sqlite.table_us.read", t_reads)
        table_w = self._record("sqlite.table_us.write", t_writes)
        view_r = self._record("sqlite.view_us.read", v_reads)
        view_w = self._record("sqlite.view_us.write", v_writes)
        self.metrics["delta.overhead_x.read"] = view_r / table_r
        self.metrics["delta.overhead_x.write"] = view_w / table_w
        self.detail["fig8_paper_reference"] = PAPER_FIG8

    def counts(self) -> None:
        """Exact counts on the first pinned version, one client: SQL
        statements (``set_trace_callback``) and VM steps
        (``set_progress_handler(cb, 1)``) per read, write and scan."""
        version = self.pins[0]
        table = tables(version)[0]
        texts = statements(version, table)
        rowid = self.ids[table][len(self.ids[table]) // 2]
        before = {id(s) for s in self.backend.live_sessions()}
        conn = connect(self.engine, self.backend, version)
        try:
            handle = _new_session(self.backend, before).connection
            conn.execute(texts["read"], (rowid,)).fetchall()  # warm the plans
            conn.execute(texts["update"], (rowid,))
            conn.execute(texts["scan"]).fetchall()
            self.increments += 1
            tally = [0]

            def bump(*_args):
                tally[0] += 1

            def count(run) -> int:
                tally[0] = 0
                run()
                return tally[0]

            handle.set_trace_callback(bump)
            try:
                self.metrics["backend.sql_per_read"] = count(
                    lambda: conn.execute(texts["read"], (rowid,)).fetchall())
                self.metrics["backend.sql_per_write"] = count(
                    lambda: conn.execute(texts["update"], (rowid,)))
            finally:
                handle.set_trace_callback(None)
            self.increments += 1
            handle.set_progress_handler(lambda: bump() or 0, 1)
            try:
                self.metrics["sqlite.vm_steps.read"] = count(
                    lambda: conn.execute(texts["read"], (rowid,)).fetchall())
                self.metrics["sqlite.vm_steps.write"] = count(
                    lambda: conn.execute(texts["update"], (rowid,)))
                self.metrics["sqlite.vm_steps.scan"] = count(
                    lambda: conn.execute(texts["scan"]).fetchall())
            finally:
                handle.set_progress_handler(None, 1)
            self.increments += 1
        finally:
            conn.close()
        self.detail["counts_on"] = f"{version}.{table}, rowid {rowid}"

    def scan_shapes(self, raw: sqlite3.Connection, views: set[str]) -> None:
        """``delta.scan_shapes``: rowid-keyed statement shapes (point read,
        range read, update, delete) whose backend SQL scans a table."""
        shapes = 0
        for version in self.pins:
            conn = connect(self.engine, self.backend, version)
            try:
                for table in tables(version):
                    texts = statements(version, table)
                    for kind in ("read", "range", "update", "delete"):
                        params = (1, 1 + RANGE_ROWS) if kind == "range" else (1,)
                        entries = _explain(conn, texts[kind], params)
                        plans = []
                        for key in ("count_sql", "backend_sql"):
                            if key in entries:
                                scanned, text = _scanned_tables(
                                    raw, entries[key], params, views)
                                if scanned:
                                    plans.append({"sql": entries[key],
                                                  "scans": scanned, "plan": text})
                        if plans:
                            shapes += 1
                            self.detail["scanning_shapes"].append(
                                {"version": version, "table": table,
                                 "shape": kind, "plans": plans})
            finally:
                conn.close()
        self.metrics["delta.scan_shapes"] = shapes

    def metrics_cost(self) -> None:
        """``obs.metrics_us``: one labelled histogram ``observe`` plus one
        counter ``inc``, as the cursor records them per statement."""
        registry = MetricsRegistry()
        latency = registry.histogram("bench_latency_seconds", "",
                                     ("version", "kind", "cache"))
        statements = registry.counter("bench_statements_total", "", ("version", "kind"))
        batch = 200

        def call(_i):
            for _ in range(batch):
                latency.observe(3e-5, version="v1", kind="select", cache="hit")
                statements.inc(version="v1", kind="select")

        samples = [s / batch for s in _timed(call, 40, self.budget / 10)]
        self._record("obs.metrics_us", samples)

    def protocol_cost(self) -> None:
        """``server.protocol.*``: frame a point reply and a 100-row range
        reply (shaped as the server sends them) and read them back."""
        version = self.pins[0]
        table = tables(version)[0]
        texts = statements(version, table)
        conn = connect(self.engine, self.backend, version)
        try:
            replies = []
            start = self.ids[table][0]
            for sql, params in ((texts["read"], (self._rowid(table),)),
                                (texts["range"], (start, start + RANGE_ROWS))):
                cursor = conn.execute(sql, params)
                rows = cursor.fetchall()
                replies.append({
                    "description": protocol.description_to_wire(cursor.description),
                    "rowcount": cursor.rowcount, "lastrowid": cursor.lastrowid,
                    "rows": protocol.rows_to_wire(rows), "done": True,
                    "timing": {"engine_ms": 0.05, "kind": "select", "cache": "hit"},
                    "id": 1, "ok": True,
                })
        finally:
            conn.close()
        frames = []
        for reply in replies:
            buffer = io.BytesIO()
            protocol.write_frame(buffer, reply)
            frames.append(buffer.getvalue())
        self.metrics["server.reply_bytes.range"] = len(frames[1])

        def encode(_i):
            buffer = io.BytesIO()
            for reply in replies:
                protocol.write_frame(buffer, reply)

        def decode(_i):
            buffer = io.BytesIO(b"".join(frames))
            for _ in replies:
                protocol.read_frame(buffer)

        self._record("server.protocol.encode_us", _timed(encode, 400, self.budget / 20))
        self._record("server.protocol.decode_us", _timed(decode, 400, self.budget / 20))

    def tracing_overhead(self) -> None:
        """``obs.tracing_overhead_us``: traced minus untraced point-read
        p50 on one client, in alternating blocks."""
        version = self.pins[0]
        table = tables(version)[0]
        sql = statements(version, table)["read"]
        plain = connect(self.engine, self.backend, version)
        traced = connect(self.engine, self.backend, version, trace=True)
        samples = {id(plain): [], id(traced): []}
        try:
            deadline = time.perf_counter() + self.budget / 8
            while time.perf_counter() < deadline:
                for conn in (plain, traced):
                    samples[id(conn)] += _timed(
                        lambda _i, c=conn: c.execute(sql, (self._rowid(table),)).fetchall(),
                        25, 1.0)
        finally:
            plain.close()
            traced.close()
        self.metrics["obs.tracing_overhead_us"] = (
            median_us(samples[id(traced)]) - median_us(samples[id(plain)]))
        self.detail["samples"]["obs.tracing_overhead_us"] = len(samples[id(traced)])

    def evolution_cost(self) -> None:
        """``engine.evolve_ms``: ``engine.execute(CREATE SCHEMA VERSION …)``
        alone; ``codegen.generate_ms``: view and trigger generation for
        the live catalog."""
        evolve = []
        for index in range(3):
            begun = time.perf_counter()
            self.engine.execute(
                f"CREATE SCHEMA VERSION m{index} FROM v1 WITH "
                f"RENAME COLUMN qty IN Orders TO mq{index};")
            evolve.append(time.perf_counter() - begun)
            self.engine.execute(f"DROP SCHEMA VERSION m{index};")
        self._record("engine.evolve_ms", evolve, scale=1e3)

        def generate(_i):
            codegen.view_statements(self.engine)
            codegen.trigger_statements(self.engine)

        self._record("codegen.generate_ms", _timed(generate, 5, self.budget / 8),
                     scale=1e3)


def model_rowids(model: Model) -> dict[str, list[int]]:
    """Base rowids for every table name a client may address."""
    ids = {"Orders": list(model.base_ids), "Open": [], "Closed": []}
    for rowid in model.base_ids:
        ids[table_for("v3", model.rows[rowid][3])].append(rowid)
    return ids
