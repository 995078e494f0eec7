"""Every stats surface serves the unified ``repro.obs/1`` snapshot.  The
keys the surfaces had before unification (``backend``, ``plan_cache``,
``catalog``, the pool's sizing keys, the server's status keys) are part
of that schema; none is an alias of another key."""

from __future__ import annotations

import json

import pytest

import repro
from repro.core.engine import InVerDa
from repro.obs import SNAPSHOT_SCHEMA, engine_snapshot
from repro.server.client import connect_remote
from repro.server.server import ReproServer


def build_engine() -> InVerDa:
    engine = InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);"
    )
    return engine


class TestEngineSnapshot:
    def test_schema_and_core_keys(self):
        engine = build_engine()
        snapshot = engine_snapshot(engine)
        assert snapshot["schema"] == SNAPSHOT_SCHEMA == "repro.obs/1"
        assert snapshot["backend"] == "memory"
        assert {"plan_cache", "catalog", "workload", "tracing",
                "metrics"} <= set(snapshot)
        assert snapshot["catalog"]["generation"] == engine.catalog_generation
        json.dumps(snapshot)  # must survive the wire protocol


class TestConnectionStats:
    def test_memory_connection_keeps_legacy_keys(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True)
        stats = conn.stats()
        # Keys every connection has reported since before unification.
        assert stats["backend"] == "memory"
        assert "hits" in stats["plan_cache"]
        assert stats["catalog"]["generation"] == engine.catalog_generation
        assert "fingerprint" in stats["catalog"]
        # Unified additions.
        assert stats["schema"] == SNAPSHOT_SCHEMA
        assert "metrics" in stats and "tracing" in stats and "workload" in stats

    def test_sqlite_connection_reports_pool_and_catalog(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
        conn.execute("INSERT INTO R (a, b) VALUES (1, 'x')")
        stats = conn.stats()
        assert stats["backend"] == "sqlite"
        assert stats["pool"]["leased"] >= 1
        assert "persisted" in stats["catalog"]
        assert "recovery_seconds" in stats["catalog"]
        assert stats["schema"] == SNAPSHOT_SCHEMA

    def test_workload_key_mirrors_the_recorder(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True)
        conn.execute("SELECT a FROM R")
        conn.execute("INSERT INTO R (a, b) VALUES (1, 'x')")
        stats = conn.stats()
        assert stats["workload"]["reads"] == {"v1": 1}
        assert stats["workload"]["writes"] == {"v1": 1}


class TestPoolStats:
    def test_pool_keeps_legacy_keys_and_adds_lease_waits(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
        pool_stats = engine.live_backend.pool.stats()
        for key in ("database", "wal", "leased", "idle", "pool_size",
                    "max_sessions", "busy_timeout", "closed"):
            assert key in pool_stats, key
        assert pool_stats["lease_waits"]["count"] >= 1
        assert conn is not None


class TestServerSurfaces:
    @pytest.fixture
    def server(self):
        server = ReproServer(build_engine()).start()
        yield server
        server.close()

    def test_status_keeps_legacy_keys_and_serves_the_snapshot(self, server):
        host, port = server.address
        conn = connect_remote(host, port, "v1", autocommit=True)
        try:
            status = conn.server_status()
            # Server-status keys that predate the unified snapshot.
            for key in ("protocol", "clients", "versions", "page_size",
                        "plan_cache", "catalog"):
                assert key in status, key
            assert status["clients"] == 1
            # Unified snapshot riding along.
            assert status["schema"] == SNAPSHOT_SCHEMA
            assert "metrics" in status and "tracing" in status
        finally:
            conn.close()

    def test_remote_stats_matches_server_status_catalog(self, server):
        host, port = server.address
        conn = connect_remote(host, port, "v1", autocommit=True)
        try:
            stats = conn.stats()
            status = conn.server_status()
            assert stats["catalog"] == status["catalog"]
            assert stats["plan_cache"].keys() == status["plan_cache"].keys()
            assert stats["schema"] == SNAPSHOT_SCHEMA
            assert stats["client"]["tracing"]["enabled"] is False
        finally:
            conn.close()
