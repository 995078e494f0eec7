"""Figure 8: generated vs handwritten delta code (timed unit: one read of
each schema version under the evolved materialization)."""

import pytest

from repro.bench.harness import get_experiment
from repro.workloads.handwritten import handwritten_tasky
from repro.workloads.tasky import build_tasky

N = 2000


@pytest.fixture(scope="module")
def evolved_scenario():
    scenario = build_tasky(N)
    scenario.materialize("TasKy2")
    return scenario


def test_fig8_read_tasky_generated(benchmark, evolved_scenario):
    cursor = evolved_scenario.connect("TasKy").cursor()
    rows = benchmark(lambda: cursor.execute("SELECT * FROM Task").fetchall())
    assert len(rows) == N


def test_fig8_read_tasky2_generated(benchmark, evolved_scenario):
    cursor = evolved_scenario.connect("TasKy2").cursor()
    rows = benchmark(lambda: cursor.execute("SELECT * FROM Task").fetchall())
    assert len(rows) == N


def test_fig8_read_tasky_handwritten(benchmark):
    baseline = handwritten_tasky(N, materialization="evolved")
    rows = benchmark(baseline.read_tasky)
    assert len(rows) == N


@pytest.fixture(scope="module")
def live_scenario():
    from repro.backend.sqlite import LiveSqliteBackend

    scenario = build_tasky(N)
    LiveSqliteBackend.attach(scenario.engine)
    scenario.materialize("TasKy2")
    return scenario


def test_fig8_read_tasky_sqlite_backend(benchmark, live_scenario):
    cursor = live_scenario.connect("TasKy").cursor()
    rows = benchmark(lambda: cursor.execute("SELECT * FROM Task").fetchall())
    assert len(rows) == N


def test_fig8_writes_sqlite_backend(benchmark, live_scenario):
    cursor = live_scenario.connect("TasKy").cursor()

    def insert_one():
        cursor.execute(
            "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
            ("Zed", "bench", 2),
        )

    benchmark(insert_one)


def test_fig8_writes_generated(benchmark, evolved_scenario):
    cursor = evolved_scenario.connect("TasKy").cursor()

    def insert_one():
        cursor.execute(
            "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
            ("Zed", "bench", 2),
        )

    benchmark(insert_one)


def test_fig8_rows(print_result):
    print_result(get_experiment("fig8").run(num_tasks=N, writes=20))
