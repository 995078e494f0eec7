"""The hand-optimized TasKy baseline (Fig. 8) agrees with the engine."""

from repro.workloads.handwritten import handwritten_tasky
from repro.workloads.tasky import build_tasky


class TestHandwrittenBaseline:
    def test_matches_engine_reads(self):
        scenario = build_tasky(50)
        baseline = handwritten_tasky(50, materialization="initial")
        engine_tasks = sorted(
            scenario.connect("TasKy").execute("SELECT author, task, prio FROM Task")
        )
        assert sorted(baseline.read_tasky()) == engine_tasks
        engine_do = sorted(
            scenario.connect("Do!").execute("SELECT author, task FROM Todo")
        )
        assert sorted(baseline.read_do()) == engine_do

    def test_migration_preserves_reads(self):
        baseline = handwritten_tasky(30, materialization="initial")
        before = sorted(baseline.read_tasky())
        baseline.migrate_to_evolved()
        assert sorted(baseline.read_tasky()) == before
        baseline.migrate_to_initial()
        assert sorted(baseline.read_tasky()) == before
