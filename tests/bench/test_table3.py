"""Table 3 sizes the delta code the live SQLite backend installs."""

from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend
from repro.bench.experiments.table3 import tasky_scripts
from repro.util.codemetrics import measure_code
from repro.workloads.tasky import build_tasky


class TestTaskyScripts:
    def test_tasky_scripts_table3_direction(self):
        scripts = tasky_scripts()
        bidel = measure_code(scripts.bidel_evolution)
        sql = measure_code(scripts.sql_evolution)
        assert sql.lines > bidel.lines
        assert sql.statements > bidel.statements
        assert sql.characters > bidel.characters

    def test_migration_script_nonempty(self):
        scripts = tasky_scripts()
        assert "INSERT INTO" in scripts.sql_migration
        assert "CREATE TRIGGER" in scripts.sql_migration
        assert measure_code(scripts.bidel_migration).lines == 1

    def test_evolution_sql_is_what_the_backend_installs(self):
        scenario = build_tasky(5)
        backend = LiveSqliteBackend.attach(scenario.engine)
        try:
            installed = {
                row[0]
                for row in backend.connection.execute(
                    "SELECT sql FROM sqlite_master WHERE type IN ('view', 'trigger')"
                )
            }
            generated = codegen.view_statements(scenario.engine) + codegen.trigger_statements(
                scenario.engine
            )
            measured = codegen.delta_code(scenario.engine)
        finally:
            backend.close()
        assert set(generated) == installed
        assert tasky_scripts().sql_evolution == measured
