"""Generated delta code: structure, and row-parity on a real SQL engine.

The views and INSTEAD OF triggers come from :mod:`repro.backend.codegen`,
the statements ``LiveSqliteBackend.regenerate()`` installs."""

import pytest

from repro.backend import codegen
from repro.backend.compare import visible_state
from repro.backend.sqlite import LiveSqliteBackend
from repro.workloads.micro import build_two_smo_scenario
from tests.conftest import build_paper_tasky


@pytest.fixture(scope="module")
def scenario():
    return build_paper_tasky()


def _assert_parity(engine, keys, label):
    """SQLite's generated views return exactly the engine's rows."""
    backend = LiveSqliteBackend.attach(engine)
    try:
        sqlite_state = visible_state(engine, backend)
        engine_state = visible_state(engine)
        for key in keys:
            assert sqlite_state[key] == engine_state[key], (label, key)
    finally:
        backend.close()


class TestGeneratedScripts:
    def test_delta_code_has_view_per_derived_table(self, scenario):
        views = codegen.view_statements(scenario.engine)
        assert len(views) >= len(visible_state(scenario.engine))
        assert all("CREATE VIEW" in view for view in views)

    def test_delta_code_has_triggers(self, scenario):
        triggers = codegen.trigger_statements(scenario.engine)
        assert any("CREATE TRIGGER" in trigger for trigger in triggers)
        assert any("INSTEAD OF" in trigger for trigger in triggers)


class TestSqliteParity:
    """The generated views return exactly the engine's rows on SQLite."""

    @pytest.mark.parametrize(
        "version,table",
        [("TasKy", "Task"), ("Do!", "Todo"), ("TasKy2", "Task"), ("TasKy2", "Author")],
    )
    def test_initial_materialization(self, version, table):
        _assert_parity(build_paper_tasky().engine, [(version, table)], "initial")

    @pytest.mark.parametrize("materialize", ["Do!", "TasKy2"])
    def test_other_materializations(self, materialize):
        scenario = build_paper_tasky()
        scenario.materialize(materialize)
        keys = [("TasKy", "Task"), ("Do!", "Todo"), ("TasKy2", "Task")]
        _assert_parity(scenario.engine, keys, f"under {materialize}")

    def test_two_smo_chain_parity(self):
        engine = build_two_smo_scenario("split", "add_column", rows=60)
        _assert_parity(engine, [("v3", "R")], "split+add_column")
