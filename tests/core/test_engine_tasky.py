"""Integration tests: the full TasKy lifecycle of Section 2 / Figure 1."""

import pytest

from repro.errors import (
    CatalogError,
    EvolutionError,
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from tests.conftest import PAPER_ROWS


def tasks_in(connection, table="Task"):
    return sorted(task for (task,) in connection.execute(f"SELECT task FROM {table}"))


class TestEvolution:
    def test_versions_exist(self, paper_tasky):
        # Creation order (TasKy first, then Do! and TasKy2 derived from
        # it) — version_names() is genealogy-ordered, not name-sorted.
        assert paper_tasky.engine.version_names() == ["TasKy", "Do!", "TasKy2"]

    def test_do_schema(self, paper_tasky):
        cursor = paper_tasky.connect("Do!").execute("SELECT * FROM Todo")
        assert tuple(d[0] for d in cursor.description) == ("author", "task")

    def test_tasky2_schema(self, paper_tasky):
        tasky2 = paper_tasky.connect("TasKy2")
        task = tasky2.execute("SELECT * FROM Task").description
        assert tuple(d[0] for d in task) == ("task", "prio", "author")
        author = tasky2.execute("SELECT * FROM Author").description
        assert tuple(d[0] for d in author) == ("id", "name")

    def test_figure1_do_contents(self, paper_tasky):
        rows = paper_tasky.connect("Do!").execute(
            "SELECT author, task FROM Todo ORDER BY task"
        ).fetchall()
        assert rows == [("Ben", "Clean room"), ("Ann", "Write paper")]

    def test_figure1_tasky2_contents(self, paper_tasky):
        tasky2 = paper_tasky.connect("TasKy2")
        authors = tasky2.execute("SELECT id, name FROM Author ORDER BY name").fetchall()
        assert [name for _id, name in authors] == ["Ann", "Ben"]
        by_id = dict(authors)
        tasks = tasky2.execute("SELECT task, author FROM Task ORDER BY task").fetchall()
        assert [(task, by_id[author]) for task, author in tasks] == [
            ("Clean room", "Ben"),
            ("Learn for exam", "Ben"),
            ("Organize party", "Ann"),
            ("Write paper", "Ann"),
        ]

    def test_unknown_source_version(self, paper_tasky):
        with pytest.raises(CatalogError):
            paper_tasky.engine.execute(
                "CREATE SCHEMA VERSION X FROM Nope WITH DROP TABLE Task;"
            )

    def test_unknown_source_table(self, paper_tasky):
        with pytest.raises(EvolutionError):
            paper_tasky.engine.execute(
                "CREATE SCHEMA VERSION X FROM TasKy WITH DROP TABLE Nope;"
            )

    def test_duplicate_version_name(self, paper_tasky):
        with pytest.raises(CatalogError):
            paper_tasky.engine.execute(
                "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE T(a);"
            )


class TestCoExistingWrites:
    """Writes in any version are visible in all other versions."""

    def test_insert_via_tasky_everywhere(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        tasky = scenario.connect("TasKy")
        tasky.execute(
            "INSERT INTO Task(author, task, prio) VALUES ('Cara', 'New urgent', 1)"
        )
        assert "New urgent" in tasks_in(tasky)
        assert "New urgent" in tasks_in(scenario.connect("Do!"), "Todo")
        assert "New urgent" in tasks_in(scenario.connect("TasKy2"))

    def test_insert_via_do_defaults_prio(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("Do!").execute(
            "INSERT INTO Todo(author, task) VALUES ('Ann', 'Via phone')"
        )
        row = scenario.connect("TasKy").execute(
            "SELECT prio FROM Task WHERE task = 'Via phone'"
        ).fetchone()
        assert row == (1,)  # DROP COLUMN ... DEFAULT 1

    def test_insert_via_do_reuses_author(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("Do!").execute(
            "INSERT INTO Todo(author, task) VALUES ('Ann', 'Via phone')"
        )
        authors = scenario.connect("TasKy2").execute("SELECT id FROM Author")
        assert len(authors.fetchall()) == 2

    def test_insert_via_tasky2(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        tasky2 = scenario.connect("TasKy2")
        (ann,) = tasky2.execute("SELECT id FROM Author WHERE name = 'Ann'").fetchone()
        tasky2.execute(
            "INSERT INTO Task(task, prio, author) VALUES ('From v2', 1, ?)", (ann,)
        )
        row = scenario.connect("TasKy").execute(
            "SELECT author FROM Task WHERE task = 'From v2'"
        ).fetchone()
        assert row == ("Ann",)
        assert "From v2" in tasks_in(scenario.connect("Do!"), "Todo")

    def test_update_via_tasky2_prio_moves_into_do(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        changed = scenario.connect("TasKy2").execute(
            "UPDATE Task SET prio = 1 WHERE task = 'Learn for exam'"
        ).rowcount
        assert changed == 1
        assert "Learn for exam" in tasks_in(scenario.connect("Do!"), "Todo")

    def test_update_via_tasky_prio_leaves_do(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("TasKy").execute(
            "UPDATE Task SET prio = 3 WHERE task = 'Clean room'"
        )
        assert "Clean room" not in tasks_in(scenario.connect("Do!"), "Todo")

    def test_delete_via_do(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        deleted = scenario.connect("Do!").execute(
            "DELETE FROM Todo WHERE task = 'Write paper'"
        ).rowcount
        assert deleted == 1
        assert "Write paper" not in tasks_in(scenario.connect("TasKy"))
        assert "Write paper" not in tasks_in(scenario.connect("TasKy2"))

    def test_delete_all_tasks_of_author_removes_author(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("TasKy").execute("DELETE FROM Task WHERE author = 'Ben'")
        names = scenario.connect("TasKy2").execute("SELECT name FROM Author").fetchall()
        assert names == [("Ann",)]

    def test_rename_column_view(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("TasKy2").execute(
            "UPDATE Author SET name = 'Annette' WHERE name = 'Ann'"
        )
        authors = scenario.connect("TasKy").execute("SELECT author FROM Task")
        assert ("Annette",) in authors.fetchall()


KEYED_READS = {
    "TasKy": ("TasKy", "SELECT rowid, author, task, prio FROM Task ORDER BY rowid"),
    "Do!": ("Do!", "SELECT rowid, author, task FROM Todo ORDER BY rowid"),
    "TasKy2.Task": ("TasKy2", "SELECT rowid, task, prio, author FROM Task ORDER BY rowid"),
    "TasKy2.Author": ("TasKy2", "SELECT rowid, id, name FROM Author ORDER BY rowid"),
}


class TestMigration:
    def test_all_versions_stable_across_all_materializations(self, paper_tasky):
        scenario = paper_tasky
        before = {
            name: scenario.connect(version).execute(sql).fetchall()
            for name, (version, sql) in KEYED_READS.items()
        }
        for target in ["TasKy2", "Do!", "TasKy", "TasKy2", "TasKy"]:
            scenario.materialize(target)
            for name, (version, sql) in KEYED_READS.items():
                rows = scenario.connect(version).execute(sql).fetchall()
                assert rows == before[name], (target, name)

    def test_physical_tables_change(self, paper_tasky):
        scenario = paper_tasky
        initial = set(scenario.engine.physical_tables())
        scenario.materialize("TasKy2")
        evolved = set(scenario.engine.physical_tables())
        assert initial != evolved

    def test_materialize_single_table_versions(self, paper_tasky):
        scenario = paper_tasky
        scenario.engine.execute("MATERIALIZE 'TasKy2.Task', 'TasKy2.Author';")
        kinds = {
            smo.smo_type for smo in scenario.engine.current_materialization()
        }
        assert kinds == {"Decompose", "RenameColumn"}

    def test_invalid_materialization_rejected(self, paper_tasky):
        from repro.errors import MaterializationError

        with pytest.raises(MaterializationError):
            paper_tasky.engine.execute("MATERIALIZE 'Do!', 'TasKy2';")


class TestDropSchemaVersion:
    def test_dropped_version_unreachable(self, paper_tasky):
        paper_tasky.engine.execute("DROP SCHEMA VERSION Do!;")
        with pytest.raises(InterfaceError):
            paper_tasky.connect("Do!")

    def test_data_survives_for_other_versions(self, paper_tasky):
        paper_tasky.engine.execute("DROP SCHEMA VERSION Do!;")
        for version in ("TasKy", "TasKy2"):
            rows = paper_tasky.connect(version).execute("SELECT task FROM Task")
            assert len(rows.fetchall()) == len(PAPER_ROWS)


class TestAccessApi:
    def test_select_projection_and_order(self, paper_tasky):
        cursor = paper_tasky.connect("TasKy").execute(
            "SELECT task FROM Task ORDER BY task"
        )
        assert cursor.fetchone() == ("Clean room",)

    def test_select_with_string_predicate(self, paper_tasky):
        rows = paper_tasky.connect("TasKy").execute(
            "SELECT task FROM Task WHERE prio = 1"
        )
        assert len(rows.fetchall()) == 2

    def test_select_with_callable_predicate(self, paper_tasky):
        rows = paper_tasky.connect("TasKy").execute(
            "SELECT task FROM Task WHERE prio > ?", (1,)
        )
        assert len(rows.fetchall()) == 2

    def test_unknown_table(self, paper_tasky):
        with pytest.raises(ProgrammingError):
            paper_tasky.connect("TasKy").execute("SELECT * FROM Nope")

    def test_id_column_not_updatable(self, paper_tasky):
        with pytest.raises(OperationalError):
            paper_tasky.connect("TasKy2").execute("UPDATE Author SET id = 99")

    def test_update_by_key_missing(self, paper_tasky):
        cursor = paper_tasky.connect("TasKy").execute(
            "UPDATE Task SET prio = 1 WHERE rowid = 424242"
        )
        assert cursor.rowcount == 0

    def test_insert_returns_key(self, paper_tasky):
        tasky = paper_tasky.connect("TasKy")
        key = tasky.execute(
            "INSERT INTO Task(author, task, prio) VALUES ('X', 't', 5)"
        ).lastrowid
        assert (key,) in tasky.execute("SELECT rowid FROM Task").fetchall()

    def test_transaction_rollback(self, paper_tasky):
        conn = paper_tasky.connect("TasKy", autocommit=False)
        read = KEYED_READS["TasKy"][1]
        before = conn.execute(read).fetchall()
        with pytest.raises(RuntimeError):
            with conn:
                conn.execute(
                    "INSERT INTO Task(author, task, prio) VALUES ('X', 'tmp', 1)"
                )
                raise RuntimeError("abort")
        assert conn.execute(read).fetchall() == before

    def test_transaction_commit(self, paper_tasky):
        with paper_tasky.connect("TasKy", autocommit=False) as conn:
            conn.execute("INSERT INTO Task(author, task, prio) VALUES ('X', 'kept', 1)")
        kept = paper_tasky.connect("TasKy").execute(
            "SELECT task FROM Task WHERE task = 'kept'"
        )
        assert len(kept.fetchall()) == 1
