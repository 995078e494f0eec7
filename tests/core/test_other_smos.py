"""Engine-level coverage of SMO families outside the TasKy scenario."""

import pytest

import repro
from repro.core.engine import InVerDa


def engine_with(script: str) -> InVerDa:
    engine = InVerDa()
    engine.execute(script)
    return engine


def connect(engine: InVerDa, version: str):
    return repro.connect(engine, version, autocommit=True)


class TestMergeVersions:
    @pytest.fixture
    def engine(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH "
            "CREATE TABLE Urgent(title TEXT, prio INTEGER); "
            "CREATE TABLE Later(title TEXT, prio INTEGER);"
        )
        v1 = connect(engine, "v1")
        v1.execute("INSERT INTO Urgent(title, prio) VALUES ('now', 1)")
        v1.execute("INSERT INTO Later(title, prio) VALUES ('someday', 9)")
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "MERGE TABLE Urgent (prio <= 3), Later (prio > 3) INTO All_;"
        )
        return engine

    def test_merge_unions_rows(self, engine):
        titles = connect(engine, "v2").execute("SELECT title FROM All_ ORDER BY title")
        assert titles.fetchall() == [("now",), ("someday",)]

    def test_insert_into_merged_routes_by_condition(self, engine):
        connect(engine, "v2").execute("INSERT INTO All_(title, prio) VALUES ('fresh', 2)")
        v1 = connect(engine, "v1")
        assert len(v1.execute("SELECT * FROM Urgent WHERE title = 'fresh'").fetchall()) == 1
        assert v1.execute("SELECT * FROM Later WHERE title = 'fresh'").fetchall() == []

    def test_insert_matching_neither_condition_survives(self, engine):
        v2 = connect(engine, "v2")
        v2.execute("INSERT INTO All_(title, prio) VALUES ('nullprio', NULL)")
        # Visible in v2 (stored in the source-side Uprime aux), invisible in v1.
        assert len(v2.execute("SELECT * FROM All_ WHERE title = 'nullprio'").fetchall()) == 1
        v1 = connect(engine, "v1")
        assert v1.execute("SELECT * FROM Urgent WHERE title = 'nullprio'").fetchall() == []
        assert v1.execute("SELECT * FROM Later WHERE title = 'nullprio'").fetchall() == []

    def test_materialize_merged_version(self, engine):
        keyed = "SELECT rowid, title, prio FROM All_ ORDER BY rowid"
        before = connect(engine, "v2").execute(keyed).fetchall()
        engine.execute("MATERIALIZE 'v2';")
        assert connect(engine, "v2").execute(keyed).fetchall() == before
        assert len(connect(engine, "v1").execute("SELECT * FROM Urgent").fetchall()) == 1


class TestJoinPkVersions:
    @pytest.fixture
    def engine(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH "
            "CREATE TABLE Person(name TEXT); CREATE TABLE Address(city TEXT);"
        )
        v1 = connect(engine, "v1")
        key = v1.execute("INSERT INTO Person(name) VALUES ('Ann')").lastrowid
        from repro.bidel.smo.base import TableChange

        tv = engine.genealogy.schema_version("v1").table_version("Address")
        engine.apply_change(
            tv, TableChange(upserts={key: tv.schema.row_from_mapping({"city": "Dresden"})})
        )
        v1.execute("INSERT INTO Person(name) VALUES ('Solo')")  # no address partner
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH JOIN TABLE Person, Address INTO Resident ON PK;"
        )
        return engine

    def test_inner_join_rows(self, engine):
        rows = connect(engine, "v2").execute("SELECT name, city FROM Resident").fetchall()
        assert rows == [("Ann", "Dresden")]

    def test_unmatched_row_survives_migration(self, engine):
        engine.execute("MATERIALIZE 'v2';")
        names = connect(engine, "v1").execute("SELECT name FROM Person ORDER BY name")
        assert names.fetchall() == [("Ann",), ("Solo",)]

    def test_write_through_join(self, engine):
        engine.execute("MATERIALIZE 'v2';")
        connect(engine, "v2").execute(
            "INSERT INTO Resident(name, city) VALUES ('Ben', 'Bonn')"
        )
        v1 = connect(engine, "v1")
        assert len(v1.execute("SELECT * FROM Person WHERE name = 'Ben'").fetchall()) == 1
        assert len(v1.execute("SELECT * FROM Address WHERE city = 'Bonn'").fetchall()) == 1


class TestDecomposeOuterJoinPk:
    def test_round_trip_through_versions(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Wide(a TEXT, b TEXT);"
        )
        connect(engine, "v1").execute("INSERT INTO Wide(a, b) VALUES ('x', 'y')")
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE Wide INTO L(a), R(b) ON PK;"
        )
        engine.execute(
            "CREATE SCHEMA VERSION v3 FROM v2 WITH OUTER JOIN TABLE L, R INTO Wide2 ON PK;"
        )
        rows = connect(engine, "v3").execute("SELECT * FROM Wide2").fetchall()
        assert rows == [("x", "y")]

    def test_partial_row_outer_join_null_fill(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Wide(a TEXT, b TEXT);"
        )
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE Wide INTO L(a), R(b) ON PK;"
        )
        connect(engine, "v2").execute("INSERT INTO L(a) VALUES ('only-left')")
        rows = connect(engine, "v1").execute("SELECT a, b FROM Wide WHERE a = 'only-left'")
        assert rows.fetchall() == [("only-left", None)]


class TestDropTable:
    def test_dropped_table_invisible_in_new_version(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Keep(a TEXT); CREATE TABLE Gone(b TEXT);"
        )
        connect(engine, "v1").execute("INSERT INTO Gone(b) VALUES ('precious')")
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH DROP TABLE Gone;")
        assert engine.genealogy.schema_version("v2").table_names() == ["Keep"]
        assert len(connect(engine, "v1").execute("SELECT * FROM Gone").fetchall()) == 1

    def test_data_survives_materializing_the_dropping_version(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Keep(a TEXT); CREATE TABLE Gone(b TEXT);"
        )
        v1 = connect(engine, "v1")
        v1.execute("INSERT INTO Gone(b) VALUES ('precious')")
        v1.execute("INSERT INTO Keep(a) VALUES ('also')")
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH DROP TABLE Gone;")
        engine.execute("MATERIALIZE 'v2';")
        # The retired rows moved into the DROP TABLE aux; v1 still sees them.
        assert v1.execute("SELECT b FROM Gone").fetchall() == [("precious",)]
        v1.execute("INSERT INTO Gone(b) VALUES ('more')")
        assert len(v1.execute("SELECT b FROM Gone").fetchall()) == 2


class TestConditionalSmos:
    def test_decompose_on_condition(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Pair(x INTEGER, y INTEGER);"
        )
        connect(engine, "v1").executemany(
            "INSERT INTO Pair(x, y) VALUES (?, ?)", [(1, 1), (2, 2)]
        )
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE Pair INTO Xs(x), Ys(y) ON x = y;"
        )
        v2 = connect(engine, "v2")
        assert v2.execute("SELECT x FROM Xs ORDER BY x").fetchall() == [(1,), (2,)]
        assert v2.execute("SELECT y FROM Ys ORDER BY y").fetchall() == [(1,), (2,)]
        # Generated ids are exposed and stable across reads.
        first = v2.execute("SELECT * FROM Xs ORDER BY id").fetchall()
        second = v2.execute("SELECT * FROM Xs ORDER BY id").fetchall()
        assert first == second

    def test_rename_table_version(self):
        engine = engine_with("CREATE SCHEMA VERSION v1 WITH CREATE TABLE Old(a TEXT);")
        connect(engine, "v1").execute("INSERT INTO Old(a) VALUES ('kept')")
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME TABLE Old INTO New;")
        v2 = connect(engine, "v2")
        assert v2.execute("SELECT a FROM New").fetchall() == [("kept",)]
        v2.execute("INSERT INTO New(a) VALUES ('back')")
        assert len(connect(engine, "v1").execute("SELECT a FROM Old").fetchall()) == 2


class TestLongChains:
    def test_five_add_columns(self):
        engine = engine_with("CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(base INTEGER);")
        connect(engine, "v1").execute("INSERT INTO T(base) VALUES (10)")
        for index in range(5):
            engine.execute(
                f"CREATE SCHEMA VERSION v{index + 2} FROM v{index + 1} WITH "
                f"ADD COLUMN c{index} AS base + {index} INTO T;"
            )
        last = connect(engine, "v6")
        cursor = last.execute("SELECT * FROM T")
        row = dict(zip((d[0] for d in cursor.description), cursor.fetchone()))
        assert row == {"base": 10, "c0": 10, "c1": 11, "c2": 12, "c3": 13, "c4": 14}
        # Write at the far end; read at the origin.
        last.execute(
            "INSERT INTO T(base, c0, c1, c2, c3, c4) VALUES (1, 0, 0, 0, 0, 0)"
        )
        assert len(connect(engine, "v1").execute("SELECT * FROM T").fetchall()) == 2
        # Materialize the middle and re-check both ends.
        engine.execute("MATERIALIZE 'v4';")
        assert len(connect(engine, "v1").execute("SELECT * FROM T").fetchall()) == 2
        assert len(last.execute("SELECT * FROM T").fetchall()) == 2
