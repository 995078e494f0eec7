import pytest

import repro
from repro.errors import ReproError
from repro.workloads.micro import (
    TWO_SMO_FIRST,
    TWO_SMO_SECOND,
    V3_READ_TABLE,
    build_two_smo_scenario,
)
from repro.workloads.mixes import PAPER_MIX, WorkloadMix, adoption_curve
from repro.workloads.tasky import build_tasky
from repro.workloads.wikimedia import TABLE4_HISTOGRAM, build_wikimedia


class TestTaskyScenario:
    def test_row_count(self):
        scenario = build_tasky(100)
        rows = scenario.connect("TasKy").execute("SELECT task FROM Task")
        assert len(rows.fetchall()) == 100

    def test_deterministic_given_seed(self):
        read = "SELECT * FROM Task ORDER BY task"
        a = build_tasky(20, seed=7).connect("TasKy").execute(read).fetchall()
        b = build_tasky(20, seed=7).connect("TasKy").execute(read).fetchall()
        assert a == b

    def test_without_branches(self):
        scenario = build_tasky(5, with_do=False, with_tasky2=False)
        assert scenario.engine.version_names() == ["TasKy"]


class TestMixes:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadMix(0.5, 0.5, 0.5, 0.5)

    def test_paper_mix(self):
        assert PAPER_MIX.reads == 0.5
        assert PAPER_MIX.deletes == 0.1

    def test_adoption_curve_shape(self):
        curve = adoption_curve(11)
        assert curve[0] < 0.05
        assert curve[-1] > 0.95
        assert curve == sorted(curve)  # monotone


class TestTwoSmoScenarios:
    @pytest.mark.parametrize("first", sorted(TWO_SMO_FIRST))
    def test_v2_always_contains_r_abc(self, first):
        engine = build_two_smo_scenario(first, "add_column", rows=30)
        cursor = repro.connect(engine, "v2", autocommit=True).execute("SELECT * FROM R")
        assert tuple(d[0] for d in cursor.description) == ("a", "b", "c")

    @pytest.mark.parametrize("second", sorted(TWO_SMO_SECOND))
    def test_v3_readable_under_all_materializations(self, second):
        engine = build_two_smo_scenario("split", second, rows=30)
        table = V3_READ_TABLE[second]
        v3 = repro.connect(engine, "v3", autocommit=True)
        keys = f"SELECT rowid FROM {table} ORDER BY rowid"
        rows = f"SELECT * FROM {table} ORDER BY rowid"
        baseline = (v3.execute(keys).fetchall(), v3.execute(rows).fetchall())
        for target in ("v2", "v3", "v1"):
            engine.execute(f"MATERIALIZE '{target}';")
            current = (v3.execute(keys).fetchall(), v3.execute(rows).fetchall())
            assert current == baseline, target

    def test_unknown_names_rejected(self):
        with pytest.raises(ReproError):
            build_two_smo_scenario("nope", "add_column")
        with pytest.raises(ReproError):
            build_two_smo_scenario("split", "nope")


class TestWikimediaScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_wikimedia(scale=0.001, versions=171)

    def test_exact_histogram(self, scenario):
        assert scenario.smo_histogram() == TABLE4_HISTOGRAM

    def test_171_versions(self, scenario):
        assert len(scenario.version_names) == 171

    def test_core_tables_survive(self, scenario):
        first = repro.connect(scenario.engine, "v001", autocommit=True)
        last = repro.connect(scenario.engine, scenario.version_at(171), autocommit=True)
        for table in ("page", "links"):
            read = f"SELECT * FROM {table}"
            assert len(first.execute(read).fetchall()) == len(last.execute(read).fetchall())

    def test_write_at_late_version_visible_early(self, scenario):
        late = repro.connect(scenario.engine, scenario.version_at(100), autocommit=True)
        columns = [d[0] for d in late.execute("SELECT * FROM page").description]
        values = ["RoundTrip" if name == "title" else 1 for name in columns]
        late.execute(
            f"INSERT INTO page({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})",
            values,
        )
        early = repro.connect(scenario.engine, "v001", autocommit=True)
        rows = early.execute("SELECT * FROM page WHERE title = 'RoundTrip'")
        assert len(rows.fetchall()) == 1

    def test_deterministic(self):
        a = build_wikimedia(scale=0.001, versions=30, seed=5)
        b = build_wikimedia(scale=0.001, versions=30, seed=5)
        assert a.plan == b.plan
