"""Table 3: BiDEL vs SQL code size (the timed unit is script generation)."""

from repro.bench.experiments.table3 import tasky_scripts
from repro.bench.harness import get_experiment
from repro.util.codemetrics import measure_code


def test_table3(benchmark, print_result):
    scripts = benchmark(tasky_scripts)
    bidel = measure_code(scripts.bidel_evolution)
    sql = measure_code(scripts.sql_evolution)
    # The SQL delta code must be substantially larger than the BiDEL script.
    assert sql.lines > 3 * bidel.lines
    assert sql.characters > 3 * bidel.characters
    print_result(get_experiment("table3").run())
