"""Table 3: code-size ratio between SQL delta code and BiDEL scripts."""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend import codegen
from repro.bench.harness import Experiment, ExperimentResult, register
from repro.core.engine import InVerDa
from repro.util.codemetrics import measure_code
from repro.workloads.handwritten import (
    HANDWRITTEN_TASKY_INITIAL_SQL,
    handwritten_migration_sql,
)
from repro.workloads.tasky import (
    DO_SCRIPT,
    MIGRATION_SCRIPT,
    TASKY2_SCRIPT,
    TASKY_INITIAL_SCRIPT,
)


@dataclass
class TaskyScripts:
    """The three artifacts Table 3 measures, in both languages."""

    bidel_initial: str
    bidel_evolution: str
    bidel_migration: str
    sql_initial: str
    sql_evolution: str
    sql_migration: str


def tasky_scripts() -> TaskyScripts:
    """TasKy's BiDEL scripts next to the SQL they stand for.

    The evolution SQL is the delta code the live SQLite backend installs
    once Do! and TasKy2 co-exist with TasKy; the migration SQL moves the
    data by hand and then reinstalls the delta code the backend generates
    under the TasKy2 materialization."""
    engine = InVerDa()
    for script in (TASKY_INITIAL_SCRIPT, DO_SCRIPT, TASKY2_SCRIPT):
        engine.execute(script)
    evolution_sql = codegen.delta_code(engine)
    engine.execute(MIGRATION_SCRIPT)
    return TaskyScripts(
        bidel_initial=TASKY_INITIAL_SCRIPT.strip() + "\n",
        bidel_evolution=DO_SCRIPT.strip() + "\n" + TASKY2_SCRIPT.strip() + "\n",
        bidel_migration=MIGRATION_SCRIPT,
        sql_initial=HANDWRITTEN_TASKY_INITIAL_SQL,
        sql_evolution=evolution_sql,
        sql_migration=handwritten_migration_sql(engine),
    )


def run() -> ExperimentResult:
    scripts = tasky_scripts()
    result = ExperimentResult(
        experiment="table3",
        title="Table 3: SQL vs BiDEL code size for TasKy",
        columns=("artifact", "language", "lines", "statements", "characters", "ratio(lines)"),
    )
    pairs = [
        ("initially", scripts.bidel_initial, scripts.sql_initial),
        ("evolution", scripts.bidel_evolution, scripts.sql_evolution),
        ("migration", scripts.bidel_migration, scripts.sql_migration),
    ]
    for artifact, bidel_code, sql_code in pairs:
        bidel = measure_code(bidel_code)
        sql = measure_code(sql_code)
        ratio = sql.ratio_to(bidel)
        result.add(artifact, "BiDEL", bidel.lines, bidel.statements, bidel.characters, 1.0)
        result.add(artifact, "SQL", sql.lines, sql.statements, sql.characters, ratio.lines)
    result.note(
        "paper ratios: evolution x119.67 LoC, migration x182.00 LoC; the SQL "
        "column here is the delta code the live SQLite backend installs "
        "(what a developer would otherwise write), plus the hand-written "
        "data move for the migration; the direction matches the paper"
    )
    return result


register(
    Experiment(
        name="table3",
        title="SQL vs BiDEL code size",
        paper_artifact="Table 3",
        runner=run,
    )
)
