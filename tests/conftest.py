"""Shared fixtures: small TasKy scenarios in each materialization."""

from __future__ import annotations

import pytest

from repro.workloads.tasky import build_tasky

PAPER_ROWS = [
    ("Ann", "Organize party", 3),
    ("Ben", "Learn for exam", 2),
    ("Ann", "Write paper", 1),
    ("Ben", "Clean room", 1),
]


def build_paper_tasky():
    """The exact four-row database of Figure 1."""
    scenario = build_tasky(0)
    scenario.connect("TasKy").executemany(
        "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", PAPER_ROWS
    )
    return scenario


@pytest.fixture
def paper_tasky():
    return build_paper_tasky()


@pytest.fixture(params=["TasKy", "Do!", "TasKy2"])
def materialized_paper_tasky(request):
    scenario = build_paper_tasky()
    scenario.materialize(request.param)
    return scenario
