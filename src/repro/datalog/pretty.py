"""Pretty-printing of rule sets.

Used by ``examples/formal_verification.py`` to print a derivation in the
style of Section 5 of the paper, and by the verification report.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.datalog.ast import Rule, RuleSet
from repro.datalog.symbolic import SRule


def format_symbolic_rules(rules: Iterable[SRule], *, title: str | None = None) -> str:
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    for rule in rules:
        lines.append(f"  {rule}")
    return "\n".join(lines)


def format_runtime_rules(rules: RuleSet | Iterable[Rule], *, title: str | None = None) -> str:
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    iterable = rules.rules if isinstance(rules, RuleSet) else rules
    for rule in iterable:
        lines.append(f"  {rule}")
    return "\n".join(lines)

