"""Update-propagation rules in the style of the paper's Rules 52–54.

Given a mapping rule set and a changed extensional predicate, derive the
incremental rules that compute the induced insertions and deletions on each
derived predicate, with the minimality guards the paper describes ("the
additional conditions on the old literals ensure minimality by checking
whether the tuple already exists").

The derivation follows the classic delta-rule scheme specialised to the
SMO rule sets, all of which are key-guarded (every literal carries the
tuple identifier in its first argument, or is an auxiliary keyed by the
same identifier):

- insertion rule per body occurrence of the changed predicate:
  ``Δ+H ← Δ+Q, rest(new), ¬H(old)``
- deletion rule per body occurrence:
  ``Δ-H ← Δ-Q, rest(old), H(old), ¬H(new)``

The paper uses these rules to *generate trigger code* (Section 6). Here
they are not wired in yet: nothing in the library imports this module, and
the live backend's triggers are still hand-written per SMO (ROADMAP item 4
tracks deriving them from the rules). The engine's fast-path propagation
implements the same semantics natively per SMO and is cross-checked against
full re-evaluation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog.ast import Atom, Literal, Rule, RuleSet

INSERT_PREFIX = "delta_plus__"
DELETE_PREFIX = "delta_minus__"
NEW_SUFFIX = "__new"
OLD_SUFFIX = "__old"


def insert_delta_name(pred: str) -> str:
    return INSERT_PREFIX + pred


def delete_delta_name(pred: str) -> str:
    return DELETE_PREFIX + pred


@dataclass(frozen=True)
class DeltaRules:
    """Incremental rules for one derived predicate w.r.t. one changed
    extensional predicate."""

    changed: str
    derived: str
    insert_rules: tuple[Rule, ...]
    delete_rules: tuple[Rule, ...]


def _retag(literal: Literal, *, suffix: str, skip: str) -> Literal:
    """Tag relational literals with the old/new state they refer to."""
    if isinstance(literal, Atom) and literal.pred != skip:
        return Atom(literal.pred + suffix, literal.terms, literal.positive)
    return literal


def derive_delta_rules(rules: RuleSet, changed: str) -> list[DeltaRules]:
    """Derive insert/delete propagation rules for every rule whose body
    references ``changed``."""
    grouped: dict[str, tuple[list[Rule], list[Rule]]] = {}
    for rule in rules:
        occurrences = [
            index
            for index, literal in enumerate(rule.body)
            if isinstance(literal, Atom) and literal.pred == changed and literal.positive
        ]
        if not occurrences:
            continue
        inserts, deletes = grouped.setdefault(rule.head.pred, ([], []))
        for index in occurrences:
            body = list(rule.body)
            atom = body[index]
            assert isinstance(atom, Atom)

            insert_body: list[Literal] = [
                Atom(insert_delta_name(changed), atom.terms, True)
            ]
            insert_body.extend(
                _retag(literal, suffix=NEW_SUFFIX, skip=changed)
                for pos, literal in enumerate(body)
                if pos != index
            )
            insert_body.append(
                Atom(rule.head.pred + OLD_SUFFIX, rule.head.terms, False)
            )
            inserts.append(
                Rule(Atom(insert_delta_name(rule.head.pred), rule.head.terms), tuple(insert_body))
            )

            delete_body: list[Literal] = [
                Atom(delete_delta_name(changed), atom.terms, True)
            ]
            delete_body.extend(
                _retag(literal, suffix=OLD_SUFFIX, skip=changed)
                for pos, literal in enumerate(body)
                if pos != index
            )
            delete_body.append(Atom(rule.head.pred + OLD_SUFFIX, rule.head.terms, True))
            delete_body.append(Atom(rule.head.pred + NEW_SUFFIX, rule.head.terms, False))
            deletes.append(
                Rule(Atom(delete_delta_name(rule.head.pred), rule.head.terms), tuple(delete_body))
            )
    return [
        DeltaRules(changed, derived, tuple(inserts), tuple(deletes))
        for derived, (inserts, deletes) in grouped.items()
    ]
