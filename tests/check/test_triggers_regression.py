"""Regression: the trigger condition renderer must rewrite column
references on the expression AST, never by substring replacement.

A textual pass corrupts conditions two ways: a column name inside a
longer identifier (``id`` in ``uid`` → ``uNEW.id``), and a column name
inside a string literal.  The live generator renders every trigger and
view expression through :func:`repro.backend.emit.render_expression`,
which renames :class:`~repro.expr.ast.Column` nodes only.  The
verifier's RPC102 pass is the safety net that would catch corrupted
output (tests/check/test_delta_verifier.py::test_unknown_qualifier_rpc102).
"""

from __future__ import annotations

from repro.backend.emit import new_refs, render_expression
from repro.expr.parser import parse_expression


def render(expression: str, columns: list[str], row_var: str = "NEW") -> str:
    return render_expression(parse_expression(expression), new_refs(columns, row=row_var))


class TestTokenWiseRewrite:
    def test_substring_column_not_corrupted(self):
        assert render("uid > id", ["id", "uid"]) == "(NEW.uid > NEW.id)"

    def test_order_of_columns_is_irrelevant(self):
        assert render("uid > id", ["uid", "id"]) == "(NEW.uid > NEW.id)"

    def test_prefix_column_pair(self):
        assert render("a + ab", ["a", "ab"], "OLD") == "(OLD.a + OLD.ab)"

    def test_string_literal_untouched(self):
        assert render("name = 'id'", ["name", "id"]) == "(NEW.name = 'id')"

    def test_negated_condition(self):
        assert render("NOT (v >= 10)", ["v"]) == "NOT ((NEW.v >= 10))"

    def test_no_columns(self):
        assert render("1 = 1", []) == "(1 = 1)"

    def test_column_used_twice(self):
        assert render("a = a", ["a"]) == "(NEW.a = NEW.a)"
