"""Dependency rules: a small text DSL plus confidence measurement.

A rule is a functional dependency, optionally restricted by constant
equality conditions::

    f1: Arena -> Location, Capacity
    f4: Arena -> Team @ 0.8
    f6: [Coach=A.Hannum], Start-End -> Team

One rule per line, ``#`` starts a comment, a rule has at most one condition
block, and attribute names (and condition literals) may be double-quoted to
hold spaces, ``,``, ``#``, ``@``, ``->`` or brackets.  The optional ``@``
clause declares a confidence in (0, 1] that overrides measurement.

Confidence is measured per (rule, RHS attribute) edge as the plurality
ratio: restrict to tuples that satisfy the condition and are complete on
condition + LHS + that RHS attribute, group them by LHS values, and count
the largest consistent subset per group.  The tuples are tallied once per
distinct (LHS, RHS) value combination, so each group's counts come from its
combinations, not from its rows one by one.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .tabular import MISSING, Table, read_text

log = logging.getLogger(__name__)


class RuleParseError(ValueError):
    """Syntax or validity error in the rule DSL, with a line number."""


class RuleError(ValueError):
    """A rule cannot be applied to the given table."""


@dataclass(frozen=True)
class Rule:
    """One dependency: ``condition, lhs -> rhs`` with an optional declared confidence."""

    id: str
    condition: tuple[tuple[str, str], ...]  # (attr, literal) equality constraints
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    declared_confidence: float | None = None

    def __post_init__(self) -> None:
        if not self.lhs:
            raise RuleParseError(f"rule {self.id}: empty LHS")
        if not self.rhs:
            raise RuleParseError(f"rule {self.id}: empty RHS")
        for side, attrs in (("LHS", self.lhs), ("RHS", self.rhs)):
            repeated = sorted({a for a in attrs if attrs.count(a) > 1})
            if repeated:
                raise RuleParseError(
                    f"rule {self.id}: attribute repeated in {side}: {', '.join(repeated)}"
                )
        both = set(self.lhs) & set(self.rhs)
        if both:
            raise RuleParseError(
                f"rule {self.id}: attribute on both sides: {', '.join(sorted(both))}"
            )
        cond_in_rhs = {a for a, _ in self.condition} & set(self.rhs)
        if cond_in_rhs:
            raise RuleParseError(
                f"rule {self.id}: condition attribute in RHS: "
                f"{', '.join(sorted(cond_in_rhs))}"
            )
        if self.declared_confidence is not None and not (
            0.0 < self.declared_confidence <= 1.0
        ):
            raise RuleParseError(
                f"rule {self.id}: declared confidence must be in (0,1], "
                f"got {self.declared_confidence}"
            )

    @property
    def condition_attrs(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.condition)

    def referenced_attrs(self) -> set[str]:
        return set(self.lhs) | set(self.rhs) | set(self.condition_attrs)


def tally(table: Table, condition: tuple[tuple[str, str], ...], attrs: Sequence[str]) -> Counter:
    """How many rows that satisfy every ``(attr, literal)`` of ``condition``
    hold each combination of ``attrs`` values (missing ones included).

    ``attrs`` names at least two columns, so every key is a tuple.  Keys come in
    first-appearance order, which fixes the key order of the dicts built from it.
    """
    key = itemgetter(*map(table.column_index, attrs))
    rows = table.rows
    if condition:
        cols = [(table.column_index(a), lit) for a, lit in condition]
        rows = [row for row in rows if all(row[c] == lit for c, lit in cols)]
    return Counter(map(key, rows))


_QUOTED = re.compile(r'"[^"]*"?')  # an unclosed quote runs to the end
_NESTING = re.compile(r"[\[\],]")


def _mask_quotes(text: str) -> str:
    """``text`` with each quoted span blanked to as many spaces (positions kept)."""
    return _QUOTED.sub(lambda m: " " * len(m.group()), text)


def _split_top(text: str) -> list[str]:
    """Split on commas outside double quotes and square brackets."""
    parts, start, depth = [], 0, 0
    for m in _NESTING.finditer(_mask_quotes(text)):
        ch = m.group()
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif depth == 0:
            parts.append(text[start : m.start()])
            start = m.end()
    parts.append(text[start:])
    return parts


def _unquote(item: str) -> str:
    item = item.strip()
    if len(item) >= 2 and item[0] == '"' and item[-1] == '"':
        return item[1:-1]
    return item


def _parse_condition(block: str, where: str) -> tuple[tuple[str, str], ...]:
    inner = block.strip()[1:-1]
    masked = _mask_quotes(inner)
    if "[" in masked or "]" in masked:
        raise RuleParseError(f"{where}: unquoted bracket inside condition block {block!r}")
    literals = []
    for part in _split_top(inner):
        part = part.strip()
        if not part or part == "_":
            continue  # wildcard position: no constraint
        if "=" not in part:
            raise RuleParseError(f"{where}: condition literal needs Attr=Value: {part!r}")
        attr, _, value = part.partition("=")
        attr, value = _unquote(attr), _unquote(value)
        if not attr or not value:
            raise RuleParseError(f"{where}: malformed condition literal: {part!r}")
        literals.append((attr, value))
    return tuple(literals)


def parse_rules(text: str) -> list[Rule]:
    """Parse the rule DSL; one :class:`Rule` per non-comment line."""
    rules: list[Rule] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment = _mask_quotes(raw).find("#")
        line = (raw if comment < 0 else raw[:comment]).strip()
        if not line:
            continue
        where = f"line {lineno}"
        head, colon, body = line.partition(":")
        if not colon or not head.strip():
            raise RuleParseError(f"{where}: expected 'id: ... -> ...'")
        rule_id = head.strip()
        if rule_id in seen_ids:
            raise RuleParseError(f"{where}: duplicate rule id {rule_id!r}")

        masked = _mask_quotes(body)
        confidence = None
        at = masked.rfind("@")
        if at >= 0:
            conf_text = body[at + 1 :].strip()
            body, masked = body[:at], masked[:at]
            try:
                confidence = float(conf_text)
            except ValueError:
                raise RuleParseError(f"{where}: bad confidence {conf_text!r}") from None

        arrow = masked.find("->")
        if arrow < 0 or masked.find("->", arrow + 2) >= 0:
            raise RuleParseError(f"{where}: expected exactly one '->'")
        left, right = body[:arrow], body[arrow + 2 :]

        condition: tuple[tuple[str, str], ...] | None = None
        lhs: list[str] = []
        for item in _split_top(left):
            item = item.strip()
            if not item:
                continue
            if item.startswith("["):
                if not item.endswith("]"):
                    raise RuleParseError(f"{where}: unclosed condition block")
                if condition is not None:
                    raise RuleParseError(f"{where}: more than one condition block")
                condition = _parse_condition(item, where)
            else:
                lhs.append(_unquote(item))
        rhs = [_unquote(i) for i in _split_top(right) if i.strip()]

        try:
            rule = Rule(rule_id, condition or (), tuple(lhs), tuple(rhs), confidence)
        except RuleParseError as exc:
            raise RuleParseError(f"{where}: {exc}") from None
        rules.append(rule)
        seen_ids.add(rule_id)
    return rules


def parse_rules_file(path: str | Path) -> list[Rule]:
    return parse_rules(read_text(path))


def estimate_confidence(rule: Rule, table: Table) -> dict[str, float]:
    """Measured (or declared) confidence for each RHS attribute of a rule."""
    missing_attrs = rule.referenced_attrs() - set(table.columns)
    if missing_attrs:
        raise RuleError(
            f"rule {rule.id} references attributes not in table "
            f"{table.name!r}: {', '.join(sorted(missing_attrs))}"
        )
    if rule.declared_confidence is not None:
        return dict.fromkeys(rule.rhs, rule.declared_confidence)
    result: dict[str, float] = {}
    for attr in rule.rhs:
        groups: dict[tuple, dict[str, int]] = {}
        total = 0
        for combo, n in tally(table, rule.condition, (*rule.lhs, attr)).items():
            if MISSING in combo:
                continue
            total += n
            groups.setdefault(combo[:-1], {})[combo[-1]] = n
        if total == 0:
            needed = list(dict.fromkeys(rule.condition_attrs + rule.lhs + (attr,)))
            log.warning(
                "rule %s: no tuples satisfy the condition and are complete on "
                "%s; confidence(%s) = 0",
                rule.id,
                needed,
                attr,
            )
            result[attr] = 0.0
        else:
            support = sum(max(counts.values()) for counts in groups.values())
            result[attr] = support / total
    return result


@dataclass
class RuleSet:
    """Rules plus one confidence in [0, 1] per (rule id, RHS attribute) edge."""

    rules: list[Rule]
    confidences: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            raise RuleParseError("duplicate rule ids in rule set")
        for rule in self.rules:
            for attr in rule.rhs:
                weight = self.confidences.get((rule.id, attr))
                if weight is None or not 0.0 <= weight <= 1.0:
                    raise RuleError(
                        f"rule {rule.id}: edge weight into {attr} must be in [0, 1], "
                        f"got {weight}"
                    )

    @classmethod
    def estimate(cls, rules: Sequence[Rule], table: Table) -> "RuleSet":
        """Build a rule set with confidences measured against ``table``."""
        confidences = {}
        for rule in rules:
            for attr, conf in estimate_confidence(rule, table).items():
                confidences[(rule.id, attr)] = conf
        return cls(list(rules), confidences)

    def confidence(self, rule_id: str, attr: str) -> float:
        return self.confidences[(rule_id, attr)]

    def referenced_attrs(self) -> set[str]:
        out: set[str] = set()
        for r in self.rules:
            out |= r.referenced_attrs()
        return out
