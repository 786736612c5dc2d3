import collections
import dataclasses
import random
import re

import pytest

from oracles import (
    _find_unquoted,
    _split_top,
    _strip_comment,
    conditions_hold,
    confidence_oracle,
    make_table,
    parse_rules_oracle,
    random_count_case,
    random_rule_line,
)

from webimpute import Rule, RuleSet, estimate_confidence, parse_rules
from webimpute.rules import RuleError, RuleParseError
from webimpute.tabular import MISSING


class TestParse:
    def test_plain_fd(self):
        (rule,) = parse_rules("f1: Arena -> Location, Capacity")
        assert rule.id == "f1"
        assert rule.lhs == ("Arena",)
        assert rule.rhs == ("Location", "Capacity")
        assert rule.condition == ()
        assert rule.declared_confidence is None

    def test_conditional_rule(self):
        (rule,) = parse_rules("f6: [Coach=A.Hannum], Start-End -> Team")
        assert rule.condition == (("Coach", "A.Hannum"),)
        assert rule.lhs == ("Start-End",)
        assert rule.rhs == ("Team",)

    def test_declared_confidence(self):
        (rule,) = parse_rules("f4: Arena -> Team @ 0.8")
        assert rule.declared_confidence == 0.8

    def test_attr_on_both_sides_rejected(self):
        with pytest.raises(RuleParseError, match="both sides"):
            parse_rules("fX: A -> A")

    def test_attr_repeated_in_lhs_rejected(self):
        # counted twice, A's evidence would give a joint above 1
        with pytest.raises(RuleParseError, match=r"line 2: .*repeated in LHS: A$"):
            parse_rules("f1: A -> C\nf2: A, B, A -> C\n")

    def test_attr_repeated_in_rhs_rejected(self):
        # repeated, B would get two applications from one rule
        with pytest.raises(RuleParseError, match=r"line 1: .*repeated in RHS: B$"):
            parse_rules("f: A -> B, C, B")

    def test_empty_rhs_rejected(self):
        with pytest.raises(RuleParseError, match="line 1"):
            parse_rules("f: A -> ")

    def test_missing_arrow_rejected(self):
        with pytest.raises(RuleParseError, match="line 2"):
            parse_rules("f1: A -> B\nf2: A B\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(RuleParseError, match="duplicate"):
            parse_rules("f: A -> B\nf: B -> C\n")

    def test_bad_confidence(self):
        with pytest.raises(RuleParseError, match="confidence"):
            parse_rules("f: A -> B @ nope")
        with pytest.raises(RuleParseError):
            parse_rules("f: A -> B @ 1.5")

    def test_quoted_names_and_comments(self):
        rules = parse_rules(
            '# header comment\n'
            'r1: "Home City", Team -> "Arena Name"  # trailing\n'
            '\n'
            'r2: [State=NY], "Arena Name" -> Capacity\n'
        )
        assert rules[0].lhs == ("Home City", "Team")
        assert rules[0].rhs == ("Arena Name",)
        assert rules[1].condition == (("State", "NY"),)

    def test_wildcard_condition_positions_ignored(self):
        (rule,) = parse_rules("f6: [Coach=A.Hannum, _, _], Start-End -> Team")
        assert rule.condition == (("Coach", "A.Hannum"),)

    def test_quoted_names_hold_delimiters(self):
        (rule,) = parse_rules(
            'r: [X="a->b, [c]"], "p#q", "s@t" -> "u->v", "w,x" @ 0.5  # "c, d" @ 1'
        )
        assert rule.condition == (("X", "a->b, [c]"),)
        assert rule.lhs == ("p#q", "s@t")
        assert rule.rhs == ("u->v", "w,x")
        assert rule.declared_confidence == 0.5

    @pytest.mark.parametrize(
        "line, message",
        [
            # the check used to ask whether the first block had literals
            ("f1: [_], [X=1], A -> B", "more than one condition block"),
            # a missing comma used to give the literal X = "1] [Y=2"
            ("f1: [X=1] [Y=2], A -> B", "unquoted bracket inside condition block"),
        ],
        ids=["wildcard-block-then-block", "blocks-without-comma"],
    )
    def test_malformed_condition_blocks_rejected(self, line, message):
        with pytest.raises(RuleParseError, match=rf"^line 2: {re.escape(message)}"):
            parse_rules(f"f0: P -> Q\n{line}\n")


class TestEstimate:
    def test_exact_fd_has_confidence_one(self):
        table = make_table(
            ["Arena", "Location"],
            [["a1", "l1"], ["a1", "l1"], ["a2", "l2"], ["a3", "l1"]],
        )
        (rule,) = parse_rules("f1: Arena -> Location")
        assert estimate_confidence(rule, table) == {"Location": 1.0}

    def test_plurality_eight_of_ten(self):
        # Arena group a1: 5 of 6 rows agree on t1; group a2: 3 of 4 agree on t3.
        # Plurality support (5 + 3) over 10 restricted tuples = 0.8.
        rows = (
            [["a1", "t1"]] * 5
            + [["a1", "t2"]]
            + [["a2", "t3"]] * 3
            + [["a2", "t4"]]
        )
        table = make_table(["Arena", "Team"], rows)
        (rule,) = parse_rules("f4: Arena -> Team")
        assert estimate_confidence(rule, table) == {"Team": 0.8}

    def test_condition_matching_nothing_gives_zero_and_warns(self, caplog):
        table = make_table(["C", "A", "B"], [["x", "1", "2"]])
        (rule,) = parse_rules("r: [C=nomatch], A -> B")
        with caplog.at_level("WARNING"):
            result = estimate_confidence(rule, table)
        assert result == {"B": 0.0}
        assert any("confidence" in r.message for r in caplog.records)

    def test_no_tuples_warning_lists_each_attribute_once(self, caplog):
        table = make_table(["A", "B"], [["a", "b"]])
        (rule,) = parse_rules("r: [B=zz], B -> A")
        with caplog.at_level("WARNING", logger="webimpute.rules"):
            assert estimate_confidence(rule, table) == {"A": 0.0}
        (record,) = caplog.records
        assert "['B', 'A']" in record.getMessage()

    def test_incomplete_tuples_excluded(self):
        table = make_table(
            ["A", "B"],
            [["a1", "b1"], ["a1", MISSING], [MISSING, "b2"], ["a2", "b2"]],
        )
        (rule,) = parse_rules("r: A -> B")
        assert estimate_confidence(rule, table) == {"B": 1.0}

    def test_unknown_attribute_rejected(self, nba_table):
        (rule,) = parse_rules("r: Nope -> Team")
        with pytest.raises(RuleError, match="Nope"):
            estimate_confidence(rule, nba_table)

    def test_declared_confidence_overrides_measurement(self):
        table = make_table(["A", "B"], [["a1", "b1"], ["a1", "b1"]])
        (rule,) = parse_rules("r: A -> B @ 0.8")
        assert estimate_confidence(rule, table) == {"B": 0.8}

    def test_row_order_invariance(self):
        rng = random.Random(4)
        rows = [[f"a{rng.randint(0, 2)}", f"b{rng.randint(0, 2)}"] for _ in range(20)]
        (rule,) = parse_rules("r: A -> B")
        base = estimate_confidence(rule, make_table(["A", "B"], rows))
        for _ in range(5):
            rng.shuffle(rows)
            assert estimate_confidence(rule, make_table(["A", "B"], rows)) == base

    def test_confidence_bounds_and_exactness(self):
        # confidence is in [0,1]; it is 1 exactly when every LHS group agrees
        rng = random.Random(12)
        (rule,) = parse_rules("r: A -> B")
        for _ in range(30):
            rows = [
                [f"a{rng.randint(0, 3)}", f"b{rng.randint(0, 3)}"]
                for _ in range(rng.randint(1, 12))
            ]
            table = make_table(["A", "B"], rows)
            conf = estimate_confidence(rule, table)["B"]
            assert 0.0 <= conf <= 1.0
            groups = {}
            for a, b in rows:
                groups.setdefault(a, set()).add(b)
            holds_exactly = all(len(vs) == 1 for vs in groups.values())
            assert (conf == 1.0) == holds_exactly

    def test_consistent_tuple_never_decreases_confidence(self):
        rng = random.Random(21)
        (rule,) = parse_rules("r: A -> B")
        for _ in range(30):
            rows = [
                [f"a{rng.randint(0, 2)}", f"b{rng.randint(0, 2)}"]
                for _ in range(rng.randint(2, 10))
            ]
            table = make_table(["A", "B"], rows)
            before = estimate_confidence(rule, table)["B"]
            # append a tuple agreeing with the plurality value of its group
            group = f"a{rng.randint(0, 2)}"
            counts = {}
            for a, b in rows:
                if a == group:
                    counts[b] = counts.get(b, 0) + 1
            plurality = max(counts, key=lambda b: (counts[b], b)) if counts else "bnew"
            after = estimate_confidence(
                rule, make_table(["A", "B"], rows + [[group, plurality]])
            )["B"]
            assert after >= before - 1e-12


def test_estimated_confidence_matches_oracle_on_random_tables():
    # every rule measured (its declared confidence dropped) and as declared
    rng = random.Random(20261019)
    seen = collections.Counter()
    for _ in range(300):
        table, ruleset, _ = random_count_case(rng)
        for declared in ruleset.rules:
            rule = dataclasses.replace(declared, declared_confidence=None)
            got = estimate_confidence(rule, table)
            assert got == confidence_oracle(rule, table)
            assert estimate_confidence(declared, table) == confidence_oracle(declared, table)
            needed = set(rule.condition_attrs + rule.lhs + rule.rhs)
            seen["conditional"] += bool(rule.condition)
            seen["two-attribute LHS"] += len(rule.lhs) == 2
            seen["two-attribute RHS"] += len(rule.rhs) == 2
            seen["incomplete rows"] += any(
                table.cell(i, a) is MISSING for i in range(len(table.rows)) for a in needed
            )
            seen["zero total"] += 0.0 in got.values()
            for attr in rule.rhs:
                kept = collections.Counter(
                    tuple(table.cell(i, a) for a in rule.lhs + (attr,))
                    for i in range(len(table.rows))
                    if conditions_hold(table, i, rule.condition)
                    and all(
                        table.cell(i, a) is not MISSING
                        for a in rule.condition_attrs + rule.lhs + (attr,)
                    )
                )
                seen["a kept (LHS, RHS) combination repeats"] += any(
                    n > 1 for n in kept.values()
                )
                seen["every kept combination is distinct"] += bool(kept) and all(
                    n == 1 for n in kept.values()
                )
    assert min(seen[key] for key in (
        "conditional", "two-attribute LHS", "two-attribute RHS", "incomplete rows",
        "zero total", "a kept (LHS, RHS) combination repeats",
        "every kept combination is distinct",
    )) >= 20, seen


def test_estimated_confidence_matches_oracle_on_a_roster_sized_table():
    # 1,000 rows over 40 teams, each with one arena, the arena in one city,
    # the city in one state; one row in 25 has a wrong city, so not every
    # confidence is 1; then 30% of the cells are masked
    rng = random.Random(20261022)
    teams = [f"team{i}" for i in range(40)]
    arena = {t: f"arena{i}" for i, t in enumerate(teams)}
    city = {a: f"city{rng.randrange(30)}" for a in arena.values()}
    state = {f"city{i}": f"state{rng.randrange(13)}" for i in range(30)}
    rows = []
    for _ in range(1000):
        team = rng.choice(teams)
        home = city[arena[team]]
        if rng.random() < 0.04:
            home = f"city{rng.randrange(30)}"
        row = [team, arena[team], home, state[home]]
        rows.append([MISSING if rng.random() < 0.3 else v for v in row])
    table = make_table(["Team", "Arena", "City", "State"], rows)
    rules = parse_rules(
        "r1: Team -> Arena\nr2: Arena -> City\nr3: City -> State\nr4: Arena -> Team"
    )
    measured = {}
    for rule in rules:
        got = estimate_confidence(rule, table)
        assert got == confidence_oracle(rule, table)
        measured.update(got)
    assert 0.0 < min(measured.values()) < 1.0, measured


class TestRuleSet:
    def test_estimate_covers_every_edge(self, nba_table):
        rules = parse_rules("f1: Arena -> Location, Capacity\nf4: Arena -> Team @ 0.8")
        ruleset = RuleSet.estimate(rules, nba_table)
        assert set(ruleset.confidences) == {
            ("f1", "Location"), ("f1", "Capacity"), ("f4", "Team"),
        }
        assert ruleset.confidence("f4", "Team") == 0.8

    def test_duplicate_ids_rejected(self):
        rule = Rule("r", (), ("A",), ("B",))
        with pytest.raises(RuleParseError):
            RuleSet([rule, rule])

    @pytest.mark.parametrize(
        "confidences", [{}, {("r", "B"): 1.5}, {("r", "B"): -0.1}, {("r", "C"): 0.5}],
        ids=["none", "above-one", "below-zero", "other-edge-only"],
    )
    def test_edge_without_valid_confidence_rejected(self, confidences):
        (rule,) = parse_rules("r: A -> B")
        with pytest.raises(RuleError, match="rule r: edge weight into B"):
            RuleSet([rule], confidences)


def _misparsed_block_shape(line: str) -> str | None:
    """The condition-block shape the earlier parser accepted by mistake.

    Walked with the earlier parser's own helpers, block by block as the
    parser meets them: "more than one condition block" at a second block,
    "bracket inside condition block" at a block holding an unquoted ``[`` or
    ``]``, else None.
    """
    body = _strip_comment(line).partition(":")[2]
    at = _find_unquoted(body, "@", last=True)
    left = body[:at] if at >= 0 else body
    left = left[: _find_unquoted(left, "->")]
    blocks = 0
    for item in _split_top(left, ","):
        item = item.strip()
        if item.startswith("[") and item.endswith("]"):
            blocks += 1
            if blocks == 2:
                return "more than one condition block"
            inner = item[1:-1]
            if _find_unquoted(inner, "[") >= 0 or _find_unquoted(inner, "]") >= 0:
                return "bracket inside condition block"
    return None


def _outcome(parse, text):
    try:
        return parse(text)
    except RuleParseError as exc:
        return str(exc)


_ERROR_FAMILIES = [
    "expected 'id: ... -> ...'", "duplicate rule id", "bad confidence",
    "expected exactly one '->'", "unclosed condition block",
    "more than one condition block", "condition literal needs Attr=Value",
    "malformed condition literal", "empty LHS", "empty RHS", "attribute repeated in",
    "attribute on both sides", "condition attribute in RHS",
    "declared confidence must be in (0,1]",
]


def test_parser_matches_character_loop_oracle_on_random_lines():
    # The masked scanner must give the same rules, or the same error text, as
    # the earlier parser on every line, except the two condition-block shapes
    # that parser accepted by mistake: those now raise.
    rng = random.Random(10)
    seen = collections.Counter()
    for _ in range(6000):
        line = random_rule_line(rng)
        text = f"f0: P -> Q\n{line}\n"  # line 2; an id f0 is a duplicate
        new, old = _outcome(parse_rules, text), _outcome(parse_rules_oracle, text)
        shape = _misparsed_block_shape(line)
        if new != old:
            assert isinstance(new, str) and shape is not None and shape in new, (line, new, old)
            seen["new: " + shape] += 1
        elif isinstance(new, str):
            family = [f for f in _ERROR_FAMILIES if f in new]
            assert family, (line, new)
            seen[family[0]] += 1
        else:
            rule = new[-1]
            names = rule.lhs + rule.rhs + tuple(x for lit in rule.condition for x in lit)
            seen["accepted"] += 1
            seen["with a condition"] += bool(rule.condition)
            seen["quoted delimiter"] += any(d in n for n in names for d in ",#@->[]")
    expected = _ERROR_FAMILIES + [
        "accepted", "with a condition", "quoted delimiter",
        "new: more than one condition block", "new: bracket inside condition block",
    ]
    assert {k: seen[k] for k in expected if seen[k] < 20} == {}, seen
