import copy
import random
from collections import Counter

import pytest

from oracles import (
    bayes_joints_oracle,
    bayes_oracle,
    conditions_hold,
    count_table_oracle,
    feasible_oracle,
    internal_fills_oracle,
    make_table,
    missing_cells_oracle,
    random_bayes_case,
    random_count_case,
    random_count_table_case,
    random_fd_case,
    violations_oracle,
    with_cells_oracle,
)
from webimpute import (
    MISSING,
    RuleSet,
    build_dependency_graph,
    impute_internal,
    parse_rules,
)
from webimpute.bayes import BayesDecision, CandidateScore, _FrequencyCounts
from webimpute.rules import parse_rules_file
from webimpute.synth import write_university_fixture
from webimpute.tabular import MaskError, MaskSpec, load_table, mask_random, to_csv_text


def setup_ruleset(text, table):
    ruleset = RuleSet.estimate(parse_rules(text), table)
    return ruleset, build_dependency_graph(ruleset)


def decision_for(decisions, row, attr):
    (decision,) = [d for d in decisions if (d.row, d.attr) == (row, attr)]
    return decision


def candidates(decision):
    """The decision's (value, joint, posterior) list, as its report writes it."""
    return [(c["value"], c["joint"], c["posterior"]) for c in decision.to_dict()["candidates"]]


def joints(decision):
    return {value: joint for value, joint, _ in candidates(decision)}


class TestCandidates:
    def test_capacity_candidates(self, nba_table, nba_graph):
        _, decisions = impute_internal(nba_table, nba_graph, 0.5)
        capacity = decision_for(decisions, 3, "Capacity")
        assert capacity.rule_id == "f1"
        assert set(joints(capacity)) == {"7500", "6000", "18203"}

    def test_conditional_rule_restricts_candidates(self, nba_table, nba_graph):
        # a sixth row coached by A.Hannum, Team and Arena missing: of the rules
        # into Team only f6 has its determinants, and only t2 meets its condition
        extra = ["t6", MISSING, "1964-1966", MISSING, MISSING, MISSING, "A.Hannum"]
        table = make_table(nba_table.columns, nba_table.rows + [extra])
        _, decisions = impute_internal(table, nba_graph, 0.5)
        team = decision_for(decisions, 5, "Team")
        assert team.rule_id == "f6"
        assert set(joints(team)) == {"Golden State Warriors"}

    def test_fully_missing_column_gives_empty_set(self):
        table = make_table(["A", "B"], [["a1", MISSING], ["a2", MISSING]])
        _, graph = setup_ruleset("r: A -> B", table)
        _, decisions = impute_internal(table, graph, 0.5)
        assert [(d.rule_id, candidates(d)) for d in decisions] == [("r", []), ("r", [])]


class TestScore:
    # t4 holds Arena CivicAuditorium with Location and Capacity missing; f1
    # decides both cells from the evidence Arena = CivicAuditorium
    def test_location_joint_is_one(self, nba_table, nba_graph):
        # only t1 is complete on (Location, Arena): the co-occurring value scores 1
        _, decisions = impute_internal(nba_table, nba_graph, 0.5)
        location = decision_for(decisions, 3, "Location")
        assert location.rule_id == "f1"
        assert joints(location)["SanFrancsicoCA"] == 1.0

    def test_never_cooccurring_value_scores_zero(self, nba_table, nba_graph):
        _, decisions = impute_internal(nba_table, nba_graph, 0.5)
        assert joints(decision_for(decisions, 3, "Capacity"))["18203"] == 0.0

    def test_capacity_argmax(self, nba_table, nba_graph):
        _, decisions = impute_internal(nba_table, nba_graph, 0.5)
        scores = joints(decision_for(decisions, 3, "Capacity"))
        assert scores["7500"] > scores["6000"] == scores["18203"] == 0.0

    def test_single_row_table(self):
        # the count table holds the one complete row
        table = make_table(["A", "B"], [["a1", "b1"], ["a1", MISSING]])
        _, graph = setup_ruleset("r: A -> B", table)
        _, decisions = impute_internal(table, graph, 0.5)
        assert joints(decision_for(decisions, 1, "B")) == {"b1": 1.0}


class TestImputeInternal:
    def test_nba_worked_example(self, nba_table, nba_ruleset, nba_graph):
        filled, decisions = impute_internal(nba_table, nba_graph, 0.5)
        assert filled.cell(3, "Location") == "SanFrancsicoCA"
        assert filled.cell(3, "Capacity") == "7500"
        assert filled.cell(4, "Location") is MISSING
        assert filled.cell(4, "Capacity") is MISSING
        chosen = {(d.row, d.attr): d.chosen for d in decisions if d.chosen}
        assert chosen == {(3, "Location"): "SanFrancsicoCA", (3, "Capacity"): "7500"}

    def test_one_decision_per_missing_cell(self, nba_table, nba_ruleset, nba_graph):
        _, decisions = impute_internal(nba_table, nba_graph, 0.5)
        cells = [(d.row, d.attr) for d in decisions]
        assert sorted(cells) == sorted(nba_table.missing_cells())

    def test_complete_table_unchanged(self):
        table = make_table(["A", "B"], [["a1", "b1"], ["a2", "b2"]])
        ruleset, graph = setup_ruleset("r: A -> B", table)
        filled, decisions = impute_internal(table, graph, 0.5)
        assert filled.rows == table.rows
        assert decisions == []

    def test_fixpoint_chains_through_fills(self):
        # C needs B, B needs A; the first sweep fills B, the second fills C
        table = make_table(
            ["A", "B", "C"],
            [["a1", "b1", "c1"], ["a1", "b1", "c1"], ["a1", MISSING, MISSING]],
        )
        ruleset, graph = setup_ruleset("r1: A -> B\nr2: B -> C", table)
        filled, decisions = impute_internal(table, graph, 0.5)
        assert filled.cell(2, "B") == "b1"
        assert filled.cell(2, "C") == "c1"

    def test_threshold_above_best_posterior_abstains(self):
        # two candidates tie at posterior 0.5 each
        table = make_table(
            ["A", "B"],
            [["a1", "b1"], ["a1", "b2"], ["a1", MISSING]],
        )
        ruleset, graph = setup_ruleset("r: A -> B", table)
        filled, decisions = impute_internal(table, graph, 0.9)
        assert filled.cell(2, "B") is MISSING
        (decision,) = decisions
        assert decision.chosen is None
        assert {value: posterior for value, _, posterior in candidates(decision)} == {
            "b1": 0.5, "b2": 0.5,
        }

    def test_round_sees_candidates_unlocked_by_earlier_rounds(self):
        # Team -> Arena -> City chain holes, plus a rule conditioned on a
        # League that row 2 only gains in round 1: from round 2 on, Brooklyn
        # is an East candidate, which row 3 needs to fill its City
        table = make_table(
            ["Team", "League", "Arena", "City"],
            [
                ["Hawks", "East", "OldDome", "Atlanta"],
                ["Hawks", "East", "OldDome", "Atlanta"],
                ["Nets", MISSING, "NewDome", "Brooklyn"],
                ["Nets", "East", "NewDome", MISSING],
                ["Hawks", "East", "OldDome", MISSING],
                ["Hawks", "East", MISSING, MISSING],
                ["Suns", "West", "SunDome", "Phoenix"],
            ],
        )
        ruleset, graph = setup_ruleset(
            "r1: Team -> Arena @ 1.0\n"
            "r2: Arena -> City @ 0.6\n"
            "r3: Team -> League @ 1.0\n"
            "c: [League=East], Arena -> City @ 0.9",
            table,
        )
        _, first_round = impute_internal(table, graph, 0.5, max_rounds=1)
        row3_first = decision_for(first_round, 3, "City")
        assert row3_first.rule_id == "c"
        assert list(joints(row3_first)) == ["Atlanta"]
        filled, decisions = impute_internal(table, graph, 0.5)
        chosen = {(d.row, d.attr): d.chosen for d in decisions if d.chosen}
        assert chosen == internal_fills_oracle(table, ruleset, 0.5, max_rounds=10)
        assert chosen == {
            (2, "League"): "East",
            (3, "City"): "Brooklyn",
            (4, "City"): "Atlanta",
            (5, "Arena"): "OldDome",
            (5, "City"): "Atlanta",
        }
        row3 = next(d for d in decisions if (d.row, d.attr) == (3, "City"))
        assert row3.rule_id == "c"
        assert list(joints(row3)) == ["Atlanta", "Brooklyn"]

    def test_tie_breaks_lexicographically(self):
        table = make_table(
            ["A", "B"],
            [["a1", "b2"], ["a1", "b1"], ["a1", MISSING]],
        )
        ruleset, graph = setup_ruleset("r: A -> B", table)
        filled, _ = impute_internal(table, graph, 0.5)
        assert filled.cell(2, "B") == "b1"

    def test_confident_unique_candidate_fills_at_k_one(self):
        table = make_table(["A", "B"], [["a1", "b1"], ["a1", MISSING]])
        ruleset, graph = setup_ruleset("r: A -> B", table)
        filled, _ = impute_internal(table, graph, 1.0)
        assert filled.cell(1, "B") == "b1"

    def test_higher_confidence_rule_decides(self, nba_table, nba_ruleset, nba_graph):
        # t4.Team: f2 (confidence 1.0) outranks f4 (0.8) and scores everything
        # zero, so the cell abstains even though f4 alone would fill it
        filled, decisions = impute_internal(nba_table, nba_graph, 0.5)
        assert filled.cell(3, "Team") is MISSING
        team = next(d for d in decisions if (d.row, d.attr) == (3, "Team"))
        assert team.rule_id == "f2"
        assert team.chosen is None

    def test_posteriors_sum_to_one_when_scored(self, nba_table, nba_ruleset, nba_graph):
        _, decisions = impute_internal(nba_table, nba_graph, 0.5)
        for d in decisions:
            total_joint = sum(joint for _, joint, _ in candidates(d))
            if total_joint > 0:
                assert sum(posterior for _, _, posterior in candidates(d)) == pytest.approx(1.0)

    def test_deterministic(self, nba_table, nba_ruleset, nba_graph):
        a = impute_internal(nba_table, nba_graph, 0.5)
        b = impute_internal(nba_table, nba_graph, 0.5)
        assert a[0].rows == b[0].rows
        assert [d.to_dict() for d in a[1]] == [d.to_dict() for d in b[1]]

    def test_bad_threshold_rejected(self, nba_table, nba_ruleset, nba_graph):
        for k in (1.5, True):
            with pytest.raises(ValueError, match="k must"):
                impute_internal(nba_table, nba_graph, k)
        for max_rounds in (0, True, 1.5):  # zero rounds leave no decision to report
            with pytest.raises(ValueError, match="max_rounds"):
                impute_internal(nba_table, nba_graph, 0.5, max_rounds=max_rounds)

    def test_underflowed_joint_abstains(self):
        # x1 is certain, but its joint 1000/1000 * (1/1000)^110 underflows to
        # 0.0: the nonzero map holds one 0.0 and the cell abstains
        attrs = [f"A{i}" for i in range(110)]
        rows = [["v"] * 110 + ["x1"]]
        rows += [[f"u{r}"] * 110 + ["x1"] for r in range(1, 1000)]
        rows += [["v"] * 110 + [MISSING]]
        table = make_table(attrs + ["X"], rows)
        ruleset, graph = setup_ruleset(f"r: {', '.join(attrs)} -> X", table)
        filled, decisions = impute_internal(table, graph, 0.5)
        assert filled.cell(1000, "X") is MISSING
        assert decisions == [
            BayesDecision(1000, "X", "r", ("x1",), (), None, 0.5)
        ]

    def test_decisions_sharing_a_count_table_share_its_candidates(self):
        # rows 3-7 are decided from one count table in one round: rows 3 and
        # 6 from the same evidence, with a nonzero joint, rows 4, 5 and 7 with
        # every joint zero, 4 and 7 from the same evidence.  Every decision
        # holds the table's values and its evidence's scores, not a copy;
        # tuples, so no decision can change what another reports.
        table = make_table(
            ["A", "B"],
            [
                ["a1", "b1"], ["a1", "b1"], ["a2", "b2"],
                ["a1", MISSING], ["a8", MISSING], ["a9", MISSING],
                ["a1", MISSING], ["a8", MISSING],
            ],
        )
        ruleset, graph = setup_ruleset("r: A -> B", table)
        _, decisions = impute_internal(table, graph, 0.5, max_rounds=1)
        assert [(d.row, d.chosen) for d in decisions] == [
            (3, "b1"), (6, "b1"), (4, None), (5, None), (7, None),
        ]
        filled, twin, zero, _, _ = decisions
        assert all(d.values is filled.values for d in decisions)
        assert twin.scores is filled.scores
        assert candidates(twin) == [("b1", 2 / 3, 1.0), ("b2", 0.0, 0.0)]
        assert candidates(zero) == [("b1", 0.0, 0.0), ("b2", 0.0, 0.0)]
        _, again = impute_internal(table, graph, 0.5, max_rounds=1)
        assert [d.to_dict() for d in again] == [d.to_dict() for d in decisions]

    def test_scores_are_built_only_for_nonzero_joints(self, tmp_path, monkeypatch):
        # 1000 university rows, 900 masked cells: a decision shares its count
        # table's values and scores only its evidence's nonzero joints, once
        # per distinct evidence and round, so the scores built grow with the
        # nonzero joints, not with rows x masked cells (one score per
        # candidate and cell would be 276,916)
        paths = write_university_fixture(tmp_path, rows=1000, seed=7)
        table = load_table(paths["table"])
        ruleset = RuleSet.estimate(parse_rules_file(paths["rules"]), table)
        spec = MaskSpec(0.3, 7, frozenset({"University"}))
        masked, _ = mask_random(table, spec, rules=ruleset.rules)
        built = 0
        init = CandidateScore.__init__

        def counting_init(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        monkeypatch.setattr(CandidateScore, "__init__", counting_init)
        _, decisions = impute_internal(masked, build_dependency_graph(ruleset), 0.5)
        assert len(decisions) == 900
        assert built <= 2000


def test_derived_fixture_matches_oracle():
    # 6-row, 3-attribute table with one masked cell, checked by hand-style
    # enumeration: candidates {x1, x2}, evidence (P=p1, Q=q1)
    table = make_table(
        ["P", "Q", "X"],
        [
            ["p1", "q1", "x1"],
            ["p1", "q1", "x1"],
            ["p1", "q2", "x2"],
            ["p2", "q1", "x2"],
            ["p2", "q2", "x2"],
            ["p1", "q1", MISSING],
        ],
    )
    ruleset, graph = setup_ruleset("r: P, Q -> X", table)
    filled, (decision,) = impute_internal(table, graph, 0.5)
    assert filled.cell(5, "X") == bayes_oracle(table, ruleset, 5, "X", 0.5) == "x1"
    scores = joints(decision)
    # by direct counting over the 5 complete rows:
    # P(x1)=2/5, P(p1|x1)=1, P(q1|x1)=1 -> 0.4
    # P(x2)=3/5, P(p1|x2)=1/3, P(q1|x2)=1/3 -> 1/15
    assert scores["x1"] == pytest.approx(0.4)
    assert scores["x2"] == pytest.approx(1 / 15)


def test_random_cases_agree_with_oracle():
    rng = random.Random(20260808)
    for _ in range(25):
        masked, ruleset, row, attr, k = random_bayes_case(rng)
        graph = build_dependency_graph(ruleset)
        filled, _ = impute_internal(masked, graph, k, max_rounds=1)
        got = filled.cell(row, attr)
        assert got == bayes_oracle(masked, ruleset, row, attr, k)


def test_count_table_matches_oracle_on_random_tables():
    # The serialised candidates of every decision, zeros included and in
    # order, equal the oracle's joints and posteriors bit for bit, over
    # chained rounds.
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(500):
        table, ruleset, k = random_count_case(rng)
        graph = build_dependency_graph(ruleset)
        for round_no in range(3):
            filled, decisions = impute_internal(table, graph, k, max_rounds=1)
            scored = set()  # (count table, evidence) pairs decided this round
            for d in decisions:
                found = bayes_joints_oracle(table, ruleset, d.row, d.attr)
                if found is None:
                    assert (d.rule_id, candidates(d), d.chosen) == (None, [], None)
                    continue
                rule, joints = found
                setting = (rule.condition, d.attr, rule.lhs)
                evidence = tuple(table.cell(d.row, a) for a in rule.lhs)
                seen["repeated evidence"] += (setting, evidence) in scored
                scored.add((setting, evidence))
                total = sum(joints.values())
                posteriors = [j / total if total > 0 else 0.0 for j in joints.values()]
                assert d.rule_id == rule.id
                assert candidates(d) == list(zip(joints, joints.values(), posteriors))
                assert d.chosen == bayes_oracle(table, ruleset, d.row, d.attr, k)

                needed = (d.attr,) + rule.lhs
                counted = {
                    table.cell(i, d.attr)
                    for i in range(len(table.rows))
                    if conditions_hold(table, i, rule.condition)
                    and all(table.cell(i, a) is not MISSING for a in needed)
                }
                top = sorted(posteriors, reverse=True)[:2]
                seen["uncounted candidate"] += bool(set(joints) - counted)
                seen["conditional"] += bool(rule.condition)
                seen["two-attribute LHS"] += len(rule.lhs) == 2
                seen["tie"] += len(top) == 2 and top[0] == top[1] > 0
                seen["later round"] += round_no > 0
                zeros = sum(j == 0 for j in joints.values())
                seen["all zero"] += 0 < zeros == len(joints)
                seen["mixed"] += 0 < zeros < len(joints)
            if all(d.chosen is None for d in decisions):
                break
            table = filled
    assert min(seen[key] for key in (
        "uncounted candidate", "conditional", "two-attribute LHS", "tie", "later round",
        "all zero", "mixed", "repeated evidence",
    )) >= 20, seen


def test_count_table_build_matches_row_scan_oracle():
    # every field equal to the row-by-row scan's, dict keys in its order too
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(600):
        table, attr, evidence, condition = random_count_table_case(rng)
        counts = _FrequencyCounts.build(table, attr, evidence, condition)
        candidates, total, target, pair = count_table_oracle(table, attr, evidence, condition)
        assert counts.candidates == tuple(candidates)
        assert counts.total == total
        assert counts.target == target and list(counts.target) == list(target)
        assert counts.pair == pair
        assert [list(m.items()) for m in counts.pair.values()] == [
            list(m.items()) for m in pair.values()
        ]
        assert list(counts.pair) == list(pair)

        cols = (attr,) + evidence
        rows = [
            [table.cell(i, a) for a in cols]
            for i in range(len(table.rows))
            if conditions_hold(table, i, condition)
        ]
        complete = Counter(tuple(r) for r in rows if MISSING not in r)
        seen["condition"] += bool(condition)
        seen["two determinants"] += len(evidence) == 2
        seen["missing target in a condition row"] += bool(condition) and any(
            r[0] is MISSING for r in rows
        )
        seen["missing evidence next to a present target"] += any(
            r[0] is not MISSING and MISSING in r[1:] for r in rows
        )
        seen["combination counted 3 times"] += any(n >= 3 for n in complete.values())
        seen["key-like column, every combination distinct"] += (
            "K" in evidence
            and len(complete) >= 2
            and all(n == 1 for n in complete.values())
            and len({r[cols.index("K")] for r in rows}) == len(rows)
        )
    assert min(seen.values()) >= 20 and len(seen) == 6, seen


def test_application_choice_is_the_best_feasible_application():
    # The rules are declared in shuffled order, so a weight tie broken by
    # declaration order instead of rule id shows.
    def rank(app):
        return (-app.weight, app.rule_id)

    rng = random.Random(20261021)
    seen = Counter()
    for _ in range(1000):
        table, ruleset, k = random_count_case(rng)
        rules = list(ruleset.rules)
        rng.shuffle(rules)
        graph = build_dependency_graph(RuleSet(rules, ruleset.confidences))
        _, decisions = impute_internal(table, graph, k, max_rounds=1)
        for d in decisions:
            feasible = feasible_oracle(graph, table, d.row, d.attr)
            usable = [a for a, missing in feasible if not missing]
            best = min(usable, key=rank, default=None)
            assert d.rule_id == (best.rule_id if best else None)
            if best is None:
                continue
            seen["two or more usable"] += len(usable) >= 2
            heavier = [a for a in graph.applications[d.attr] if rank(a) < rank(best)]
            holds = {a.rule_id for a, _ in feasible}
            seen["heavier skipped: condition fails"] += any(
                a.rule_id not in holds for a in heavier
            )
            seen["heavier skipped: determinant missing"] += any(
                a.rule_id in holds and a not in usable for a in heavier
            )
            tied = [a for a in usable if a.weight == best.weight]
            seen["weight tie broken on rule id"] += len(tied) >= 2 and tied[0] is not best
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_multi_round_fills_match_oracle_on_random_tables():
    # a scoring is kept for one round only: a fill can change the counts
    # (and the candidates) that the same evidence meets in the next round
    rng = random.Random(20261019)
    later_round_fills = 0
    for _ in range(1000):
        table, ruleset, k = random_count_case(rng)
        snapshot = copy.deepcopy(table.rows)
        expected = internal_fills_oracle(table, ruleset, k, max_rounds=10)
        filled, decisions = impute_internal(table, build_dependency_graph(ruleset), k)
        assert table.rows == snapshot  # the caller's table is never written
        chosen = {(d.row, d.attr): d.chosen for d in decisions if d.chosen is not None}
        assert chosen == expected
        # fills in round order, then the cells left missing in row-major order
        missing = missing_cells_oracle(table.columns, snapshot)
        left = [cell for cell in missing if cell not in expected]
        assert [(d.row, d.attr) for d in decisions] == [*expected, *left]
        _, expected_rows = with_cells_oracle(table, [(r, a, v) for (r, a), v in expected.items()])
        assert filled.rows == expected_rows
        later_round_fills += len(expected) > len(
            internal_fills_oracle(table, ruleset, k, max_rounds=1)
        )
    assert later_round_fills >= 20


def test_joints_are_computed_once_per_distinct_evidence_and_round(monkeypatch):
    # 8 teams x 6 rows, each team one arena and city: City masked in most
    # rows, Team too in every fifth, so Team is filled from Arena in round 1
    # and those rows' City only has its evidence in round 2
    rows = []
    for i in range(48):
        team = i % 8
        city = MISSING if i % 3 else f"c{team}"
        rows.append([MISSING if i % 5 == 4 else f"t{team}", f"a{team}", city])
    table = make_table(["Team", "Arena", "City"], rows)
    ruleset, graph = setup_ruleset("r: Team -> City\ns: Arena -> Team", table)
    calls = []
    joints = _FrequencyCounts.joints

    def counting(self, evidence):
        calls.append((self, evidence))  # the count table is kept alive: ids stay unique
        return joints(self, evidence)

    monkeypatch.setattr(_FrequencyCounts, "joints", counting)
    _, decisions = impute_internal(table, graph, 0.5)
    # round 1: Team from 8 distinct arenas (9 cells), City from 8 distinct
    # teams (26 cells); round 2: City of 6 refilled rows from 5 distinct teams
    assert len(decisions) == 41
    assert sorted(Counter(id(counts) for counts, _ in calls).values()) == [5, 8, 8]
    assert len({(id(counts), evidence) for counts, evidence in calls}) == len(calls)


def test_phase_one_adds_no_violation_under_single_determinant_fds():
    # a table that satisfies its one-attribute FDs, masked at 0.3, still
    # satisfies them after phase 1 (k = 0.5).  Two-determinant FDs do not
    # hold this: naive Bayes scores each determinant's value apart
    rng = random.Random(20261022)
    tables = fills = 0
    while tables < 1000:
        table, rules = random_fd_case(rng)
        assert violations_oracle(table, rules) == []
        try:
            masked, _ = mask_random(table, MaskSpec(0.3, rng.randrange(10**6)), rules=rules)
        except MaskError:
            continue
        graph = build_dependency_graph(RuleSet.estimate(rules, masked))
        filled, decisions = impute_internal(masked, graph, 0.5)
        assert violations_oracle(filled, rules) == [], (tables, to_csv_text(masked))
        tables += 1
        fills += sum(d.chosen is not None for d in decisions)
    assert fills >= 2000, fills
