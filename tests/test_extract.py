import random

from webimpute import (
    Dictionary,
    Document,
    Table,
    avg_distance,
    build_dictionary,
    extract_by_keywords,
)
from webimpute.extract import dictionary_values
from webimpute.tabular import MISSING
from webimpute.textutil import tokenize

SNIPPET = (
    "Get information about WheatonFieldHouse in Wheaton, IL, "
    "including location, directions, reviews and photos."
)


def doc(text, doc_id="d"):
    return Document(doc_id, tokenize(text))


class TestDictionary:
    def test_built_from_table_values(self, nba_table):
        d = build_dictionary("Location", dictionary_values(nba_table, "Location"))
        assert set(d.entries) == {"SanFrancsicoCA", "OklahomaCityOK"}

    def test_empty_dictionary_warns(self, caplog):
        table = Table("t", ["A"], [[MISSING], [MISSING]])
        with caplog.at_level("WARNING"):
            d = build_dictionary("A", dictionary_values(table, "A"))
        assert d.entries == ()
        assert any("empty" in r.message for r in caplog.records)

    def test_extra_file_extends_entries(self, nba_table, tmp_path):
        extra = tmp_path / "loc.dict"
        extra.write_text("WheatonIL\n\nBostonMA\n", encoding="utf-8")
        lines = extra.read_text("utf-8").splitlines()
        d = build_dictionary("Location", dictionary_values(nba_table, "Location", lines))
        assert "WheatonIL" in d.entries and "BostonMA" in d.entries
        assert "SanFrancsicoCA" in d.entries

    def test_normalized_matching(self):
        d = Dictionary("Location", ("WheatonIL",))
        tokens = ["about", "wheaton", "il", "today"]
        assert d.match_at(tokens, 1) == ("WheatonIL", 2)
        assert d.match_ending_at(tokens, 3) == ("WheatonIL", 2)
        assert d.match_at(tokens, 0) is None

    def test_longest_match_wins(self):
        d = Dictionary("A", ("New", "New York"))
        assert d.match_at(["new", "york"], 0) == ("New York", 2)
        assert d.match_at(["new", "jersey"], 0) == ("New", 1)

    def test_occurrences(self):
        d = Dictionary("A", ("alpha", "beta gamma"))
        tokens = ["alpha", "x", "beta", "gamma", "alpha"]
        assert d.occurrences(tokens) == [(0, "alpha"), (2, "beta gamma"), (4, "alpha")]


class TestAvgDistance:
    def test_mean_over_present_keywords(self):
        assert avg_distance(10, {"k1": [8], "k2": [14]}) == 3.0

    def test_adjacent_keyword(self):
        assert avg_distance(5, {"k": [6]}) == 1.0

    def test_min_gap_per_keyword(self):
        assert avg_distance(5, {"k": [3, 9]}) == 2.0

    def test_no_keyword_present_is_infinite(self):
        assert avg_distance(5, {"k": []}) == float("inf")
        assert avg_distance(5, {}) == float("inf")


class TestExtractByKeywords:
    def test_worked_snippet(self):
        d = Dictionary("Location", ("WheatonIL", "SanFrancsicoCA", "OklahomaCityOK"))
        result = extract_by_keywords(
            [doc(SNIPPET)], ["WheatonFieldHouse", "Location"], d
        )
        assert result == "WheatonIL"

    def test_no_documents(self):
        d = Dictionary("A", ("x",))
        assert extract_by_keywords([], ["k", "A"], d) is None

    def test_empty_dictionary_returns_none(self, caplog):
        with caplog.at_level("WARNING"):
            assert extract_by_keywords([doc("k x")], ["k", "A"], Dictionary("A", ())) is None

    def test_closer_candidate_wins(self):
        # candidates at token gaps 2 and 7 from the single keyword
        d = Dictionary("A", ("near", "far"))
        text = "anchor pad near pad pad pad pad pad far"
        assert extract_by_keywords([doc(text)], ["anchor", "A"], d) == "near"

    def test_sink_attribute_name_not_anchored(self):
        # the attribute name sits next to the wrong candidate; only the value
        # keyword may anchor distances
        d = Dictionary("Location", ("right", "wrong"))
        text = "anchor right pad pad pad pad location wrong"
        assert extract_by_keywords([doc(text)], ["anchor", "Location"], d) == "right"

    def test_lower_rank_wins_ties(self):
        # rank is list position: the earlier document wins in either order
        d = Dictionary("A", ("one", "two"))
        docs = [doc("anchor two"), doc("anchor one")]
        assert extract_by_keywords(docs, ["anchor", "A"], d) == "two"
        assert extract_by_keywords(docs[::-1], ["anchor", "A"], d) == "one"

    def test_earlier_position_breaks_distance_ties(self):
        d = Dictionary("A", ("bbb", "aaa"))
        # aaa and bbb are both one token from the anchor; aaa sits earlier
        assert extract_by_keywords([doc("aaa anchor bbb")], ["anchor", "A"], d) == "aaa"

    def test_document_without_keywords_contributes_nothing(self):
        d = Dictionary("A", ("lure",))
        docs = [doc("lure right here with no keyword"), doc("anchor lure")]
        assert extract_by_keywords(docs, ["anchor", "A"], d) == "lure"
        # the first document had a closer candidate but no anchor at all

    def test_translation_invariance_within_document(self):
        d = Dictionary("A", ("near", "far"))
        rng = random.Random(8)
        base = "anchor pad near pad pad pad far"
        for _ in range(10):
            prefix = " ".join(f"pad{i}" for i in range(rng.randint(0, 12)))
            assert extract_by_keywords([doc(f"{prefix} {base}")], ["anchor", "A"], d) == "near"

    def test_result_is_always_a_dictionary_entry(self):
        rng = random.Random(9)
        entries = tuple(f"val{i}" for i in range(5))
        d = Dictionary("A", entries)
        vocabulary = list(entries) + ["pad", "anchor", "noise"]
        for _ in range(20):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(3, 30)))
            result = extract_by_keywords([doc(text)], ["anchor", "A"], d)
            assert result is None or result in entries

    def test_adding_matchless_document_never_changes_result(self):
        d = Dictionary("A", ("val",))
        docs = [doc("anchor pad val")]
        base = extract_by_keywords(docs, ["anchor", "A"], d)
        extended = docs + [doc("anchor only here")]
        assert extract_by_keywords(extended, ["anchor", "A"], d) == base
