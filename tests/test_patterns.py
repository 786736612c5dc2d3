import random
from collections import Counter

import pytest

from oracles import CountingProvider, make_table, maximal_patterns_oracle, random_mining_case
from webimpute import (
    Dictionary,
    LocalCorpusProvider,
    Pattern,
    extract_by_pattern,
    load_patterns,
    mine_patterns,
    save_patterns,
)
from webimpute.patterns import FORWARD, REVERSE, MiningError, context_supports
from webimpute.tabular import MISSING


@pytest.fixture
def principal_fixture():
    table = make_table(
        ["principal", "university"],
        [
            ["YuZhou", "Harbin Institute Of technology"],
            ["YongQiu", "Tsinghua University"],
            ["Enge Wang", "Peking University"],
        ],
    )
    provider = LocalCorpusProvider(
        [
            ("s1", "YuZhou is the principal of Harbin Institute Of technology"),
            ("s2", "YongQiu is the present principal of Tsinghua University"),
            ("s3", "Enge Wang served as the principal of Peking University"),
        ]
    )
    return table, provider


@pytest.fixture
def film_fixture():
    films = [
        ("The Shawshank Redemption", "Frank Darabont"),
        ("The Godfather", "Francis Ford Coppola"),
        ("Pulp Fiction", "Quentin Tarantino"),
        ("Schindler's List", "Steven Allan Spielberg"),
        ("Fight Club", "David Fincher"),
        ("One Flew Over the Cuckoo's Nest", "Milos Forman"),
        ("Inception", "Christopher Nolan"),
    ]
    table = make_table(["Film", "Director"], [list(f) for f in films])
    provider = LocalCorpusProvider(
        [(f"f{i}", f"{film} director {director}.") for i, (film, director) in enumerate(films)]
    )
    return table, provider


class TestMine:
    def test_principal_pattern_is_exactly_one(self, principal_fixture):
        table, provider = principal_fixture
        patterns = mine_patterns(
            provider, table, ("principal", "university"), min_support=2
        )
        assert len(patterns) == 1
        (p,) = patterns
        assert p.context == ("the", "principal", "of")
        assert p.direction == FORWARD
        assert p.support == 2

    def test_film_pattern(self, film_fixture):
        table, provider = film_fixture
        patterns = mine_patterns(provider, table, ("Film", "Director"),
                                 min_support=5, sample=7)
        assert [p.context for p in patterns] == [("director",)]
        assert patterns[0].support == 7
        assert patterns[0].direction == FORWARD

    def test_values_never_cooccurring(self):
        table = make_table(["A", "B"], [["alpha", "beta"]])
        provider = LocalCorpusProvider([("d1", "alpha alone"), ("d2", "beta alone")])
        assert mine_patterns(provider, table, ("A", "B"), min_support=1) == []

    def test_no_complete_tuples_is_an_error(self):
        table = make_table(["A", "B"], [["alpha", MISSING]])
        provider = LocalCorpusProvider([])
        with pytest.raises(MiningError, match="no mining evidence"):
            mine_patterns(provider, table, ("A", "B"), min_support=1)

    def test_cooccurrence_beyond_max_gap_ignored(self):
        table = make_table(["A", "B"], [["alpha", "omega"]])
        filler = " ".join(f"w{i}" for i in range(9))
        provider = LocalCorpusProvider([("d", f"alpha {filler} omega")])
        assert mine_patterns(provider, table, ("A", "B"), min_support=1) == []
        near = LocalCorpusProvider([("d", "alpha linked to omega")])
        assert mine_patterns(near, table, ("A", "B"), min_support=1)

    def test_reverse_direction(self):
        table = make_table(["A", "B"], [["alpha", "beta"], ["gamma", "delta"]])
        provider = LocalCorpusProvider(
            [("d1", "beta comes from alpha"), ("d2", "delta comes from gamma")]
        )
        patterns = mine_patterns(provider, table, ("A", "B"), min_support=2)
        (p,) = patterns
        assert p.direction == REVERSE
        assert p.context == ("comes", "from")

    def test_support_recount_is_consistent(self, principal_fixture):
        table, provider = principal_fixture
        patterns = mine_patterns(provider, table, ("principal", "university"), 2)
        supports = context_supports(provider, table, ("principal", "university"), 5, 5)
        for p in patterns:
            assert supports[(p.context, p.direction)] == p.support

    def test_raising_threshold_never_adds_raw_candidates(self, principal_fixture):
        table, provider = principal_fixture
        supports = context_supports(provider, table, ("principal", "university"), 5, 5)
        for q1, q2 in [(1, 2), (2, 3), (3, 5)]:
            low = {c for c, n in supports.items() if n >= q1}
            high = {c for c, n in supports.items() if n >= q2}
            assert high <= low

    @pytest.mark.parametrize(
        "name, value",
        [("min_support", 0), ("sample", 0), ("sample", -3), ("pages", 0), ("max_gap", 0)]
        + [
            (name, value)
            for name in ("min_support", "sample", "pages", "max_gap")
            for value in (True, 2.5)
        ],
    )
    def test_min_support_validated(self, principal_fixture, name, value):
        table, provider = principal_fixture
        provider = CountingProvider(provider)
        counts = {"min_support": 2, name: value}
        with pytest.raises(ValueError, match=name):
            mine_patterns(provider, table, ("principal", "university"), **counts)
        assert provider.queries == []  # rejected before the first query

    def test_value_without_tokens_costs_no_query(self):
        table = make_table(["A", "B"], [["alpha", "--"], ["gamma", "delta"]])
        provider = CountingProvider(
            LocalCorpusProvider([("d1", "alpha -- beta"), ("d2", "gamma in delta")])
        )
        supports = context_supports(provider, table, ("A", "B"), sample=5, pages=1)
        assert provider.queries == [("gamma", "delta")]
        assert supports == Counter({(("in",), FORWARD): 1})


def test_maximal_patterns_match_pairwise_oracle_on_random_corpora():
    rng = random.Random(6060)
    covered = Counter()  # qualifying contexts dropped as non-maximal, per direction
    for case in range(150):
        table, provider = random_mining_case(rng)
        pair, sample, pages = ("A", "B"), rng.randint(1, 6), rng.randint(1, 2)
        for max_gap in range(1, 9):
            supports = context_supports(provider, table, pair, sample, pages, max_gap)
            for min_support in (1, 2, 3):
                got = mine_patterns(provider, table, pair, min_support, sample, pages, max_gap)
                expected = maximal_patterns_oracle(supports, pair, min_support)
                assert got == expected, (case, max_gap, min_support)
                for (_, direction), count in supports.items():
                    covered[direction] += count >= min_support
                for p in got:
                    covered[p.direction] -= 1
    assert covered[FORWARD] >= 20 and covered[REVERSE] >= 20, covered


class TestExtract:
    def test_worked_arena_location_snippet(self):
        pattern = Pattern("Arena", "Location", ("in",), FORWARD, 2)
        provider = LocalCorpusProvider(
            [
                ("d0", "Get information about WheatonFieldHouse in Wheaton, IL, "
                       "including location, directions, reviews and photos."),
            ]
        )
        d = Dictionary("Location", ("WheatonIL", "SanFrancsicoCA"))
        assert extract_by_pattern(pattern, "WheatonFieldHouse", provider, d) == "WheatonIL"

    def test_film_director_extraction(self, film_fixture):
        table, _ = film_fixture
        pattern = Pattern("Film", "Director", ("director",), FORWARD, 7)
        provider = LocalCorpusProvider(
            [("d", "Se7en director David Fincher came up at the panel.")]
        )
        d = Dictionary("Director", tuple(r[1] for r in table.rows))
        assert extract_by_pattern(pattern, "Se7en", provider, d) == "David Fincher"

    def test_reverse_pattern_reads_before_context(self):
        pattern = Pattern("Film", "Director", ("director", "of"), REVERSE, 7)
        provider = LocalCorpusProvider([("d", "David Fincher director of Fight Club.")])
        d = Dictionary("Director", ("David Fincher", "Milos Forman"))
        assert extract_by_pattern(pattern, "Fight Club", provider, d) == "David Fincher"

    def test_context_may_float_away_from_known_value(self):
        # the pattern context is anchored at the unknown side; extra words next
        # to the known value must not break extraction
        pattern = Pattern("principal", "university", ("the", "principal", "of"), FORWARD, 2)
        provider = LocalCorpusProvider(
            [("d", "Bo Li is currently the principal of Fudan University")]
        )
        d = Dictionary("university", ("Fudan University", "Peking University"))
        assert extract_by_pattern(pattern, "Bo Li", provider, d) == "Fudan University"

    def test_no_document_with_known_value(self):
        pattern = Pattern("A", "B", ("in",), FORWARD, 1)
        provider = LocalCorpusProvider([("d", "unrelated text in here")])
        assert extract_by_pattern(pattern, "alpha", provider, Dictionary("B", ("x",))) is None

    def test_dictionary_miss_returns_none(self):
        pattern = Pattern("A", "B", ("in",), FORWARD, 1)
        provider = LocalCorpusProvider([("d", "alpha in unknownvalue")])
        assert extract_by_pattern(pattern, "alpha", provider, Dictionary("B", ("x",))) is None

    def test_value_without_tokens_or_context_beyond_max_gap_costs_no_query(self):
        rows = [[f"a{i}", f"b{i}"] for i in range(3)]
        provider = CountingProvider(
            LocalCorpusProvider(
                [(f"d{i}", f"{a} is the home town of {b}") for i, (a, b) in enumerate(rows)]
            )
        )
        table = make_table(["A", "B"], rows)
        (pattern,) = mine_patterns(provider, table, ("A", "B"), 3, sample=3, max_gap=8)
        assert pattern.context == ("is", "the", "home", "town", "of")
        d = Dictionary("B", tuple(b for _, b in rows))
        assert extract_by_pattern(pattern, "a1", provider, d, max_gap=8) == "b1"
        provider.queries.clear()
        assert extract_by_pattern(pattern, "!!", provider, d) is None
        assert extract_by_pattern(pattern, "a1", provider, d, max_gap=2) is None
        assert provider.queries == []

    def test_context_at_the_page_edge_reads_no_value(self):
        d = Dictionary("B", ("beta",))
        forward = Pattern("A", "B", ("in",), FORWARD, 1)  # the context ends the page
        provider = LocalCorpusProvider([("d", "alpha in")])
        assert extract_by_pattern(forward, "alpha", provider, d) is None
        reverse = Pattern("A", "B", ("in",), REVERSE, 1)  # the context starts the page
        provider = LocalCorpusProvider([("d", "in alpha")])
        assert extract_by_pattern(reverse, "alpha", provider, d) is None


def test_mine_then_extract_round_trip():
    # corpora generated from a template recover masked values exactly
    rng = random.Random(7)
    contexts = [["of"], ["made", "by"], ["belongs", "to", "the"]]
    for trial in range(10):
        ctx = rng.choice(contexts)
        n = rng.randint(4, 8)
        rows = [[f"left{trial}{i}", f"right{trial}{i}"] for i in range(n)]
        table = make_table(["A", "B"], rows)
        provider = LocalCorpusProvider(
            [(f"d{i}", f"{a} {' '.join(ctx)} {b}.") for i, (a, b) in enumerate(rows)]
        )
        patterns = mine_patterns(provider, table, ("A", "B"), min_support=n - 1, sample=n)
        assert patterns, f"no pattern for context {ctx}"
        target = rng.randrange(n)
        d = Dictionary("B", tuple(r[1] for r in rows))
        value = extract_by_pattern(patterns[0], rows[target][0], provider, d)
        assert value == rows[target][1]


def test_pattern_json_round_trip(tmp_path):
    patterns = [
        Pattern("A", "B", ("in",), FORWARD, 4),
        Pattern("A", "B", ("made", "by"), REVERSE, 2),
    ]
    path = tmp_path / "patterns.json"
    save_patterns(patterns, path)
    assert load_patterns(path) == patterns


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern("A", "B", (), FORWARD, 1)
    with pytest.raises(ValueError):
        Pattern("A", "B", ("x",), "sideways", 1)
