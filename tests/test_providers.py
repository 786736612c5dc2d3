import http.server
import random
import sys
import threading
import time
from collections import Counter

import pytest

from oracles import (
    frequent_corpus_case,
    random_corpus_case,
    scan_query_oracle,
    scan_ranking_oracle,
    tied_corpus_case,
)
from webimpute import (
    Document,
    HttpProvider,
    LocalCorpusProvider,
    ProviderError,
    Query,
    impute,
)
from webimpute.pipeline import ABSTAINED, FILLED_INTERNAL
from webimpute.providers import load_corpus, strip_tags
from webimpute.textutil import tokenize


class TestQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            Query((), pages=1)
        # 1.5 used to fail inside a query, True to read as 1
        for pages in [0, 1.5, 2.0, True, "2", None]:
            with pytest.raises(ValueError, match="pages must be an integer >= 1"):
                Query(("x",), pages=pages)

    def test_keywords_must_be_a_sequence_of_strings(self):
        # a string used to become the keywords ('a', 'l', 'p', 'h', 'a')
        with pytest.raises(ValueError, match="sequence of strings"):
            Query("alpha")
        for keywords in [(5,), ("x", None), (b"x",)]:
            with pytest.raises(ValueError, match="keywords must be strings"):
                Query(keywords)


class TestLocalProvider:
    def test_unique_match_at_rank_zero(self):
        provider = LocalCorpusProvider(
            [
                ("d1", "something about CivicAuditorium in SanFrancsicoCA today"),
                ("d2", "only CivicAuditorium here"),
                ("d3", "nothing relevant at all"),
            ]
        )
        docs = provider.query(Query(("CivicAuditorium", "SanFrancsicoCA")))
        assert [d.id for d in docs] == ["d1", "d2"]  # zero-score d3 excluded

    def test_no_match_is_empty(self):
        provider = LocalCorpusProvider([("d1", "alpha beta")])
        assert provider.query(Query(("gamma",))) == []

    def test_page_budget_and_rank_contiguity(self):
        # 25 matching docs with controlled scores: the last 5 contain both
        # keywords, so they lead, and the id tie-break orders the rest
        docs = []
        for i in range(25):
            text = "alpha beta" if i >= 20 else "alpha only"
            docs.append((f"d{i:02d}", text))
        provider = LocalCorpusProvider(docs)
        result = provider.query(Query(("alpha", "beta"), pages=2))
        expected = [*range(20, 25), *range(15)]
        assert [d.id for d in result] == [f"d{i:02d}" for i in expected]

    def test_queries_sharing_a_page_share_its_document(self):
        # the index tokenizes each page once; a query builds no Document
        provider = LocalCorpusProvider([("d2", "alpha"), ("d1", "alpha beta")])
        first = provider.query(Query(("alpha",)))
        second = provider.query(Query(("beta",)))
        assert [d.id for d in first] == ["d1", "d2"] and second == first[:1]
        assert second[0] is first[0]

    def test_prefix_property(self):
        docs = [(f"d{i:02d}", "alpha") for i in range(25)]
        provider = LocalCorpusProvider(docs)
        one = provider.query(Query(("alpha",), pages=1))
        two = provider.query(Query(("alpha",), pages=2))
        assert [d.id for d in two[: len(one)]] == [d.id for d in one]

    def test_deterministic(self):
        docs = [(f"d{i}", f"alpha token{i}") for i in range(30)]
        provider = LocalCorpusProvider(docs)
        q = Query(("alpha",), pages=3)
        assert provider.query(q) == provider.query(q)

    def test_ties_break_on_document_id(self):
        provider = LocalCorpusProvider([("b", "alpha"), ("a", "alpha")])
        assert [d.id for d in provider.query(Query(("alpha",)))] == ["a", "b"]

    def test_score_counts_distinct_keywords(self):
        # duplicates collapse: "a" scores 1 and ranks after "b" (2), where a
        # repeated keyword counted twice would tie it with "b" and win on id
        provider = LocalCorpusProvider([("a", "alpha gamma alpha"), ("b", "alpha beta")])
        docs = provider.query(Query(("alpha", "alpha", "beta")))
        assert [d.id for d in docs] == ["b", "a"]

    def test_multi_token_keyword_is_sequence_match(self):
        provider = LocalCorpusProvider(
            [("d1", "the Golden State Warriors won"), ("d2", "golden gate state")]
        )
        docs = provider.query(Query(("Golden State Warriors",)))
        assert [d.id for d in docs] == ["d1"]

    def test_case_folding_and_punctuation(self):
        provider = LocalCorpusProvider([("d", "Wheaton, IL: reviews")])
        assert provider.query(Query(("wheaton il",)))
        assert provider.query(Query(("WHEATON",)))

    def test_page_size_must_be_positive(self):
        # 2.5 used to fail at the first query with "slice indices must be integers"
        for page_size in [0, 2.5, 2.0, True, "2"]:
            with pytest.raises(ValueError, match="page_size must be an integer >= 1"):
                LocalCorpusProvider([("d", "alpha")], page_size=page_size)

    def test_malformed_documents_are_rejected_at_construction(self):
        # "ab" used to be the page "b" with id "a"; a None text failed at the
        # first query, an int id became Document(1, ...), and an int id next
        # to a str one failed in the first query's sort
        cases = [
            (["ab"], 0),
            ([("d", "alpha"), ("d", None)], 1),
            ([(1, "alpha")], 0),
            ([("a", "alpha"), (2, "alpha")], 1),
            ([("a", "alpha", "beta")], 0),
            ([("a", "alpha"), ("b",)], 1),
            ([None], 0),
        ]
        for docs, position in cases:
            with pytest.raises(ValueError, match=f"document {position} must be an"):
                LocalCorpusProvider(docs)

    def test_list_and_tuple_pairs_mix(self):
        provider = LocalCorpusProvider([["b", "alpha"], ("a", "alpha beta"), ["a", "alpha"]])
        docs = provider.query(Query(("alpha",)))
        assert [(d.id, d.tokens) for d in docs] == [
            ("a", ("alpha",)), ("a", ("alpha", "beta")), ("b", ("alpha",))
        ]

    def test_index_matches_scan_oracle(self):
        rng = random.Random(20261017)
        shapes = Counter()
        for _ in range(250):
            docs, queries, page_size = random_corpus_case(rng)
            provider = LocalCorpusProvider(docs, page_size=page_size)
            for q in queries + queries[:1]:  # the repeat ranks again on the same index
                assert provider.query(q) == scan_query_oracle(docs, q, page_size)
            shapes.update(shape for q in queries for shape in _shapes(docs, q, page_size))
        minimum = {"one needle": 80, "absent token": 150, "same needle": 5,
                   "three needles": 150, "cut all above 1": 20}
        assert all(shapes[name] >= n for name, n in minimum.items()), shapes

    def test_ties_across_the_page_cut_match_scan_oracle(self):
        # shared ids with differing texts: the tie-break reads the text too
        rng = random.Random(20261019)
        straddling = 0
        for _ in range(300):
            docs, q, page_size = tied_corpus_case(rng)
            cut = q.pages * page_size
            ranked = scan_ranking_oracle(docs, q)
            (last_score, last), (next_score, after) = ranked[cut - 1], ranked[cut]
            straddling += last_score == next_score and last.id == after.id
            provider = LocalCorpusProvider(docs, page_size=page_size)
            assert provider.query(q) == [doc for _, doc in ranked[:cut]]
        assert straddling >= 100, straddling

    def test_frequent_keywords_match_scan_oracle(self):
        # several lists longer than the cut: a query reads only their heads
        rng = random.Random(20261020)
        long_lists = inside_level = 0
        shapes = Counter()
        for _ in range(400):
            docs, q, page_size = frequent_corpus_case(rng)
            shapes.update(_shapes(docs, q, page_size))
            cut = q.pages * page_size
            needles = {tokenize(kw) for kw in q.keywords} - {()}
            lengths = [len(scan_ranking_oracle(docs, Query((" ".join(n),)))) for n in needles]
            long_lists += sum(n > cut for n in lengths) >= 2
            ranked = scan_ranking_oracle(docs, q)
            inside_level += len(ranked) > cut and ranked[cut - 1][0] == ranked[cut][0]
            provider = LocalCorpusProvider(docs, page_size=page_size)
            assert provider.query(q) == [doc for _, doc in ranked[:cut]]
        assert long_lists >= 100 and inside_level >= 100, (long_lists, inside_level)
        minimum = {"one needle": 30, "absent token": 100, "same needle": 20,
                   "three needles": 100, "cut all above 1": 100}
        assert all(shapes[name] >= n for name, n in minimum.items()), shapes

    def test_queries_leave_the_index_as_built(self):
        # a one-token keyword's match list is its posting list itself, so a
        # query that changed one would corrupt every later answer reading it
        rng = random.Random(20261024)
        docs, _, page_size = frequent_corpus_case(rng)
        queries = [frequent_corpus_case(rng)[1] for _ in range(200)]
        provider = LocalCorpusProvider(docs, page_size=page_size)
        for q in queries:
            assert provider.query(q) == scan_query_oracle(docs, q, page_size)
        fresh = LocalCorpusProvider(docs, page_size=page_size)
        fresh._index()
        assert provider._postings == fresh._postings

    def test_repeated_queries_match_scan_oracle(self):
        # the same keywords at another page budget are another question with
        # a longer or shorter answer, and asking again ranks the same again
        rng = random.Random(20261021)
        budgets_differ = 0
        for case in [frequent_corpus_case] * 150 + [tied_corpus_case] * 150:
            docs, q, page_size = case(rng)
            other = Query(q.keywords, q.pages % 3 + 1)
            provider = LocalCorpusProvider(docs, page_size=page_size)
            order = [q, other] if rng.random() < 0.5 else [other, q]
            answers = [provider.query(query) for query in order * 2]
            for query, answer in zip(order * 2, answers):
                assert answer == scan_query_oracle(docs, query, page_size)
            budgets_differ += answers[0] != answers[1]
        assert budgets_differ >= 150, budgets_differ

    def test_concurrent_first_queries_match_serial(self):
        # r3 (12 pages) is rarer than the 20-page cut, gamma is on every page
        docs = [(f"d{i:03d}", f"alpha beta w{i % 7} r{i % 25} gamma {i}") for i in range(300)]
        queries = [
            Query(("alpha beta", "w3", "gamma"), pages=2),
            Query(("gamma", "r3"), pages=2),
        ]
        serial = LocalCorpusProvider(docs)
        expected = {q: serial.query(q) for q in queries}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                provider = LocalCorpusProvider(docs)
                barrier = threading.Barrier(4)
                results = [None] * 4
                repeats = [None] * 4

                def first_query(slot):
                    barrier.wait(timeout=10)
                    order = queries if slot % 2 else queries[::-1]
                    results[slot] = {q: provider.query(q) for q in order}
                    # the repeats read the match memo that the first queries raced to fill
                    repeats[slot] = {q: provider.query(q) for q in order}

                threads = [
                    threading.Thread(target=first_query, args=(i,)) for i in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert results == [expected] * 4
                assert repeats == [expected] * 4
        finally:
            sys.setswitchinterval(old_interval)


class TestCorpusFile:
    def test_load_and_query(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "text": "one two"}\n\n{"id": "b", "text": "three"}\n'
            '{"id": 7, "text": "four"}\n',
            encoding="utf-8",
        )
        assert load_corpus(path) == [("a", "one two"), ("b", "three"), ("7", "four")]

    def test_bad_line_reports_position(self, tmp_path):
        # a page is its text as written: a null text must not become the page "None"
        path = tmp_path / "c.jsonl"
        bad_lines = [
            '{"nope": 1}',
            '{"id": "b", "text": null}',
            '{"id": "b", "text": ["x"]}',
            '{"id": null, "text": "x"}',
        ]
        for bad in bad_lines:
            path.write_text(f'{{"id": "a", "text": "x"}}\n{bad}\n', encoding="utf-8")
            with pytest.raises(ValueError, match="line 2"):
                load_corpus(path)


class TestHttpProvider:
    def test_template_must_have_placeholder(self):
        with pytest.raises(ValueError):
            HttpProvider("http://example.com/search")

    def test_template_with_whitespace_or_control_characters_is_rejected(self):
        # http.client refuses such a URL at every request (InvalidURL)
        for bad in (" x", "\t", "\n", "\x00", "\x7f"):
            with pytest.raises(ValueError, match="whitespace or control characters"):
                HttpProvider("http://127.0.0.1:9/s?q={query}" + bad)

    def test_template_with_non_ascii_path_or_query_is_rejected(self):
        # http.client encodes the request line as ASCII: UnicodeEncodeError at every GET
        for bad in (
            "http://127.0.0.1:9/s?q={query}&l=\u00fc", "http://127.0.0.1:9/\u00fc?q={query}"
        ):
            with pytest.raises(ValueError, match="ASCII in its path and query"):
                HttpProvider(bad)

    def test_user_agent_with_a_line_break_is_rejected(self):
        # http.client refuses the header at every GET: "Invalid header value"
        for bad in ("webimpute\n", "web\r\nX-Injected: 1"):
            with pytest.raises(ValueError, match="user_agent must be a Latin-1 header value"):
                HttpProvider("http://127.0.0.1:9/?q={query}", user_agent=bad)

    def test_user_agent_outside_latin_1_is_rejected(self):
        # http.client encodes header values as Latin-1: UnicodeEncodeError at every GET
        with pytest.raises(ValueError, match="user_agent must be a Latin-1 header value"):
            HttpProvider("http://127.0.0.1:9/?q={query}", user_agent="webimpute \u20ac")

    def test_idna_host_non_ascii_fragment_and_latin_1_agent_are_accepted(self, http_server):
        HttpProvider("http://b\u00fccher.invalid/s?q={query}")  # the host is IDNA-encoded
        port, requests = http_server
        provider = HttpProvider(
            f"http://127.0.0.1:{port}/?q={{query}}#\u00fc", user_agent="webimpute \u00fc",
            delay_ms=0,
        )
        (doc,) = provider.query(Query(("alpha",)))  # the fragment is never sent
        assert requests == ["/?q=alpha"] and doc.tokens == ("alpha", "beta")

    def test_unreachable_host_raises_provider_error(self):
        provider = HttpProvider(
            "http://127.0.0.1:9/search?q={query}", delay_ms=0, timeout_ms=500
        )
        with pytest.raises(ProviderError):
            provider.query(Query(("alpha",)))

    def test_constructor_rejects_bad_delay_and_timeout(self):
        template = "http://127.0.0.1:9/?q={query}"
        for delay_ms in (-1, True, 2.5, "5"):
            with pytest.raises(ValueError, match="delay_ms"):
                HttpProvider(template, delay_ms=delay_ms)
        for timeout_ms in (0, -5, True, 2.5, "5"):
            with pytest.raises(ValueError, match="timeout_ms"):
                HttpProvider(template, timeout_ms=timeout_ms)
        with pytest.raises(ValueError, match="user_agent"):
            HttpProvider(template, user_agent=5)

    def test_pages_fetched_and_tags_stripped(self, http_server):
        port, _ = http_server
        provider = HttpProvider(f"http://127.0.0.1:{port}/?q={{query}}&p={{page}}", delay_ms=0)
        docs = provider.query(Query(("alpha",), pages=2))
        assert len(docs) == 2
        assert docs[0].tokens == docs[1].tokens == ("alpha", "beta")  # no html, body, p
        assert "p=1" in docs[0].id and "p=2" in docs[1].id

    def test_pages_without_a_page_placeholder_make_one_request(self, http_server):
        # every page would be the same URL: one web access, one document
        port, requests = http_server
        paged = HttpProvider(f"http://127.0.0.1:{port}/?q={{query}}&p={{page}}", delay_ms=0)
        assert len(paged.query(Query(("alpha",), pages=3))) == 3
        assert requests == ["/?q=alpha&p=1", "/?q=alpha&p=2", "/?q=alpha&p=3"]
        requests.clear()
        single = HttpProvider(f"http://127.0.0.1:{port}/?q={{query}}", delay_ms=0)
        (doc,) = single.query(Query(("alpha",), pages=3))
        assert requests == ["/?q=alpha"] and doc.id.endswith("/?q=alpha")

    @pytest.mark.parametrize("http_server", ["truncated"], indirect=True)
    def test_truncated_body_raises_provider_error(self, http_server):
        port, _ = http_server
        provider = HttpProvider(f"http://127.0.0.1:{port}/?q={{query}}", delay_ms=0)
        with pytest.raises(ProviderError, match="IncompleteRead"):
            provider.query(Query(("alpha",)))

    @pytest.mark.parametrize("http_server", ["truncated"], indirect=True)
    def test_impute_abstains_on_every_web_cell_of_a_truncating_server(
        self, http_server, nba_table, nba_ruleset, nba_config
    ):
        port, requests = http_server
        provider = HttpProvider(f"http://127.0.0.1:{port}/?q={{query}}", delay_ms=0)
        _, report = impute(nba_table, nba_ruleset, nba_config, provider)
        assert requests  # the cells queried, and every answer failed
        web = [
            o for o in report.outcomes
            if o.outcome != FILLED_INTERNAL and o.reason != "no feasible keyword group"
        ]
        assert len(web) == 5
        assert all((o.outcome, o.reason) == (ABSTAINED, "provider error") for o in web)

    def test_delay_applies_between_queries(self, http_server):
        port, _ = http_server
        provider = HttpProvider(f"http://127.0.0.1:{port}/?q={{query}}", delay_ms=150)
        start = time.monotonic()
        provider.query(Query(("alpha",)))
        provider.query(Query(("beta",)))
        assert time.monotonic() - start >= 0.15


@pytest.fixture
def http_server(request):
    """A local HTTP server answering every GET with one small page; yields its
    port and the list of the paths it was sent, in order.  Parametrized with
    ``"truncated"``, it declares a ``Content-Length`` longer than the page."""
    requests = []
    missing = 10 if getattr(request, "param", None) == "truncated" else 0

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            requests.append(self.path)
            body = b"<html><body><p>alpha beta</p></body></html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body) + missing))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], requests
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _shapes(docs, q: Query, page_size: int) -> set[str]:
    """The cases of the ranking that ``q`` on ``docs`` exercises."""
    needles: dict[tuple[str, ...], set[str]] = {}
    for kw in q.keywords:
        needles.setdefault(tokenize(kw), set()).add(kw)
    needles.pop((), None)
    vocabulary = {token for _, text in docs for token in tokenize(text)}
    cut = q.pages * page_size
    ranked = scan_ranking_oracle(docs, q)
    shapes = {
        "one needle": len(needles) == 1,
        "three needles": len(needles) >= 3,
        "absent token": any(t not in vocabulary for n in needles for t in n),
        "same needle": any(len(kws) >= 2 for kws in needles.values()),
        "cut all above 1": len(ranked) >= cut and ranked[cut - 1][0] >= 2,
    }
    return {name for name, seen in shapes.items() if seen}


def test_strip_tags_unescapes_entities():
    assert strip_tags("<b>a &amp; b</b>").strip() == "a & b"


def test_document_is_frozen():
    doc = Document("d", ("text",))
    with pytest.raises(AttributeError):
        doc.tokens = ("other",)
