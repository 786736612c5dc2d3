"""Retrieval interface: keywords and a page budget in, ranked documents out.

A result is a list of ``Document(id, tokens)``, best first: list order is
the only statement of rank, and no provider returns a score; the provider
is the only code that tokenizes a page.  :class:`LocalCorpusProvider` serves
a JSON-Lines corpus deterministically and is what tests and experiments run
against; :class:`HttpProvider` is a thin live HTTP client (one GET per
distinct page URL, tags stripped, no engine-specific parsing) whose failures
surface as :class:`ProviderError` so a pipeline can record the cell as
unfilled instead of crashing: an ``OSError`` (a ``URLError`` or a timeout),
a ``ValueError`` or an ``http.client.HTTPException`` (an ``IncompleteRead``
body shorter than its ``Content-Length``, an ``InvalidURL``).

The local provider keeps the top ``k = pages * page_size`` documents without
scoring every match (MaxScore-style pruning: Turtle and Flood, IP&M 1995).
A page that matches two or more keywords lies on one of the shorter match
lists, so those are scored exactly; the rest of the result is score-1 pages
in index order, and the first ``n`` of them lie within the first ``k``
entries of each list, which is all a query reads of its longest list.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.parse  # light: no socket, ssl or email behind it
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from .tabular import check_count, read_text
from .textutil import find_token_seq, tokenize

PAGE_SIZE = 10
"""Default number of documents per result page."""


class ProviderError(RuntimeError):
    """Retryable retrieval failure (network, HTTP status, rate limit)."""


@dataclass(frozen=True)
class Query:
    keywords: tuple[str, ...]
    pages: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.keywords, str):
            raise ValueError(f"keywords must be a sequence of strings, got {self.keywords!r}")
        object.__setattr__(self, "keywords", tuple(self.keywords))
        if not self.keywords:
            raise ValueError("query needs at least one keyword")
        if any(type(kw) is not str for kw in self.keywords):
            raise ValueError(f"keywords must be strings, got {self.keywords!r}")
        check_count("pages", self.pages)


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[str, ...]


class SearchProvider(Protocol):  # pragma: no cover - structural type only
    """What the pipeline queries.

    A provider whose answer to a query may change from one call to the next,
    such as a live web search, sets the class attribute ``live = True`` and
    is asked every time.  A provider without it declares its answer a pure
    function of the query, so the pipeline may reuse it: what is reused, and
    for how long, is stated once, in ``pipeline.SweepMemo``.
    """

    def query(self, q: Query) -> list[Document]:
        """Documents best first: a document's rank is its index in the list."""


def load_corpus(path: str | Path) -> list[tuple[str, str]]:
    """Read a JSON-Lines corpus: one {"id": str or int, "text": str} object per line."""
    docs = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if type(obj["id"]) not in (str, int) or type(obj["text"]) is not str:
                raise TypeError(f"id must be a string or integer, text a string: {obj!r}")
            docs.append((str(obj["id"]), obj["text"]))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: bad corpus line {lineno}: {exc}") from None
    return docs


class LocalCorpusProvider:
    """Deterministic retrieval over an in-memory corpus.

    Documents rank by score, the number of distinct case-folded query keywords
    whose token sequence occurs in them; zero-score documents are excluded and
    ties break on ``(id, text)``.  Results are a pure function of
    (corpus, query), and growing the page budget only extends the list.

    The corpus is a sequence of ``(id, text)`` pairs of strings, each a tuple
    or a list; any other entry is a ``ValueError`` naming its position, raised
    here and not at the first query.

    The first query tokenizes each page into one ``Document`` in ``(id, text)``
    order, so a document's index is its tie-break, and builds a token -> index
    inverted index (once, under a lock, since callers may share one provider
    across threads); queries return these same objects.  A keyword's match
    list, in index order, is its token's posting list itself (``()`` for a
    token absent from the corpus), which no query changes; or, for a
    multi-token keyword, the documents on its rarest token's posting list
    that contain the whole sequence, memoised per keyword.

    A query computes exactly ``sorted((-score, index))[:k]``, ``k`` being
    ``pages * page_size``, without counting every match:

    1. Order the ``m`` keywords' match lists by length.
    2. A page with score ``s >= 2`` is on at least two lists, so on at least
       one of the ``m - 1`` shortest (pigeonhole).  Count the pages of those
       lists, add one for each found in the longest list (by bisection), and
       rank the pages scoring 2 or more by ``(-score, index)``: every such
       page is among them, each with its exact score.
    3. The other pages score 1 and are each on exactly one list; they fill
       the remaining ``n = k - h`` slots in index order, ``h`` being the
       number of pages ranked in step 2.  At most ``h`` entries of a list
       score more than 1, so its first ``n`` score-1 pages lie within its
       first ``n + h = k`` entries, and the first ``n`` score-1 pages
       overall are among those prefixes: a query reads no more of a list.

    The steps hold for any number of keywords, so there is one path: with
    one, step 2 counts nothing and step 3 reads the first ``k`` entries.
    """

    def __init__(self, docs: Iterable[tuple[str, str]], page_size: int = PAGE_SIZE):
        check_count("page_size", page_size)
        self.docs = list(docs)
        for n, doc in enumerate(self.docs):
            if type(doc) is list:  # a list and a tuple do not compare
                self.docs[n] = doc = tuple(doc)
            if type(doc) is not tuple or len(doc) != 2 or not (
                type(doc[0]) is str and type(doc[1]) is str
            ):
                raise ValueError(f"document {n} must be an (id, text) pair of strings: {doc!r}")
        self.page_size = page_size
        self._lock = threading.Lock()
        self._documents: list[Document] | None = None
        self._postings: dict[str, list[int]] = {}
        self._matches: dict[tuple[str, ...], list[int]] = {}

    @classmethod
    def from_jsonl(cls, path: str | Path, page_size: int = PAGE_SIZE) -> "LocalCorpusProvider":
        return cls(load_corpus(path), page_size=page_size)

    def _index(self) -> list[Document]:
        """The documents in ``(id, text)`` order, tokenized and indexed on first use."""
        with self._lock:
            if self._documents is None:
                documents = [Document(id_, tokenize(text)) for id_, text in sorted(self.docs)]
                postings = defaultdict(list)
                for i, doc in enumerate(documents):
                    for token in set(doc.tokens):
                        postings[token].append(i)
                self._postings = dict(postings)
                self._documents = documents
            return self._documents

    def _match(self, needle: tuple[str, ...], docs: list[Document]) -> Sequence[int]:
        """Indices of the documents containing the token sequence ``needle``."""
        if len(needle) == 1:
            return self._postings.get(needle[0], ())
        found = self._matches.get(needle)
        if found is None:  # racing threads store equal lists, so no lock
            rarest = min([self._postings.get(t, ()) for t in needle], key=len)
            found = [i for i in rarest if find_token_seq(docs[i].tokens, needle)]
            self._matches[needle] = found
        return found

    def query(self, q: Query) -> list[Document]:
        docs = self._index()
        needles = dict.fromkeys([tokenize(kw) for kw in q.keywords])
        needles.pop((), None)
        lists = sorted([self._match(n, docs) for n in needles], key=len)
        if not lists:
            return []
        cut = q.pages * self.page_size
        longest = lists[-1]
        scores: dict[int, int] = {}  # exact for every page on a shorter list (step 2)
        for found in lists[:-1]:
            for i in found:
                scores[i] = scores.get(i, 0) + 1
        for i in scores:
            j = bisect_left(longest, i)
            scores[i] += j < len(longest) and longest[j] == i
        ranked = [i for _, i in sorted([(-s, i) for i, s in scores.items() if s > 1])]
        # step 3: a page absent from ``scores`` is on the longest list only
        ranked += sorted([i for found in lists for i in found[:cut] if scores.get(i, 1) == 1])
        return [docs[i] for i in ranked[:cut]]


_TAG_RE = re.compile(r"<[^>]*>")


def strip_tags(markup: str) -> str:
    import html  # only a web page has tags: a local run never loads it

    return html.unescape(_TAG_RE.sub(" ", markup))


class HttpProvider:
    """Generic live search over a URL template with a ``{query}`` placeholder.

    With a ``{page}`` placeholder, one request per page, the placeholder
    receiving the 1-based page number; without one, every page would be the
    same URL, so a query makes one request.  Each tokenized response page
    becomes one document.
    Intentionally engine-agnostic: no result parsing beyond tag stripping.
    Consecutive requests, within a query or across queries, start at least
    ``delay_ms`` after the previous one finished.
    """

    live = True  # a page can change between requests: no answer is shared

    def __init__(
        self,
        url_template: str,
        delay_ms: int = 1000,
        user_agent: str = "webimpute/0.1",
        timeout_ms: int = 10000,
    ):
        if "{query}" not in url_template:
            raise ValueError("url_template must contain a {query} placeholder")
        if re.search(r"[\x00-\x20\x7f]", url_template):  # every GET would fail
            raise ValueError("url_template must not hold whitespace or control characters")
        parts = urllib.parse.urlsplit(url_template)  # a non-ASCII host is IDNA-encoded
        if parts.scheme not in ("http", "https"):  # urllib: "unknown url type"
            raise ValueError(f"url_template must be an http or https URL, got {url_template!r}")
        if not parts.hostname:  # urllib: "no host given"
            raise ValueError(f"url_template must name a host, got {url_template!r}")
        try:
            parts.port  # a non-numeric or out-of-range port raises
        except ValueError as exc:
            raise ValueError(f"url_template has a bad port: {exc}") from None
        if not (parts.path + parts.query).isascii():  # the request line must be ASCII
            raise ValueError("url_template must be ASCII in its path and query")
        check_count("delay_ms", delay_ms, least=0)
        check_count("timeout_ms", timeout_ms)
        if type(user_agent) is not str:
            raise ValueError(f"user_agent must be a string, got {user_agent!r}")
        # every GET would fail: a header value goes out as Latin-1, on one line
        if re.search(r"[^\t\x20-\x7e\x80-\xff]", user_agent):
            raise ValueError(f"user_agent must be a Latin-1 header value, got {user_agent!r}")
        self.url_template = url_template
        self.delay_ms = delay_ms
        self.user_agent = user_agent
        self.timeout_ms = timeout_ms
        self._lock = threading.Lock()
        self._last_request: float | None = None  # monotonic end of the last GET

    def query(self, q: Query) -> list[Document]:
        # the HTTP stack (with ssl and email) loads on the first web request,
        # so a run that makes none does not pay for it
        import http.client
        import urllib.request

        encoded = urllib.parse.quote_plus(" ".join(q.keywords))
        template = self.url_template.replace("{query}", encoded)
        pages = q.pages if "{page}" in self.url_template else 1
        out = []
        for page in range(1, pages + 1):
            url = template.replace("{page}", str(page))
            request = urllib.request.Request(url, headers={"User-Agent": self.user_agent})
            with self._lock:
                if self._last_request is not None:
                    wait = self._last_request + self.delay_ms / 1000.0 - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
                try:
                    with urllib.request.urlopen(
                        request, timeout=self.timeout_ms / 1000.0
                    ) as resp:
                        body = resp.read().decode("utf-8", errors="replace")
                except (OSError, ValueError, http.client.HTTPException) as exc:
                    raise ProviderError(f"GET {url} failed: {exc}") from exc
                finally:
                    self._last_request = time.monotonic()
            out.append(Document(url, tokenize(strip_tags(body))))
        return out
