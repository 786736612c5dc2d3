"""Dictionary-anchored value extraction from retrieved documents.

The pattern-free fallback path: submit the keyword group as-is and pick, out
of every dictionary entry occurring anywhere in the results, the candidate
with the smallest average token distance to the keyword values.  The sink
attribute name travels in the query but is excluded from distance anchoring;
it tends to sit in boilerplate and would drag candidates toward it.

Documents arrive tokenized by their provider.  Dictionary matching is
longest-match over their ``tokens``, compared in a normalized form with case,
punctuation and spacing removed, so the page text "Wheaton, IL" matches the
entry "WheatonIL".  Extraction always returns a dictionary entry verbatim.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .providers import Document
from .tabular import MISSING, Table
from .textutil import find_token_seq, normalize, tokenize

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Dictionary:
    """Candidate values for one attribute, with normalized lookup forms."""

    attr: str
    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        normalized: dict[str, str] = {}
        for entry in sorted(self.entries):
            key = normalize(entry)
            if key and key not in normalized:
                normalized[key] = entry
        object.__setattr__(self, "_normalized", normalized)
        object.__setattr__(
            self, "_max_len", max((len(k) for k in normalized), default=0)
        )

    def match_at(self, tokens: tuple[str, ...], start: int) -> tuple[str, int] | None:
        """Longest entry whose token span begins at ``start``: (entry, span length)."""
        if start < 0 or start >= len(tokens):
            return None
        concat = ""
        best = None
        for end in range(start, len(tokens)):
            concat += tokens[end]
            if len(concat) > self._max_len:
                break
            entry = self._normalized.get(concat)
            if entry is not None:
                best = (entry, end - start + 1)
        return best

    def match_ending_at(self, tokens: tuple[str, ...], end: int) -> tuple[str, int] | None:
        """Longest entry whose token span ends just before index ``end``."""
        if end <= 0 or end > len(tokens):
            return None
        concat = ""
        best = None
        for start in range(end - 1, -1, -1):
            concat = tokens[start] + concat
            if len(concat) > self._max_len:
                break
            entry = self._normalized.get(concat)
            if entry is not None:
                best = (entry, end - start)
        return best

    def occurrences(self, tokens: tuple[str, ...]) -> list[tuple[int, str]]:
        """(position, entry) for the longest match starting at each position."""
        hits = []
        for i in range(len(tokens)):
            match = self.match_at(tokens, i)
            if match is not None:
                hits.append((i, match[0]))
        return hits


def dictionary_values(table: Table, attr: str, extra: Iterable[str] = ()) -> frozenset[str]:
    """Distinct present values of ``attr`` plus the stripped non-blank ``extra`` lines.

    The extra lines, one value each (the lines of a supplementary dictionary
    file), stand in for candidate values harvested outside the table.
    """
    col = table.column_index(attr)
    present = (row[col] for row in table.rows if row[col] is not MISSING)
    return frozenset(chain(present, filter(None, (line.strip() for line in extra))))


def build_dictionary(attr: str, values: Iterable[str]) -> Dictionary:
    """The dictionary of ``attr`` over ``values``, e.g. a :func:`dictionary_values` set."""
    entries = tuple(sorted(values))
    if not entries:
        log.warning("dictionary for %r is empty", attr)
    return Dictionary(attr, entries)


def avg_distance(
    candidate_pos: int, keyword_positions: dict[str, list[int]]
) -> float:
    """Mean over present keywords of the minimum token-index gap.

    Returns +inf when no keyword occurs, so the document contributes no
    candidates.
    """
    gaps = [
        min(abs(candidate_pos - p) for p in positions)
        for positions in keyword_positions.values()
        if positions
    ]
    if not gaps:
        return float("inf")
    return sum(gaps) / len(gaps)


def extract_by_keywords(
    documents: list[Document],
    keywords: list[str],
    dictionary: Dictionary,
) -> str | None:
    """Minimum-average-distance dictionary candidate across ranked ``documents``.

    ``keywords`` come from keyword-group rendering, so the final element is
    the sink attribute name and only the preceding value keywords anchor
    distances.  Ties prefer lower document rank, then earlier position, then
    the lexicographically smaller value.  Returns None when no dictionary
    entry occurs in any document.
    """
    if not dictionary.entries:
        log.warning("empty dictionary for %r: nothing to extract", dictionary.attr)
        return None
    anchors = [(kw, seq) for kw in keywords[:-1] if (seq := tokenize(kw))]
    best: tuple[float, int, int, str] | None = None
    for rank, doc in enumerate(documents):
        positions = {anchor: find_token_seq(doc.tokens, seq) for anchor, seq in anchors}
        if not any(positions.values()):
            continue
        for pos, entry in dictionary.occurrences(doc.tokens):
            candidate = (avg_distance(pos, positions), rank, pos, entry)
            if best is None or candidate < best:
                best = candidate
    return best[3] if best is not None else None
