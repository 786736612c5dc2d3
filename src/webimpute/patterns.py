"""Two-slot text patterns mined from retrieval results over clean tuples.

Query the provider with both values of a clean tuple, find the places in a
result's ``tokens`` where the two values co-occur within ``max_gap`` tokens,
and count the contexts between them.  Contexts are counted anchored to the
second attribute of the pair (the attribute whose values the pattern will
later predict): every suffix of the intervening span when that value comes
second in the text, every prefix when it comes first.  Counting sub-spans
instead of whole spans lets a shared core like "the principal of" accumulate
support across differently-phrased sentences.

Qualifying contexts (support >= the threshold) are reduced to the maximal
ones: a context contained in a longer qualifying context with the same
anchoring is redundant and dropped.  Support is anti-monotone (Agrawal &
Srikant, "Mining Sequential Patterns", ICDE 1995): a span that counts a
context counts every shorter context with the same anchoring.  So a
qualifying context lies in a longer qualifying one exactly when its one-token
extension away from the anchor qualifies, and the maximal contexts are the
qualifying ones no qualifying context extends by one token.  The threshold,
sample size, pages per query and ``max_gap`` are each an integer >= 1.

Extraction runs the mirror image and predicts only the second attribute:
given the first attribute's known value, find it in a document, find the
context sitting against where the unknown value must be, and read the
adjacent token span through the second attribute's dictionary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Sequence

from .extract import Dictionary
from .providers import Query, SearchProvider
from .tabular import MISSING, Table, check_count, dump_json, read_json_list
from .textutil import find_token_seq, tokenize

MAX_GAP = 8
"""Maximum tokens between the two attribute values of a co-occurrence."""

FORWARD = "forward"  # attr1's value precedes attr2's in the text
REVERSE = "reverse"  # attr2's value precedes attr1's


class MiningError(ValueError):
    """Pattern mining has nothing to work with."""


@dataclass(frozen=True)
class Pattern:
    attr1: str
    attr2: str
    context: tuple[str, ...]
    direction: str
    support: int

    def __post_init__(self) -> None:
        if not self.context:
            raise ValueError("pattern context must be non-empty")
        if self.direction not in (FORWARD, REVERSE):
            raise ValueError(f"bad direction {self.direction!r}")
        check_count("support", self.support)
        if {type(self.attr1), type(self.attr2)} != {str}:
            raise TypeError(f"attr1 and attr2 must be strings: {self}")

    def to_dict(self) -> dict:
        return {
            "attr1": self.attr1,
            "attr2": self.attr2,
            "context": list(self.context),
            "direction": self.direction,
            "support": self.support,
        }


def mining_sample(
    table: Table, attr_pair: tuple[str, str], sample: int
) -> tuple[tuple[str, str], ...]:
    """The first ``sample`` ``(v1, v2)`` values of rows complete on ``attr_pair``:
    all that mining reads of the table."""
    i1, i2 = table.column_index(attr_pair[0]), table.column_index(attr_pair[1])
    rows = (r for r in table.rows if r[i1] is not MISSING and r[i2] is not MISSING)
    return tuple((r[i1], r[i2]) for r in islice(rows, sample))


def context_supports(
    provider: SearchProvider,
    table: Table,
    attr_pair: tuple[str, str],
    sample: int,
    pages: int,
    max_gap: int = MAX_GAP,
) -> Counter:
    """Raw support counts: (context tokens, direction) -> co-occurrence count."""
    complete = mining_sample(table, attr_pair, sample)
    if not complete:
        a1, a2 = attr_pair
        raise MiningError(f"no mining evidence: no tuple complete on ({a1}, {a2})")
    supports: Counter = Counter()
    for v1, v2 in complete:
        seq1, seq2 = tokenize(v1), tokenize(v2)
        if not seq1 or not seq2:
            continue  # a value with no tokens never co-occurs: spare the query
        for doc in provider.query(Query((v1, v2), pages)):
            tokens = doc.tokens
            for i in find_token_seq(tokens, seq1):
                for j in find_token_seq(tokens, seq2):
                    if i + len(seq1) <= j:
                        span = tokens[i + len(seq1) : j]
                        direction = FORWARD  # context is anchored at attr2: suffixes
                        anchored = [span[-n:] for n in range(1, len(span) + 1)]
                    elif j + len(seq2) <= i:
                        span = tokens[j + len(seq2) : i]
                        direction = REVERSE  # attr2 first: prefixes
                        anchored = [span[:n] for n in range(1, len(span) + 1)]
                    else:
                        continue  # overlapping occurrences
                    if not 1 <= len(span) <= max_gap:
                        continue
                    for ctx in anchored:
                        supports[(ctx, direction)] += 1
    return supports


def mine_patterns(
    provider: SearchProvider,
    table: Table,
    attr_pair: tuple[str, str],
    min_support: int,
    sample: int = 5,
    pages: int = 5,
    max_gap: int = MAX_GAP,
) -> list[Pattern]:
    """Maximal qualifying patterns for an attribute pair.

    Pair order matters: contexts are anchored to ``attr_pair[1]``, so mine
    with the attribute to be predicted second.
    """
    counts = dict(min_support=min_support, sample=sample, pages=pages, max_gap=max_gap)
    for name, value in counts.items():
        check_count(name, value)
    supports = context_supports(provider, table, attr_pair, sample, pages, max_gap)
    qualifying = [key for key, count in supports.items() if count >= min_support]
    # a qualifying context covers the one it extends by one token
    covered = {
        (ctx[1:] if direction == FORWARD else ctx[:-1], direction)
        for ctx, direction in qualifying
    }
    a1, a2 = attr_pair
    patterns = [
        Pattern(a1, a2, ctx, direction, supports[ctx, direction])
        for ctx, direction in qualifying
        if (ctx, direction) not in covered
    ]
    patterns.sort(key=lambda p: (-p.support, " ".join(p.context), p.direction))
    return patterns


def extract_by_pattern(
    pattern: Pattern,
    known_value: str,
    provider: SearchProvider,
    dictionary: Dictionary,
    pages: int = 5,
    max_gap: int = MAX_GAP,
) -> str | None:
    """The ``pattern.attr2`` value next to ``known_value``, an ``attr1`` value, or None.

    Queries the provider with the known value plus the context tokens, scans
    the results in the provider's rank order for that value with the context
    in the right place, and reads the adjacent span through ``dictionary``,
    the ``attr2`` dictionary.  The first successful dictionary match wins.
    """
    check_count("max_gap", max_gap)
    known_seq = tokenize(known_value)
    ctx = pattern.context
    length = len(ctx)
    if not known_seq or length > max_gap:
        return None
    slack = max_gap - length

    documents = provider.query(Query((known_value, " ".join(ctx)), pages))
    for doc in documents:
        tokens = doc.tokens
        for s in find_token_seq(tokens, known_seq):
            if pattern.direction == FORWARD:
                # [KNOWN] .. [ctx][SINK]: context floats, sink right after it
                e = s + len(known_seq)
                for c_s in range(e, min(e + slack, len(tokens) - length) + 1):
                    if tokens[c_s : c_s + length] == ctx:
                        hit = dictionary.match_at(tokens, c_s + length)
                        if hit:
                            return hit[0]
            else:
                # [SINK][ctx] .. [KNOWN]: context floats, sink right before it
                for c_e in range(s, max(s - slack, length) - 1, -1):
                    if tokens[c_e - length : c_e] == ctx:
                        hit = dictionary.match_ending_at(tokens, c_e - length)
                        if hit:
                            return hit[0]
    return None


def save_patterns(patterns: Sequence[Pattern], path: str | Path) -> None:
    Path(path).write_text(dump_json([p.to_dict() for p in patterns]), encoding="utf-8")


def load_patterns(path: str | Path) -> list[Pattern]:
    return read_json_list(path, "pattern", _pattern_from_dict)


def _pattern_from_dict(d: dict) -> Pattern:
    context = d["context"]
    if not isinstance(context, list) or not all(isinstance(t, str) for t in context):
        raise ValueError(f"context must be a list of strings, got {context!r}")
    return Pattern(d["attr1"], d["attr2"], tuple(context), d["direction"], d["support"])
