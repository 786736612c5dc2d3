"""Tokenization and token-sequence matching; every token sequence is a tuple."""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


def tokenize(text: str) -> tuple[str, ...]:
    """Case-folded word tokens: maximal runs of word characters."""
    return tuple(map(str.casefold, _TOKEN_RE.findall(text)))


def normalize(text: str) -> str:
    """Concatenated token form: case-folded, punctuation and spaces dropped.

    "Wheaton, IL" and "WheatonIL" normalize to the same string, which is
    what dictionary matching relies on.
    """
    return "".join(tokenize(text))


def find_token_seq(haystack: tuple[str, ...], needle: tuple[str, ...]) -> list[int]:
    """Start indices of every occurrence of ``needle`` in ``haystack``."""
    n = len(needle)
    if n == 0 or n > len(haystack):
        return []
    first = needle[0]
    return [
        i
        for i in range(len(haystack) - n + 1)
        if haystack[i] == first and haystack[i : i + n] == needle
    ]
