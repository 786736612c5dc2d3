"""Tokenization and token-sequence matching; every token sequence is a tuple.

A token is a maximal run of the characters ``\\w`` matches, case-folded.
ASCII text, which is every page of the bundled and generated corpora, takes
a fast path that gives the same tokens at C speed: one byte translation
maps each ASCII character ``\\w`` matches (``[A-Za-z0-9_]``) to its
lower-case form and every other one to a space, and a whitespace split then
yields the runs.  It is exact because on ASCII input ``\\w`` matches those
63 characters and no other, and ``str.casefold`` of an ASCII string is its
``str.lower``, which changes only ``A-Z``.  Any other text keeps the
regex-and-casefold path: casefolding may grow a token (``ß`` -> ``ss``) or
yield a character ``\\w`` does not match (``İ`` -> ``i`` + U+0307), so it
must follow the split.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
# byte b -> its lower-case form if chr(b) is a word character, else a space
_ASCII_WORD = bytes.maketrans(
    bytes(range(128)),
    bytes(ord(chr(b).lower()) if _TOKEN_RE.match(chr(b)) else 0x20 for b in range(128)),
)


def tokenize(text: str) -> tuple[str, ...]:
    """Case-folded word tokens: maximal runs of word characters."""
    if text.isascii():
        return tuple(text.encode().translate(_ASCII_WORD).decode().split())
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
    if n == 0 or n > len(haystack) or needle[0] not in haystack:
        return []
    first = needle[0]
    return [
        i
        for i in range(len(haystack) - n + 1)
        if haystack[i] == first and haystack[i : i + n] == needle
    ]
