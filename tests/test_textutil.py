import random

from oracles import tokenize_oracle
from webimpute.textutil import find_token_seq, normalize, tokenize

# Characters whose case folding or word-character class differs from ASCII's:
# İ folds to i + U+0307 (a combining mark \w does not match), ß and ﬁ grow
# to two letters, ǅ is titlecase, ٣ and ² are non-ASCII digits, U+00A0 and
# U+2028 are non-ASCII spaces, and e + U+0301 is a decomposed é.
NON_ASCII = [
    "\u0130", "\u00df", "\ufb01", "\u01c5", "\u0307",
    "\u00a0", "\u0663", "\u00b2", "\u2028", "e\u0301",
]
ASCII = [chr(b) for b in range(128)]


def random_text(rng: random.Random, non_ascii: bool) -> str:
    pool = ASCII + NON_ASCII if non_ascii else ASCII
    if rng.random() < 0.5:  # mostly words, so runs and case changes occur
        pool = pool + list("aZ_9 ") * 20
    text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 24)))
    if non_ascii and text.isascii():
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(NON_ASCII) + text[i:]
    return text


def test_tokenize_casefolds_and_splits_punctuation():
    assert tokenize("Wheaton, IL: reviews!") == ("wheaton", "il", "reviews")
    assert tokenize("Start-End 1964-1966") == ("start", "end", "1964", "1966")
    assert tokenize("Se7en") == ("se7en",)
    assert tokenize("") == ()


def test_normalize_strips_spacing_and_case():
    assert normalize("Wheaton, IL") == normalize("WheatonIL") == "wheatonil"
    assert normalize("  ") == ""


def test_tokenize_and_normalize_match_regex_oracle():
    # the ASCII fast path and the regex path against the regex alone
    rng = random.Random(20261020)
    kinds = {True: 0, False: 0}
    for case in range(6000):
        text = random_text(rng, non_ascii=case % 2 == 1)
        kinds[text.isascii()] += 1
        expected = tokenize_oracle(text)
        assert tokenize(text) == expected, repr(text)
        assert normalize(text) == "".join(expected), repr(text)
    assert kinds[True] >= 1000 and kinds[False] >= 1000, kinds


def test_find_token_seq():
    hay = tokenize("a b a b a")
    assert find_token_seq(hay, ("a", "b")) == [0, 2]
    assert find_token_seq(hay, ("a",)) == [0, 2, 4]
    assert find_token_seq(hay, ("b", "b")) == []
    assert find_token_seq(hay, ()) == []
    assert find_token_seq(("a", "a", "a"), ("a", "a")) == [0, 1]  # overlapping


def test_find_token_seq_matches_brute_force():
    rng = random.Random(20261021)
    counts = {"empty": 0, "longer": 0, "absent": 0, "overlap": 0}
    for _ in range(3000):
        haystack = tuple(rng.choice("aaab") for _ in range(rng.randint(0, 8)))
        needle = tuple(rng.choice("aabc") for _ in range(rng.randint(0, 4)))
        n = len(needle)
        expected = [i for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle]
        if n == 0:
            expected = []  # an empty needle matches nowhere
            counts["empty"] += 1
        counts["longer"] += n > len(haystack)
        counts["absent"] += n > 0 and needle[0] not in haystack
        counts["overlap"] += any(j - i < n for i, j in zip(expected, expected[1:]))
        assert find_token_seq(haystack, needle) == expected, (haystack, needle)
    assert min(counts.values()) >= 100, counts
