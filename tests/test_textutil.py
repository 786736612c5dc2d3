from webimpute.textutil import find_token_seq, normalize, tokenize


def test_tokenize_casefolds_and_splits_punctuation():
    assert tokenize("Wheaton, IL: reviews!") == ("wheaton", "il", "reviews")
    assert tokenize("Start-End 1964-1966") == ("start", "end", "1964", "1966")
    assert tokenize("Se7en") == ("se7en",)
    assert tokenize("") == ()


def test_normalize_strips_spacing_and_case():
    assert normalize("Wheaton, IL") == normalize("WheatonIL") == "wheatonil"
    assert normalize("  ") == ""


def test_find_token_seq():
    hay = tokenize("a b a b a")
    assert find_token_seq(hay, ("a", "b")) == [0, 2]
    assert find_token_seq(hay, ("a",)) == [0, 2, 4]
    assert find_token_seq(hay, ("b", "b")) == []
    assert find_token_seq(hay, ()) == []
