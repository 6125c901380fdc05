import random

import pytest

from soundlaw import phonology
from soundlaw.phonology import (
    DuplicateSegment,
    MalformedRow,
    NonCanonicalTokenSeq,
    SegmentInventory,
    UnknownFeatureClass,
    UnsegmentableInput,
    load_feature_table,
    preprocess,
    render,
)


def all_decompositions(word, segments):
    """Every way to split word into inventory segments (reference oracle)."""
    if not word:
        return [()]
    out = []
    for seg in segments:
        if word.startswith(seg):
            out.extend((seg,) + rest for rest in all_decompositions(word[len(seg) :], segments))
    return out


def greedy_reference(word, segments):
    """Independent greedy longest-match: re-derived from the decomposition
    set by always taking the longest viable prefix."""
    result = []
    rest = word
    while rest:
        prefix = max(
            (s for s in segments if rest.startswith(s)), key=len, default=None
        )
        if prefix is None:
            return None
        result.append(prefix)
        rest = rest[len(prefix) :]
    return tuple(result)


def test_segment_multigraphs(inv):
    assert inv.segment("tʰum") == ("tʰ", "u", "m")
    assert inv.segment("") == ()
    assert inv.segment("tsar") == ("ts", "a", "r")


def test_segment_against_bruteforce(inv):
    rng = random.Random(5)
    pool = ["t", "s", "a", "r", "ts", "tʰ", "k", "kʷ", "u", "m"]
    for _ in range(300):
        word = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 6)))
        got = inv.segment(word)
        assert "".join(got) == word
        decomps = all_decompositions(word, pool)
        assert tuple(got) in {tuple(d) for d in decomps}
        assert got == greedy_reference(word, pool)


def test_segment_error_position(inv):
    with pytest.raises(UnsegmentableInput) as err:
        inv.segment("taZu")
    assert err.value.position == 2


def test_greedy_maximality(inv):
    # no output segment is a proper prefix of a longer segment matching there
    for word in ("tsar", "tʰum", "kʷati"):
        phones = inv.segment(word)
        pos = 0
        for p in phones:
            longer = [
                s for s in inv.segments if s != p and s.startswith(p) and word.startswith(s, pos)
            ]
            assert not longer, (word, p, longer)
            pos += len(p)


def test_preprocess_canonical():
    assert preprocess(("a", "m")) == ("#", "@", "a", "@", "m", "@", "#")
    assert preprocess(()) == ("#", "@", "#")
    assert preprocess(("t", "a", "p")) == ("#", "@", "t", "@", "a", "@", "p", "@", "#")


def test_render_roundtrip(inv):
    rng = random.Random(11)
    for _ in range(1000):
        word = tuple(rng.choice(inv.segments) for _ in range(rng.randrange(0, 9)))
        assert render(preprocess(word)) == word


@pytest.mark.parametrize(
    "tokens",
    [
        ("#", "s", "#"),
        ("#", "@"),
        ("@", "a", "@"),
        ("#", "@", "a", "#"),
        ("#", "@", "#", "@", "#"),
    ],
)
def test_render_rejects_noncanonical(tokens):
    with pytest.raises(NonCanonicalTokenSeq):
        render(tokens)


def test_in_class_token_level(inv):
    assert inv.in_class("is_nothing", "@")
    assert not inv.in_class("is_nothing", "a")
    assert inv.in_class("is_anything", "#")
    assert inv.in_class("is_not_boundary", "@")
    assert not inv.in_class("is_not_boundary", "#")
    assert not inv.in_class("is_consonant", "#")
    assert not inv.in_class("is_vowel", "@")


def test_in_class_feature_lookup(inv):
    # shipped table gives /a/ the vowel feature set (syllabic)
    assert inv.in_class("is_vowel", "a")
    assert inv.in_class("is_consonant", "t")
    assert inv.in_class("is_velar", "k")
    assert inv.in_class("is_liquid_consonant", "r")
    assert inv.in_class("is_cont_not_son", "s")
    assert inv.in_class("is_son", "m")
    with pytest.raises(UnknownFeatureClass):
        inv.in_class("is_palatal", "a")


def test_class_partition(inv):
    for phone in inv.segments:
        assert inv.in_class("is_consonant", phone) != inv.in_class("is_vowel", phone)


def test_default_table_classes_nonempty(inv):
    for name in phonology.FEATURE_CLASS_NAMES:
        members = [s for s in inv.segments if inv.in_class(name, s)]
        if name == "is_nothing":
            assert members == []
        else:
            assert members


def test_load_feature_table():
    inv = load_feature_table("segment\tsyl\na\t+\nt\t-\n")
    assert len(inv) == 2
    assert inv.in_class("is_vowel", "a") and inv.in_class("is_consonant", "t")


def test_load_feature_table_rejects_duplicates():
    with pytest.raises(DuplicateSegment):
        load_feature_table("segment\tsyl\na\t+\na\t-\n")


@pytest.mark.parametrize(
    "text",
    [
        "segment\tsyl\na\t+\textra\n",
        "segment\tsyl\na\tmaybe\n",
        "segment\n",
        "",
    ],
)
def test_load_feature_table_rejects_malformed(text):
    with pytest.raises(MalformedRow):
        load_feature_table(text)


def test_inventory_rejects_reserved_symbols():
    with pytest.raises(MalformedRow):
        SegmentInventory(("a", "#"))
    with pytest.raises(MalformedRow):
        SegmentInventory(("a!",))


def test_lexicon_loading(tmp_path, inv):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\ntʰum\nsam\n\nt a\n", encoding="utf-8")
    words = phonology.load_lexicon(path, inv)
    assert words == [("tʰ", "u", "m"), ("s", "a", "m"), ("t", "a")]
