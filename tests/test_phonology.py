import pickle
import random
import re
from importlib.resources import files

import pytest

from soundlaw import phonology
from soundlaw.phonology import (
    RESERVED,
    DuplicateSegment,
    MalformedRow,
    NonCanonicalTokenSeq,
    SegmentInventory,
    UnknownFeatureClass,
    UnsegmentableInput,
    is_canonical,
    load_feature_table,
    nfc,
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


def segment_outcome(segment, word):
    """The phones, or where and on what the segmentation failed."""
    try:
        return segment(word)
    except UnsegmentableInput as err:
        return ("unsegmentable", err.word, err.position)


def segment_by_widths(inv, word):
    """Greedy longest match by trying every width from the longest segment
    down at each position of an NFC word: the oracle of `segment`."""
    max_len = max(map(len, inv.segments), default=0)
    phones = []
    pos = 0
    n = len(word)
    while pos < n:
        if word[pos].isspace():
            pos += 1
            continue
        for width in range(min(max_len, n - pos), 0, -1):
            cand = word[pos : pos + width]
            if cand in inv:
                phones.append(cand)
                pos += width
                break
        else:
            raise UnsegmentableInput(word, pos)
    return tuple(phones)


def assert_scan_equals_loop(inv, words):
    """`segment` against the loop, error positions included, and the scan
    alone against every word the loop segments."""
    scan = phonology._segment_scan(inv)
    for word in words:
        want = segment_outcome(lambda w: segment_by_widths(inv, w), nfc(word))
        assert segment_outcome(inv.segment, word) == want, (inv.segments, word)
        if want[:1] != ("unsegmentable",):
            assert tuple(filter(None, scan.findall(nfc(word)))) == want, (inv.segments, word)


# segments that are regex metacharacters
ODD_INVENTORY = SegmentInventory((".", "a*", "(", "\\", "[b]", "a", "b"))
# greedy takes "ab" in "abc" and then fails on "c"; a backtracking match
# would read "a", "bc"
TRAP_INVENTORY = SegmentInventory(("a", "ab", "bc"))
EMPTY_INVENTORY = SegmentInventory(())


def test_segment_scan_equals_loop_on_bundled_data(inv):
    for path in files("soundlaw").joinpath("data").iterdir():
        if path.name.endswith((".txt", ".rules", ".tsv")):
            lines = path.read_text("utf-8").splitlines()
            assert_scan_equals_loop(inv, lines)
            assert_scan_equals_loop(inv, [line.strip() for line in lines if not line.startswith("#")])


@pytest.mark.parametrize("which", ["bundled", "odd", "trap", "empty"])
def test_segment_scan_equals_loop_on_random_strings(inv, which):
    inventory = {"bundled": inv, "odd": ODD_INVENTORY, "trap": TRAP_INVENTORY, "empty": EMPTY_INVENTORY}[which]
    alphabet = sorted(set("".join(inventory.segments))) or ["a"]
    # spaces, characters no segment holds, and a decomposed é for NFC
    junk = [" ", "  ", "\t", "\n", "\u00a0", "\u3000", "Z", "9", "#", "e\u0301", "\u0301"]
    rng = random.Random(f"segment-{which}")
    words = ["", " ", "\t \n"]
    for _ in range(3000):
        pool = alphabet + junk if rng.random() < 0.3 else alphabet + [" "]
        words.append("".join(rng.choice(pool) for _ in range(rng.randrange(0, 12))))
    words += list(inventory.segments) + [" ".join(inventory.segments), "".join(inventory.segments)]
    assert_scan_equals_loop(inventory, words)


def test_segment_scan_equals_loop_on_random_inventories():
    """Segments that share prefixes and continuations, prefixes of segments
    that are no segment, characters a character class must escape, and (on
    the wide alphabet) more first characters than one alternation tests."""
    rng = random.Random(23)
    for alphabet in ("ab-^]ʰ.", "abcdefghijklmnop-^]\\[ʰ."):
        for _ in range(200):
            segments = {
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 5)))
                for _ in range(rng.randrange(1, 40))
            }
            inventory = SegmentInventory(tuple(sorted(segments)))
            pool = alphabet + " Z"
            words = ["".join(rng.choice(pool) for _ in range(rng.randrange(0, 12))) for _ in range(40)]
            assert_scan_equals_loop(inventory, words + list(segments))


def test_segment_long_whitespace_runs(inv):
    """A whitespace run is one alternative of the scan, read in one step also
    where no segment follows it (a scan that backtracks over the run takes
    time quadratic in its length here)."""
    run = " \t\u3000" * 2000
    words = ["ab" + run, "a" + run + "Z", run + "Z", "t" + run + "a" + run, run]
    for inventory in (inv, ODD_INVENTORY, TRAP_INVENTORY, EMPTY_INVENTORY):
        assert_scan_equals_loop(inventory, words)


def test_segment_whitespace_is_what_isspace_says(inv):
    everything = "".join(map(chr, range(0x110000)))
    spaces = [ch for ch in everything if ch.isspace()]
    assert re.findall(r"\s", everything) == spaces
    for inventory in (inv, TRAP_INVENTORY, EMPTY_INVENTORY):
        words = [f"{ws}a{ws}b{ws}" for ws in spaces] + [ws * 3 for ws in spaces] + ["".join(spaces)]
        assert_scan_equals_loop(inventory, words)


def test_segment_traps():
    assert TRAP_INVENTORY.segment("ab bc") == ("ab", "bc")
    with pytest.raises(UnsegmentableInput) as err:
        TRAP_INVENTORY.segment("abc")
    assert err.value.position == 2
    assert EMPTY_INVENTORY.segment("") == EMPTY_INVENTORY.segment(" \t ") == ()
    with pytest.raises(UnsegmentableInput) as err:
        EMPTY_INVENTORY.segment(" a")
    assert err.value.position == 1
    assert ODD_INVENTORY.segment("a b.") == ("a", "b", ".")


def test_inventory_pickles_without_its_scan(inv):
    """What a worker process receives: the inventory, not its compiled scan."""
    words = ["tʰum", "tsar", "t a", "kʷati"]
    want = [inv.segment(w) for w in words]
    assert "phonology.scan" in inv._memos
    clone = pickle.loads(pickle.dumps(inv))
    assert clone._memos == {}
    assert [clone.segment(w) for w in words] == want
    assert "phonology.scan" in clone._memos
    with pytest.raises(UnsegmentableInput) as err:
        clone.segment("taZu")
    assert err.value.position == 2


# -- the token engine against the loops it replaced --------------------------


def preprocess_reference(phones):
    tokens = ["#", "@"]
    for p in phones:
        tokens.append(p)
        tokens.append("@")
    tokens.append("#")
    return tuple(tokens)


def is_canonical_reference(tokens):
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        return False
    if tokens[0] != "#" or tokens[-1] != "#":
        return False
    for i, tok in enumerate(tokens[1:-1], start=1):
        if i % 2 == 1:
            if tok != "@":
                return False
        elif tok in RESERVED:
            return False
    return True


def random_token_sequences(rng, count):
    """Tuples and lists: canonical ones, the same with one token swapped for
    a reserved token or a phone (at an odd or even index), and noise."""
    phones = ["a", "ts", "tʰ", "b"]
    tokens = phones + sorted(RESERVED)
    for _ in range(count):
        seq = list(preprocess_reference([rng.choice(phones) for _ in range(rng.randrange(0, 6))]))
        roll = rng.random()
        if roll < 0.5:
            seq[rng.randrange(len(seq))] = rng.choice(tokens)
        elif roll < 0.6:
            seq = [rng.choice(tokens) for _ in range(rng.randrange(0, 9))]
        yield seq if rng.random() < 0.5 else tuple(seq)


def test_preprocess_and_is_canonical_equal_their_loops():
    rng = random.Random(12)
    canonical = 0
    for seq in random_token_sequences(rng, 5000):
        assert is_canonical(seq) == is_canonical_reference(seq), seq
        assert preprocess(seq) == preprocess_reference(seq)
        canonical += is_canonical(seq)
        if is_canonical(seq):
            assert render(seq) == tuple(seq[2:-2:2])
        else:
            with pytest.raises(NonCanonicalTokenSeq):
                render(seq)
    assert 500 < canonical < 4500


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
        "segment\tsyl\na\t+\nt s\t-\n",  # a symbol holding a space
        "segment\n",
        "",
        "# comment\n\nsegment\tsyl\na\t+\nb\tmaybe\n",
    ],
)
def test_load_feature_table_rejects_malformed(text):
    with pytest.raises(MalformedRow) as err:
        load_feature_table(text)
    # a row's error names its line of the text, comment and blank lines
    # counted; in each table here the bad row is the last line
    assert re.findall(r"line (\d+)", str(err.value)) in ([], [str(text.count("\n"))])


def test_inventory_rejects_reserved_symbols():
    with pytest.raises(MalformedRow):
        SegmentInventory(("a", "#"))
    with pytest.raises(MalformedRow):
        SegmentInventory(("a!",))


def test_inventory_rejects_whitespace_in_segments():
    """Whitespace separates phones, so no segment may hold it."""
    for segment in ("a b", " c", "c\t", "d\u3000"):
        with pytest.raises(MalformedRow):
            SegmentInventory(("a", segment))


def test_lexicon_loading(tmp_path, inv):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\ntʰum\nsam\n\nt a\n", encoding="utf-8")
    words = phonology.load_lexicon(path, inv)
    assert words == [("tʰ", "u", "m"), ("s", "a", "m"), ("t", "a")]


def test_read_text_reads_newlines_as_text_mode(tmp_path, inv):
    path = tmp_path / "lex.txt"
    path.write_bytes("# c\r\ntʰum\r\nsa\rm\n\nt a\r\n".encode())
    with open(path, encoding="utf-8") as fh:
        assert phonology.read_text(path) == fh.read()
    words = phonology.load_lexicon(path, inv)
    assert words == [("tʰ", "u", "m"), ("s", "a"), ("m",), ("t", "a")]
    path.write_bytes(b"a\nb\n\xff")
    with pytest.raises(phonology.UndecodableText, match=f"^{re.escape(str(path))} line 3: "):
        phonology.read_text(path)
