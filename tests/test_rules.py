import collections
import concurrent.futures
import functools
import hashlib
import itertools
import multiprocessing
import pickle
import random
import re

import pytest
from oracles import reference_apply, slot_matches, window_sites

from soundlaw import _native, datagen, evaluation, kernels
from soundlaw import rules as R
from soundlaw.phonology import (
    CLASS_DEFINITIONS,
    FEATURE_CLASS_NAMES,
    NonCanonicalTokenSeq,
    SegmentInventory,
    is_canonical,
    preprocess,
    render,
)
from soundlaw.tasks import PBETask, task_to_json
from soundlaw.rules import (
    Cascade,
    Mapping,
    Predicate,
    RuleError,
    SEP_PRED,
    SoundLaw,
    apply_cascade,
    apply_law,
    apply_law_word,
    apply_to_lexicon,
    delete,
    feature_class,
    find_matches,
    insert_after,
    insert_before,
    is_token,
    law_is_inert,
    replace_with,
)


def law(preds, pos, maps):
    return SoundLaw(tuple(preds), tuple(pos), tuple(maps))


def final_devoicing():
    return law([is_token("t"), SEP_PRED, is_token("#")], [0], [replace_with(["d"])])


def test_find_matches_examples(inv):
    a_j = law([is_token("a"), SEP_PRED, is_token("j")], [0], [replace_with(["e"])])
    assert find_matches(a_j, preprocess(("k", "a", "j")), inv) == [4]
    assert find_matches(a_j, preprocess(("k", "o", "j")), inv) == []
    single = law([is_token("a")], [0], [delete()])
    assert find_matches(single, preprocess(("a", "t", "a")), inv) == [2, 6]


def test_find_matches_equals_bruteforce_scan(inv):
    rng = random.Random(23)
    preds_pool = [
        is_token("a"),
        is_token("b"),
        R.in_set(["a", "b"]),
        R.is_not_token("#"),
        feature_class("is_anything"),
        SEP_PRED,
    ]
    for _ in range(300):
        width = rng.randrange(1, 5)
        preds = tuple(rng.choice(preds_pool) for _ in range(width))
        word = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 7)))
        tokens = preprocess(word)
        try:
            candidate = law(preds, [next(i for i, p in enumerate(preds) if p.can_match_phone())], [delete()])
        except StopIteration:
            continue
        assert find_matches(candidate, tokens, inv) == window_sites(preds, tokens, inv)


def test_apply_law_table_rows(inv):
    assert apply_law_word(final_devoicing(), inv.segment("sunt"), inv) == inv.segment("sund")
    assert apply_law_word(final_devoicing(), inv.segment("tapere"), inv) == inv.segment("tapere")
    m_n = law([is_token("m"), SEP_PRED, is_token("#")], [0], [replace_with(["n"])])
    assert "".join(apply_law_word(m_n, inv.segment("tʰum"), inv)) == "tʰun"
    assert "".join(apply_law_word(m_n, inv.segment("sam"), inv)) == "san"


def test_insert_after_applies_once(inv):
    grow = law([is_token("a")], [0], [insert_after(["a"])])
    assert apply_law_word(grow, ("b", "a"), inv) == ("b", "a", "a")
    # and the fixed point of repeated application still adds one 'a' per pass
    again = apply_law_word(grow, ("b", "a", "a"), inv)
    assert again == ("b", "a", "a", "a", "a")


def test_insert_before(inv):
    addb = law([is_token("a")], [0], [insert_before(["b"])])
    assert apply_law_word(addb, ("a", "t", "a"), inv) == ("b", "a", "t", "b", "a")


def test_multi_position_edits(inv):
    both = law(
        [is_token("a"), SEP_PRED, is_token("a")],
        [0, 2],
        [replace_with(["x"]), replace_with(["y"])],
    )
    # sites at both 'aa' windows; middle token claimed by the leftmost site
    assert apply_law_word(both, ("a", "a", "a"), inv) == ("x", "y", "y")


def test_conflict_resolution_bruteforce(inv):
    """Leftmost-site-wins over every word <= 5 phones on a 2-phone alphabet."""
    rng = random.Random(31)
    mappings = [delete(), replace_with(["b"]), insert_after(["a"]), insert_before(["b"])]
    words = []
    for length in range(0, 6):
        words.extend(itertools.product("ab", repeat=length))
    laws = [
        law([is_token("a"), SEP_PRED, is_token("a")], [0, 2], [replace_with(["b"]), delete()]),
        law([is_token("a")], [0], [insert_after(["a"])]),
        law([R.in_set(["a", "b"]), SEP_PRED, is_token("a")], [0, 2], [delete(), insert_before(["b"])]),
        law([feature_class("is_anything"), SEP_PRED, R.is_not_token("#")], [2], [replace_with(["a"])]),
    ]
    for _ in range(40):
        width = rng.choice([1, 3, 5])
        preds = []
        for k in range(width):
            preds.append(SEP_PRED if k % 2 else rng.choice([is_token("a"), is_token("b"), R.in_set(["a", "b"])]))
        positions = sorted(rng.sample(range(0, width, 2), rng.randrange(1, width // 2 + 2)))
        laws.append(law(preds, positions, [rng.choice(mappings) for _ in positions]))
    for candidate in laws:
        for word in words:
            got = apply_law_word(candidate, word, inv)
            assert got == reference_apply(candidate, word, inv), (candidate, word)


def test_output_always_canonical(inv):
    rng = random.Random(41)
    mappings = [delete(), replace_with(["u"]), insert_after(["s"]), insert_before(["k"])]
    for _ in range(300):
        width = rng.choice([1, 3])
        preds = [SEP_PRED if k % 2 else R.in_set(rng.sample(inv.segments, 3)) for k in range(width)]
        candidate = law(preds, [0], [rng.choice(mappings)])
        word = tuple(rng.choice(inv.segments) for _ in range(rng.randrange(0, 6)))
        out_tokens = apply_law(candidate, preprocess(word), inv)
        assert is_canonical(out_tokens)
        assert "!" not in out_tokens
        assert out_tokens[0] == "#" and out_tokens[-1] == "#"
        assert out_tokens.count("#") == 2
        # no-match identity
        if not find_matches(candidate, preprocess(word), inv):
            assert render(out_tokens) == word


def test_apply_to_lexicon_mask(inv):
    u_o = law([is_token("u"), SEP_PRED, feature_class("is_consonant")], [0], [replace_with(["o"])])
    outs, changed = apply_to_lexicon(u_o, [inv.segment("talun"), inv.segment("suat")], inv)
    assert ["".join(w) for w in outs] == ["talon", "suat"]
    assert changed == [True, False]
    assert apply_to_lexicon(u_o, [], inv) == ([], [])


def test_law_is_inert(inv):
    assert not law_is_inert(final_devoicing(), [inv.segment("sunt")], inv)
    assert law_is_inert(final_devoicing(), [inv.segment("tapere")], inv)
    assert law_is_inert(final_devoicing(), [], inv)


def test_apply_cascade_order_and_trace(inv):
    a_e = law([is_token("a")], [0], [replace_with(["e"])])
    e_i = law([is_token("e")], [0], [replace_with(["i"])])
    stages = apply_cascade(Cascade((a_e, e_i)), [("a",)], inv)
    assert stages[-1].outputs == [("i",)]  # hand-composed: a -> e -> i
    # reversed order does not feed the second law
    stages2 = apply_cascade(Cascade((e_i, a_e)), [("a",)], inv)
    assert stages2[-1].outputs == [("e",)]
    for first, second in zip(stages, stages[1:]):
        assert first.outputs is second.inputs
    one = apply_cascade(Cascade((a_e,)), [("a",), ("t",)], inv)
    assert one[-1].outputs == apply_to_lexicon(a_e, [("a",), ("t",)], inv)[0]


def test_invariant_rejections():
    with pytest.raises(RuleError):
        law([], [0], [delete()])
    with pytest.raises(RuleError):
        law([is_token("a")], [0, 0], [delete(), delete()])
    with pytest.raises(RuleError):
        law([is_token("a")], [1], [delete()])
    with pytest.raises(RuleError):
        law([is_token("a"), SEP_PRED], [1], [delete()])  # separator slot
    # slots that only ever match '#' or '@', at a change position
    for slot in (feature_class("is_nothing"), Predicate("not-class", ("is_not_boundary",)), is_token("#"),
                 R.in_set(["#", "@"]), Predicate("not-class", ("is_anything",))):
        with pytest.raises(RuleError):
            law([slot], [0], [delete()])
    with pytest.raises(RuleError):
        law([is_token("a")], [0], [delete(), delete()])
    with pytest.raises(RuleError):
        Mapping("replace", ())
    with pytest.raises(RuleError):
        Mapping("replace", ("a!",))
    with pytest.raises(RuleError):
        Predicate("in", ())
    with pytest.raises(RuleError):
        Predicate("class", ("no_such_class",))


def test_determinism(inv):
    candidate = law([R.in_set(["a", "t"])], [0], [insert_after(["s"])])
    word = ("t", "a", "t", "a")
    outs = {apply_law_word(candidate, word, inv) for _ in range(20)}
    assert len(outs) == 1


# -- differential fuzz: compiled matching against the oracles' window scan ----


def tiny_inventory():
    """Three vowels and consonants, no velars (so is_velar has no members),
    and a feature row for 'q', a phone the segment list does not hold."""
    cols = ("syl", "son", "cons", "cont", "nas", "hi", "back")
    rows = {
        "a": "++-+---",
        "i": "++-+-+-",
        "n": "-+++---",
        "t": "--+----",
        "s": "--++---",
        "ts": "--+----",
        "q": "--+-0--",
    }
    features = {seg: dict(zip(cols, vals)) for seg, vals in rows.items()}
    return SegmentInventory(("a", "i", "n", "t", "s", "ts"), features)


def hand_built_pool(phones):
    pool = [R.SEP_PRED, is_token("#"), R.is_not_token("#"), R.is_not_token("@")]
    for p in phones:
        pool += [is_token(p), R.is_not_token(p)]
    for k in (1, 2, 3):
        for combo in itertools.combinations(phones, k):
            pool += [R.in_set(combo), Predicate("not-in", combo)]
    for name in FEATURE_CLASS_NAMES:
        pool += [feature_class(name), Predicate("not-class", (name,))]
    return pool


def test_can_match_phone_is_the_oracles_reading():
    """A slot can match a phone exactly when the oracle's per-token reading
    matches one: a phone some slot names, or one none does; feature classes,
    whose members depend on the inventory, always can."""
    tiny = tiny_inventory()
    phones = ["a", "i", "n", "t", "zz"]  # no slot names 'zz'
    pool = hand_built_pool(phones[:4]) + [R.in_set(["#", "@"]), Predicate("not-in", ("#", "@"))]
    for pred in pool:
        if pred.kind in ("class", "not-class") and pred.args[0] in CLASS_DEFINITIONS:
            assert pred.can_match_phone(), pred
        else:
            assert pred.can_match_phone() == any(slot_matches(pred, p, tiny) for p in phones), pred


def random_hand_built_law(rng, pool, phones):
    mappings = [delete(), replace_with([rng.choice(phones)]), insert_after([rng.choice(phones)]),
                insert_before([rng.choice(phones)])]
    while True:
        preds = [rng.choice(pool) for _ in range(rng.randrange(1, 6))]
        editable = [i for i, p in enumerate(preds) if p.can_match_phone()]
        if editable:
            break
    positions = sorted(rng.sample(editable, rng.randrange(1, min(3, len(editable)) + 1)))
    return law(preds, positions, [rng.choice(mappings) for _ in positions])


def assert_compiled_equals_scan(candidate, words, inv):
    """The compiled engine against the scan and reference_apply's token loop;
    returns how often an edit landed on each token of the words."""
    edited = collections.Counter()
    for word in words:
        tokens = preprocess(word)
        want = window_sites(candidate.predicates, tokens, inv)
        assert find_matches(candidate, tokens, inv) == want, (candidate, word)
        edited.update(tokens[start + pos] for start in want for pos in candidate.change_pos)
        want_tokens = preprocess(reference_apply(candidate, word, inv))
        for given in (tokens, list(tokens)):
            assert tuple(apply_law(candidate, given, inv)) == want_tokens, (candidate, word)
    outputs, changed = apply_to_lexicon(candidate, words, inv)
    want_outputs = [reference_apply(candidate, w, inv) for w in words]
    assert outputs == want_outputs, candidate
    want_changed = [o != w for o, w in zip(want_outputs, words)]
    assert changed == want_changed, candidate
    assert law_is_inert(candidate, words, inv) == (not any(want_changed)), candidate
    return edited


def test_compiled_engine_matches_scan_on_random_and_hand_built_laws(inv, monkeypatch):
    rng = random.Random(97)
    # rp-ri laws on the bundled inventory; words mix in phones it lacks
    phones = list(inv.segments) + ["ʔ", "ɬ", "zz"]
    cfg = datagen.GenConfig()
    for _ in range(250):
        candidate = datagen.sample_random_law(cfg, rng, inv)
        words = [tuple(rng.choice(phones) for _ in range(rng.randrange(0, 9))) for _ in range(12)]
        assert_compiled_equals_scan(candidate, words, inv)
    # every predicate kind and token class on a small inventory, where the
    # sets, the words and the edits also use phones outside it
    tiny = tiny_inventory()
    monkeypatch.setattr(R._LawCompiler, "MAX_WINDOWS", 16)  # and the cache starts over
    phones = ["a", "i", "n", "t", "s", "ts", "q", "x"]
    pool = hand_built_pool(phones[:4] + phones[-2:])
    edited = collections.Counter()
    for _ in range(300):
        candidate = random_hand_built_law(rng, pool, phones)
        words = [tuple(rng.choice(phones) for _ in range(rng.randrange(0, 7))) for _ in range(10)]
        edited += assert_compiled_equals_scan(candidate, words, tiny)
    assert edited["#"] and edited["@"]  # splice_sites' handling of edited '#' and '@' slots


def test_slot_members_and_site_test_equal_the_matches_scan(inv):
    """Datagen's two readings of the compiled slots against `oracles.slot_matches`:
    a slot's member phones, and whether a window pinned by '@' on both sides
    matches consecutive phones of a word."""
    rng = random.Random(131)
    tiny = tiny_inventory()
    assert R.slot_members(feature_class("is_velar"), tiny) == []  # no velar in the segment list
    # 'q' has a feature row but is no segment; 'x' is unknown to both tables
    phones = ["a", "i", "n", "t", "s", "ts", "q", "x"]
    pool = hand_built_pool(phones[:4] + phones[-2:])
    pool += [R.in_set(["#", "a"]), R.in_set(["@", "#"]), Predicate("not-in", ("@", "q")),
             Predicate("not-in", ("#", "@")), R.is_not_token("x")]
    assert {p.kind for p in pool} == set(R.PRED_KINDS)
    for table, alphabet in ((tiny, phones), (inv, list(inv.segments) + ["q", "x"])):
        for pred in pool:
            want = [s for s in table.segments if slot_matches(pred, s, table)]
            assert R.slot_members(pred, table) == want, pred
        for _ in range(1500):
            preds = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
            has_site = R.site_test((SEP_PRED, *R.interleave(preds), SEP_PRED), table)
            for _ in range(2):  # one test serves every word
                word = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
                assert has_site(word) == bool(window_sites(preds, word, table)), (preds, word)


def wide_inventory():
    """150 segments p0..p149, so codes run past U+00FF; only is_consonant,
    is_vowel and is_son have members."""
    segments = tuple(f"p{i}" for i in range(150))
    features = {
        s: {"syl": "+-"[i % 2], "cons": "-+"[i % 2], "son": "+-0"[i % 3]} for i, s in enumerate(segments)
    }
    return SegmentInventory(segments, features)


@pytest.mark.parametrize("table, digest", [
    (tiny_inventory, "c9d9f3f3af93b9d94aa3e6957c1faf8d034483404690270af0c5acb0957f256a"),
    (wide_inventory, "2299681a77406ce99e3d44d9301a6f3b8b3eed39475b0e3f19979a12e7730ca2"),
], ids=["tiny", "wide"])
def test_rp_ri_bytes_are_pinned_on_tables_with_empty_classes(table, digest):
    """rp-ri tasks on tables where some context classes have no member, so a
    word's draw stops at an empty slot, after the slots before it were
    drawn, and the task retries with a new law on the same stream; the wide
    table's codes also run past U+00FF (recorded on CPython 3.11)."""
    tasks = datagen.gen_rp_ri(datagen.GenConfig(seed=4), 30, table())
    text = "".join(task_to_json(task) + "\n" for task in tasks)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_codebook_boundary(inv):
    """Phones coded on both sides of U+00FF: a table of 150 segments, and
    words adding 100 more phones no table holds, all in one lexicon."""
    assert all(ord(c) < 0x100 for c in R._compiler(inv).code.values())  # the bundled table
    rng = random.Random(7)
    big = wide_inventory()
    segments = big.segments
    alphabet = list(segments[:3]) + list(segments[125:132]) + [f"u{i}" for i in range(100)]
    words = [tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 9))) for _ in range(300)]
    R._compiler(big).encode(words)  # every unseen phone gets a code on first sight
    codes = R._compiler(big).code
    phone_codes = sorted(ord(c) for t, c in codes.items() if t not in ("#", "@", "!"))
    assert phone_codes == list(range(0x80, 0x80 + 150 + 100)) and codes["p127"] == "\xff"  # one dense range
    pool = [is_token("p2"), is_token("p130"), is_token("u7"), R.is_not_token("p128"),
            R.in_set(["p1", "p129", "u3"]), Predicate("not-in", ("p0", "p131", "u50")),
            feature_class("is_vowel"), Predicate("not-class", ("is_vowel",)), feature_class("is_anything")]
    maps = [delete(), replace_with(["p126"]), insert_after(["u99", "p1"]), insert_before(["p140"])]
    for _ in range(120):
        preds = rng.sample(pool, rng.randrange(1, 4))
        candidate = law(R.interleave(preds), [0], [rng.choice(maps)])
        assert_compiled_equals_scan(candidate, words[:40], big)
        assert apply_to_lexicon(candidate, words, big)[0] == [apply_law_word(candidate, w, big) for w in words]
        has_site = R.site_test((SEP_PRED, *R.interleave(preds), SEP_PRED), big)
        for word in words[:40]:
            assert has_site(word) == bool(window_sites(preds, word, big)), (preds, word)


BACKENDS = pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])


def widen(text, base):
    """The text with every character but the newline moved up by `base`, so
    that it is stored 2 (base 0x100) or 4 (base 0xF0000, plane 15) bytes a
    character; its lines keep their lengths."""
    return "".join(c if c == "\n" else chr(base + ord(c)) for c in text)


def regex_class(slot):
    """A (negated, chars) slot as the regex class `find_sites` reads it as."""
    negated, chars = slot
    chars = re.escape(chars)
    return f"[^\n{chars}]" if negated else f"[{chars}]" if chars else "(?!)"


@BACKENDS
def test_find_sites_finds_the_sites_of_the_lookahead_form_and_the_scan(backend, inv, monkeypatch):
    """`find_sites` over a window's classes reports every site start,
    overlapping and adjacent ones included: the starts an all-lookahead
    regex reports and the ones `window_sites` finds, on 1-, 2- and 4-byte
    texts; site_test and find_matches read it."""
    monkeypatch.setattr(kernels, "find_sites", backend.find_sites)
    rng = random.Random(211)
    tables = (
        (inv, ["a", "t", "e", "k"]),
        (tiny_inventory(), ["a", "i", "n", "t", "s", "ts", "q", "x"]),
        (wide_inventory(), ["p0", "p1", "p2", "p129", "p130", "u1"]),
    )
    for table, phones in tables:
        compiler = R._compiler(table)
        pool = hand_built_pool(phones[:4]) + [R.in_set(["#", "@"]), Predicate("not-in", ("@",))]
        a = is_token(phones[0])
        windows = [(p,) for p in pool] + [(a, SEP_PRED, a), (a, SEP_PRED, a, SEP_PRED, a), (SEP_PRED, a)]
        windows += [(p, *rng.sample(pool, rng.randrange(1, 4))) for p in pool for _ in range(2)]
        firsts = {compiler._slot(w[0], table) for w in windows}
        assert (False, "") in firsts and any(negated for negated, _ in firsts)
        # runs of one phone give overlapping and adjacent sites
        words = [(phones[0],) * k for k in range(6)] + [(phones[0], phones[1]) * 3, (phones[1], phones[0], phones[0])]
        words += [tuple(rng.choice(phones) for _ in range(rng.randrange(0, 8))) for _ in range(20)]
        codes = compiler.encode(words)
        text = "\n".join(codes)
        offsets = list(itertools.accumulate((len(c) + 1 for c in codes), initial=0))
        for window in windows:
            slots = compiler.window(window, table)
            lookahead = re.compile(f"(?={''.join(map(regex_class, slots))})")
            want = [m.start() for m in lookahead.finditer(text)]
            for base in (0, 0x100, 0xF0000):
                wide = tuple((negated, widen(chars, base)) for negated, chars in slots)
                assert backend.find_sites(widen(text, base), wide) == want, (window, base)
            sites = [window_sites(window, preprocess(w), table) for w in words]
            assert want == [off + s for off, found in zip(offsets, sites) for s in found], window
            has_site = R.site_test(window, table)
            assert [has_site(w) for w in words] == [bool(found) for found in sites], window
        assert sum(len(R.find_matches(law([a, SEP_PRED, a], [0], [delete()]), preprocess(w), table))
                   for w in words[:6]) == 0 + 0 + 1 + 2 + 3 + 4
        for _ in range(300):  # datagen's form of a window, against the phone-level scan
            slots = rng.sample(pool, rng.randrange(1, 4))
            has_site = R.site_test((SEP_PRED, *R.interleave(slots), SEP_PRED), table)
            for word in words:
                assert has_site(word) == bool(window_sites(slots, word, table)), (slots, word)


PLANE_15 = "\U000F0000\U000F0001\U000FFFFD"


@BACKENDS
@pytest.mark.parametrize("text, slots, want", [
    ("ab\nab", ((True, ""),), [0, 1, 3, 4]),  # a negated slot never matches the newline
    ("ab\nab", ((True, ""), (True, "")), [0, 3]),  # so no site spans it
    ("ab\nab", ((True, "a"), (True, "a")), []),
    ("a\nb", ((False, "a\n"), (False, "b")), [1]),  # a class naming it does
    ("aaaa", ((False, "a"),), [0, 1, 2, 3]),  # one slot: adjacent sites
    ("aaaa", ((False, "a"), (False, "a")), [0, 1, 2]),  # overlapping sites
    ("abab", ((False, "a"), (False, "b")), [0, 2]),
    ("abab", ((False, ""),), []),  # an empty class matches nothing
    ("abab", ((False, "a"), (False, "")), []),
    ("", ((True, ""),), []),
    ("a", ((False, "a"), (False, "a")), []),  # a window longer than the text
    ("#@\x80@#\n#@\x81@\x80@#", ((False, "#"), (False, "@")), [0, 6]),
    ("#@\x80@#\n#@\x81@\x80@#", ((True, "#@"),), [2, 8, 10]),
    ("#@\x80@#\n#@\x81@\x80@#", ((False, "@"), (True, "\x80"), (False, "@")), [7]),
    (f"#{PLANE_15}@a\n{PLANE_15}", ((False, PLANE_15[2] + "a"),), [3, 5, 9]),
    (f"#{PLANE_15}@a\n{PLANE_15}", ((True, PLANE_15[:2] + "#@a"),), [3, 9]),
    (f"#{PLANE_15}@a\n{PLANE_15}", ((False, "\U000F0001"), (True, "")), [2, 8]),
    ("\u0100\u0101\n\u0101\xff", ((False, "\xff\u0101"), (True, "\u0100")), [3]),  # mixed widths
], ids=str)
def test_find_sites_hand_built(backend, text, slots, want):
    assert backend.find_sites(text, slots) == want
    assert backend.find_sites(text, [list(slot) for slot in slots]) == want


@BACKENDS
@pytest.mark.parametrize("text, slots", [
    (b"ab", ((False, "a"),)),
    ("ab", 5),
    ("ab", ()),  # a window of no slot
    ("ab", (5,)),
    ("ab", ((False,),)),
    ("ab", ((False, "a", "b"),)),
    ("ab", ((1, "a"),)),
    ("ab", ((1.0, "a"),)),  # equal to (True, "a"), which may be cached
    ("ab", ((None, "a"),)),
    ("ab", ((False, b"a"),)),
    ("ab", ((False, ["a"]),)),
])
def test_find_sites_rejects_malformed_input(backend, text, slots):
    assert backend.find_sites("ab", ((True, "a"),)) == [1]
    with pytest.raises((TypeError, ValueError)):
        backend.find_sites(text, slots)


def test_class_member_table_equals_the_in_class_walk(inv):
    """Each feature class's members, read once per inventory: the in_class walk
    over the feature table, in its order, on every table and after a pickle."""
    tiny = tiny_inventory()
    for table in (inv, tiny, wide_inventory()):
        R._slot_tokens(feature_class("is_vowel"), table)
        members = table._memos["rules.class_members"]
        assert list(members) == list(CLASS_DEFINITIONS)
        for name in CLASS_DEFINITIONS:
            want = tuple(t for t in table.features if table.in_class(name, t))
            assert members[name] == want, name
            assert R._slot_tokens(feature_class(name), table) == (False, want)
            assert R._slot_tokens(Predicate("not-class", (name,)), table) == (True, want)
        clone = pickle.loads(pickle.dumps(table))
        assert clone._memos == {}
        assert R._slot_tokens(feature_class("is_vowel"), clone) == (False, members["is_vowel"])
        assert clone._memos["rules.class_members"] == members
    assert "q" in tiny._memos["rules.class_members"]["is_consonant"] and "q" not in tiny
    assert tiny._memos["rules.class_members"]["is_velar"] == ()


def test_apply_to_lexicon_codes_track_the_outputs(inv):
    rng = random.Random(5)
    cfg = datagen.GenConfig()
    for _ in range(60):
        candidate = datagen.sample_random_law(cfg, rng, inv)
        words = [tuple(rng.choice(inv.segments) for _ in range(rng.randrange(1, 9))) for _ in range(30)]
        codes = R._compiler(inv).encode(words)
        given = apply_to_lexicon(candidate, words, inv, codes)
        assert given == apply_to_lexicon(candidate, words, inv)
        assert codes == R._compiler(inv).encode(given[0])


def test_compiled_engine_rejects_reserved_tokens(inv):
    candidate = law([is_token("a")], [0], [delete()])
    for bad in (("a", "#"), ("@",), ("t", "!", "a")):
        with pytest.raises(NonCanonicalTokenSeq) as err:
            apply_to_lexicon(candidate, [("a", "t"), bad, ("#",)], inv)
        assert err.value.args == (preprocess(bad),)  # the first bad word, as per word
        assert not is_canonical(preprocess(bad))


# -- cascades: the carried encoding against chained reference_apply ----------

# phones no segment list, word or predicate holds: a mapping that introduces
# one makes the carried re-encoding register a new code point
NEW_PHONES = ["y", "zz", "ʔ"]


# -- splice_sites: the compiled kernel against its twin and reference_apply ---

def splice_case(candidate, words, inv):
    """(text, starts, want) of one law over a lexicon: the joined encoding,
    the starts of `window_sites`' sites in it, and every word whose
    `reference_apply` output differs from it, with that output."""
    encode = R._compiler(inv).encode
    starts, want, offset = [], [], 0
    for i, word in enumerate(words):
        tokens = preprocess(word)
        starts += [offset + site for site in window_sites(candidate.predicates, tokens, inv)]
        offset += len(tokens) + 1
        out = reference_apply(candidate, word, inv)
        if out != tuple(word):
            want.append((i, out))
    return "\n".join(encode(words)), starts, want


def splice_features(candidate, words, inv):
    """The cases one law over a lexicon exercises, by name."""
    seen = set()
    width = len(candidate.predicates)
    for i, word in enumerate(words):
        tokens = preprocess(word)
        sites = window_sites(candidate.predicates, tokens, inv)
        if not sites:
            continue
        seen.add("first word" if i == 0 else "last word" if i == len(words) - 1 else "middle word")
        if not word:
            seen.add("empty word")
        if reference_apply(candidate, word, inv) == tuple(word):
            seen.add("unchanged word")
        if any(b - a < width for a, b in zip(sites, sites[1:])):
            seen.add("overlapping sites")
        if any(b - a == width for a, b in zip(sites, sites[1:])):
            seen.add("adjacent sites")
        targets = collections.Counter(site + pos for site in sites for pos in candidate.change_pos)
        if any(n > 1 for n in targets.values()):
            seen.add("two edits on one index")
        seen.update(f"edit on {tokens[idx]}" for idx in targets if tokens[idx] in ("#", "@"))
    return seen


@BACKENDS
def test_splice_sites_equals_reference_apply(backend):
    """Both backends against reference_apply, on random hand-built laws over
    lexicons of tuple and list words."""
    rng = random.Random(59)
    tiny = tiny_inventory()
    phones = ["a", "i", "n", "t", "s", "ts", "q", "x"]
    pool = hand_built_pool(phones[:4] + phones[-2:]) + [feature_class("is_anything")] * 8
    seen = collections.Counter()
    for _ in range(400):
        candidate = random_hand_built_law(rng, pool, phones)
        words = [tuple(rng.choice(phones[:3]) for _ in range(rng.randrange(0, 6))) for _ in range(6)]
        words = [list(w) if rng.random() < 0.3 else w for w in words]
        _, starts, want = splice_case(candidate, words, tiny)
        assert backend.splice_sites(words, starts, candidate.edits) == want, candidate
        seen.update(splice_features(candidate, words, tiny))
    assert set(seen) >= {
        "first word", "middle word", "last word", "empty word", "unchanged word", "overlapping sites",
        "adjacent sites", "two edits on one index", "edit on #", "edit on @",
    }, seen


def test_splice_sites_backends_agree_on_the_bundled_table(inv):
    """Both kernels against their twins on rp-ri laws over one joined
    lexicon: find_sites against the sites `window_sites` finds, then
    splice_sites on them."""
    rng = random.Random(61)
    cfg = datagen.GenConfig()
    compiler = R._compiler(inv)
    for _ in range(200):
        candidate = datagen.sample_random_law(cfg, rng, inv)
        words = [tuple(rng.choice(inv.segments) for _ in range(rng.randrange(0, 9))) for _ in range(30)]
        text, want_starts, _ = splice_case(candidate, words, inv)
        window = compiler.window(candidate.predicates, inv)
        starts = kernels.find_sites(text, window)
        assert starts == _native.find_sites(text, window) == want_starts, candidate
        got = kernels.splice_sites(words, starts, candidate.edits)
        assert got == _native.splice_sites(words, starts, candidate.edits)
        outputs = [apply_law_word(candidate, w, inv) for w in words]
        assert got == [(i, out) for i, (out, w) in enumerate(zip(outputs, words)) if out != w]


SPLICE_WORDS = [("a",), ("t", "a")]  # encoded "#@\x80@#\n#@\x81@\x80@#": lines of 5 and 7 tokens
SPLICE_EDIT = (0, 1, ("e",))


@BACKENDS
@pytest.mark.parametrize("words, starts, edits", [
    (SPLICE_WORDS, [8, 2], [SPLICE_EDIT]),  # descending
    (SPLICE_WORDS, [2, 2], [SPLICE_EDIT]),  # repeated
    (SPLICE_WORDS, [-1], [SPLICE_EDIT]),
    (SPLICE_WORDS, [13], [SPLICE_EDIT]),  # on the newline after the last line
    (SPLICE_WORDS, [2 ** 70], [SPLICE_EDIT]),
    (SPLICE_WORDS, [5], [SPLICE_EDIT]),  # on the newline
    ([("a", "a"), ("t", "a")], [7], [SPLICE_EDIT]),  # on the newline a longer first word moves to 7
    (SPLICE_WORDS, [2.0], [SPLICE_EDIT]),
    (SPLICE_WORDS, ["2"], [SPLICE_EDIT]),
    (SPLICE_WORDS, 2, [SPLICE_EDIT]),
    (SPLICE_WORDS, [2], [(0, 1)]),
    (SPLICE_WORDS, [2], [(0, 1, ("e",), 0)]),
    (SPLICE_WORDS, [2], [5]),
    (SPLICE_WORDS, [2], 5),
    (SPLICE_WORDS, [2], [(-1, 1, ("e",))]),
    (SPLICE_WORDS, [2], [(2 ** 70, 1, ("e",))]),
    (SPLICE_WORDS, [2], [(0.0, 1, ("e",))]),
    (SPLICE_WORDS, [2], [(0, 4, ("e",))]),
    (SPLICE_WORDS, [2], [(0, -1, ("e",))]),
    (SPLICE_WORDS, [2], [(0, "replace", ("e",))]),
    (SPLICE_WORDS, [2], [(0, 1, 5)]),
    (SPLICE_WORDS, [2], [(3, 1, ("e",))]),  # past the word's last '#'
    (SPLICE_WORDS[:1], [8], [SPLICE_EDIT]),  # a line with no word
    ([5, ("t", "a")], [2], [SPLICE_EDIT]),
    (5, [2], [SPLICE_EDIT]),
])
def test_splice_sites_rejects_malformed_input(backend, words, starts, edits):
    assert backend.splice_sites(SPLICE_WORDS, [2, 8], [SPLICE_EDIT]) == [(0, ("e",)), (1, ("e", "a"))]
    with pytest.raises((TypeError, ValueError)):
        backend.splice_sites(words, starts, edits)


@BACKENDS
def test_a_list_word_the_law_leaves_as_it_was_is_unchanged(backend, inv, monkeypatch):
    monkeypatch.setattr(kernels, "splice_sites", backend.splice_sites)
    a_a = law([is_token("a")], [0], [replace_with(("a",))])
    for words in ([["a", "e"]], [("a", "e")], [["a", "e"], ("e", "a")]):
        assert apply_to_lexicon(a_a, words, inv) == ([tuple(w) for w in words], [False] * len(words))
        assert law_is_inert(a_a, words, inv)
    a_e = law([is_token("a")], [0], [replace_with(("e",))])
    assert apply_to_lexicon(a_e, [["a", "e"], ["t"]], inv) == ([("e", "e"), ("t",)], [True, False])
    assert not law_is_inert(a_e, [["t"], ["a", "e"]], inv)


def random_cascade_laws(rng, pool, phones, count):
    return [random_hand_built_law(rng, pool, phones + NEW_PHONES) for _ in range(count)]


def test_apply_cascade_equals_chained_reference(inv):
    rng = random.Random(211)
    phones = ["a", "i", "n", "t", "s", "ts", "q", "x"]
    pool = hand_built_pool(phones[:4] + phones[-2:])
    cfg = datagen.GenConfig()
    for trial in range(120):
        if trial % 4:  # a fresh codebook, so new phones first show up mid-cascade
            table, laws = tiny_inventory(), random_cascade_laws(rng, pool, phones, rng.randrange(2, 6))
            words = [tuple(rng.choice(phones) for _ in range(rng.randrange(0, 7))) for _ in range(15)]
        else:
            table = inv
            laws = [datagen.sample_random_law(cfg, rng, inv) for _ in range(rng.randrange(2, 6))]
            words = [tuple(rng.choice(inv.segments) for _ in range(rng.randrange(0, 9))) for _ in range(15)]
        stages = apply_cascade(Cascade(tuple(laws)), words, table)
        current = words
        for stage, candidate in zip(stages, laws):
            want = [reference_apply(candidate, w, table) for w in current]
            assert list(stage.inputs) == current
            assert list(stage.outputs) == want, candidate
            assert list(stage.changed) == [o != w for o, w in zip(want, current)], candidate
            current = want


def test_single_law_dataset_equals_per_law_apply_to_lexicon(monkeypatch):
    from soundlaw import benchmark

    rng = random.Random(223)
    phones = ["a", "i", "n", "t", "s", "ts", "q", "x"]
    pool = hand_built_pool(phones[:4] + phones[-2:])
    for trial in range(40):
        laws = random_cascade_laws(rng, pool, phones, rng.randrange(2, 6))
        words = {tuple(rng.choice(phones) for _ in range(rng.randrange(1, 7))) for _ in range(30)}
        spec = benchmark.BenchmarkSpec(Cascade(tuple(laws)), tuple(sorted(words)), "fz", seed=trial)
        carried = benchmark.build_single_law_dataset(spec, tiny_inventory())
        with monkeypatch.context() as patch:  # every law encodes the lexicon afresh
            patch.setattr(R, "apply_to_lexicon", lambda law, words, inv, codes: apply_to_lexicon(law, words, inv))
            per_law = benchmark.build_single_law_dataset(spec, tiny_inventory())
        assert carried == per_law


def test_evaluate_samples_multi_law_candidates_equal_chained_apply_law_word():
    rng = random.Random(227)
    phones = ["a", "i", "n", "t", "s", "ts", "q", "x"]
    pool = hand_built_pool(phones[:4] + phones[-2:])
    scored = 0
    for _ in range(200):  # bounded, so an engine that changes no word fails instead of hanging
        if scored == 40:
            break
        tiny = tiny_inventory()
        gold = random_hand_built_law(rng, pool, phones + NEW_PHONES)
        inputs = [tuple(rng.choice(phones) for _ in range(rng.randrange(1, 7))) for _ in range(10)]
        outputs = [apply_law_word(gold, w, tiny) for w in inputs]
        if outputs == inputs:
            continue
        task = PBETask("t", "rp-ri", tuple(inputs), tuple(outputs), gold)
        candidates = [random_cascade_laws(rng, pool, phones, rng.randrange(1, 5)) for _ in range(4)]
        candidates += [gold, [gold] + candidates[0], None, candidates[1]]
        want = []
        for cand in candidates:
            pred = inputs
            for step in [] if cand is None else [cand] if isinstance(cand, SoundLaw) else cand:
                pred = [apply_law_word(step, w, tiny) for w in pred]
            want.append(evaluation.reward(inputs, pred, outputs))
        report = evaluation.evaluate_samples(task, candidates, tiny)
        assert list(report.rewards) == want, candidates
        scored += 1
    assert scored == 40


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_evaluate_many_workers_agree_after_parent_compiled(method, monkeypatch):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    tiny = tiny_inventory()
    rng = random.Random(5)
    phones = ["a", "i", "n", "t", "s", "ts", "q", "x", "y"]
    pool = hand_built_pool(phones)
    pairs = []
    while len(pairs) < 6:
        gold = random_hand_built_law(rng, pool, phones)
        inputs = [tuple(rng.choice(phones) for _ in range(rng.randrange(1, 7))) for _ in range(10)]
        outputs, changed = apply_to_lexicon(gold, inputs, tiny)
        if any(changed):
            task = PBETask(f"t{len(pairs)}", "rp-ri", tuple(inputs), tuple(outputs), gold)
            others = [random_hand_built_law(rng, pool, phones) for _ in range(2)]
            pairs.append((task, [gold, others[0], None, others]))
    # the parent meets the phones and laws in reverse order first, so its
    # codebook differs from the one a fresh worker builds
    expected = evaluation.evaluate_many(pairs[::-1], tiny)[::-1]
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=context),
    )
    assert evaluation.evaluate_many(pairs, tiny, jobs=2) == expected
