import json

import pytest

from soundlaw import dsl
from soundlaw.dsl import (
    AmbiguousInsertionAnchor,
    Atom,
    ClassicalRule,
    EmptyRule,
    RuleSyntaxError,
    SchemaError,
    UnresolvableSymbol,
    extract_code_blocks,
    law_to_doc,
    load_rule_db,
    lower_classical,
    parse_classical,
    parse_program_text,
    print_classical,
    print_law,
    read_law,
    read_laws,
)
from soundlaw.rules import apply_law_word, delete, insert_after, is_token, replace_with
from soundlaw.datagen import GenConfig, derive_rng, sample_random_law


# -- classical notation -----------------------------------------------------


def test_parse_classical_final_devoicing():
    rule = parse_classical("t > d / _ #")
    assert rule.focus == "t" and rule.target == "d"
    assert rule.left == () and rule.right == (Atom("boundary"),)


def test_parse_classical_insertion():
    rule = parse_classical("∅ > k / {i,u} _ #")
    assert rule.focus == "" and rule.target == "k"
    assert rule.left == (Atom("set", ("i", "u")),)
    assert rule.right == (Atom("boundary"),)


def test_parse_classical_class_context():
    rule = parse_classical("u > o / _ C")
    assert rule.right == (Atom("class", ("is_consonant",)),)


def test_parse_classical_no_context_and_zero_mark():
    rule = parse_classical("k > 0")
    assert rule.focus == "k" and rule.target == "" and rule.left == rule.right == ()


def test_parse_classical_whitespace_insensitive():
    assert parse_classical("t>d/_#") == parse_classical("t > d /  _   #")


@pytest.mark.parametrize(
    "text",
    ["", "t d", "t > d / #", "t > d / _ _ #", "a > e / {i _", "a > e / X _"],
)
def test_parse_classical_syntax_errors(text):
    with pytest.raises(RuleSyntaxError):
        parse_classical(text)


def test_parse_classical_empty_rule():
    with pytest.raises(EmptyRule):
        parse_classical("∅ > ∅ / a _")


def test_boundary_only_at_edge():
    with pytest.raises(RuleSyntaxError):
        parse_classical("a > e / t # _")
    with pytest.raises(RuleSyntaxError):
        parse_classical("a > e / _ # s")
    # at the outer edges it is fine
    parse_classical("a > e / # t _ s #")


def test_print_parse_roundtrip():
    for text in ("t > d / _ #", "∅ > k / {i,u} _ #", "u > o / _ C", "k > ∅", "a > e / # _ j"):
        rule = parse_classical(text)
        assert parse_classical(print_classical(rule)) == rule


# -- lowering ---------------------------------------------------------------


def test_lowering_matches_pre_j_raising(inv):
    law = lower_classical(parse_classical("a > e / _ j"), inv)
    assert law.predicates == (is_token("a"), is_token("@"), is_token("j"))
    assert law.change_pos == (0,)
    assert law.mappings == (replace_with(["e"]),)


def test_lowering_reproduces_rule_table(inv):
    rows = [
        ("t > d / _ #", "sunt", "sund"),
        ("t > d / _ #", "tapere", "tapere"),
        ("m > n / _ #", "tʰum", "tʰun"),
        ("m > n / _ #", "sam", "san"),
        ("u > o / _ C", "talun", "talon"),
        ("u > o / _ C", "suat", "suat"),
        ("k > ∅ / _ #", "pik", "pi"),
        ("k > ∅ / _ #", "kap", "kap"),
    ]
    for text, word, expect in rows:
        law = lower_classical(parse_classical(text), inv)
        assert "".join(apply_law_word(law, inv.segment(word), inv)) == expect, text


def test_lowering_insertion_after_set(inv):
    law = lower_classical(parse_classical("∅ > k / {i,u} _ #"), inv)
    assert "".join(apply_law_word(law, inv.segment("hi"), inv)) == "hik"
    assert "".join(apply_law_word(law, inv.segment("ha"), inv)) == "ha"


def test_lowering_insertion_before(inv):
    law = lower_classical(parse_classical("∅ > e / # _ s"), inv)
    assert "".join(apply_law_word(law, inv.segment("sta"), inv)) == "esta"
    assert "".join(apply_law_word(law, inv.segment("ta"), inv)) == "ta"


def test_lowering_deletion(inv):
    law = lower_classical(parse_classical("k > ∅ / _ #"), inv)
    assert law.mappings == (delete(),)


def test_lowering_multiphone_target(inv):
    law = lower_classical(parse_classical("p > sts"), inv)
    assert law.mappings == (replace_with(["s", "ts"]),)


def test_lowering_errors(inv):
    with pytest.raises(UnresolvableSymbol):
        lower_classical(parse_classical("Z > d"), inv)
    with pytest.raises(UnresolvableSymbol):
        lower_classical(parse_classical("a > e / _ {i,Z}"), inv)
    with pytest.raises(AmbiguousInsertionAnchor):
        lower_classical(parse_classical("∅ > k / # _ #"), inv)
    with pytest.raises(AmbiguousInsertionAnchor):
        lower_classical(ClassicalRule("", "k"), inv)


# -- law JSON ---------------------------------------------------------------


def test_law_json_roundtrip_fig_law(inv):
    law = lower_classical(parse_classical("a > e / _ j"), inv)
    assert read_law(print_law(law)) == law


def test_law_json_roundtrip_random(inv):
    cfg = GenConfig(seed=5)
    for i in range(500):
        law = sample_random_law(cfg, derive_rng(5, "roundtrip", i), inv)
        assert read_law(print_law(law)) == law


def test_law_json_schema_errors(inv):
    law = lower_classical(parse_classical("a > e / _ j"), inv)
    doc = law_to_doc(law)
    bad = dict(doc, mappings=doc["mappings"] * 2)
    with pytest.raises(SchemaError):
        dsl.doc_to_law(bad)
    with pytest.raises(SchemaError):
        dsl.doc_to_law({"predicates": []})
    with pytest.raises(SchemaError):
        read_law("not json")


# -- constructor surface syntax ----------------------------------------------


def test_word_initial_change(inv):
    text = (
        "action = BasicAction(predicates=[lambda x: x == '#', lambda x: x == '@', "
        "lambda x: x == 'a'], change_pos=[2], mapping_fn=[lambda x: 'e'])"
    )
    parsed = parse_program_text(text, inv)
    assert not parsed.diagnostics
    (law,) = parsed.laws
    assert law.change_pos == (2,)
    assert "".join(apply_law_word(law, inv.segment("am"), inv)) == "em"
    assert "".join(apply_law_word(law, inv.segment("ma"), inv)) == "ma"


def test_corpus_of_attested_forms(inv, data_dir):
    text = (data_dir / "constructor_corpus.txt").read_text(encoding="utf-8")
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    blocks = [b.strip() for b in body.split("---") if b.strip()]
    assert len(blocks) == 35
    for block in blocks:
        parsed = parse_program_text(block, inv)
        assert len(parsed.laws) == 1, (block, parsed.diagnostics)
        assert not parsed.diagnostics, (block, parsed.diagnostics)


def test_separator_insertion_rebase(inv):
    # appending after the '@' separator means appending after the phone left of it
    text = (
        "action = BasicAction(predicates=[lambda x: x == 'n', lambda x: x == '@'], "
        "change_pos=[1], mapping_fn=[lambda x: x+'a'])"
    )
    parsed = parse_program_text(text, inv)
    (law,) = parsed.laws
    assert law.change_pos == (0,)
    assert law.mappings == (insert_after(["a"]),)


def test_deletion_literal_with_space(inv):
    text = (
        "action = BasicAction(predicates=[lambda x: x == 't'], change_pos=[0], "
        "mapping_fn=[lambda x: '! '])"
    )
    parsed = parse_program_text(text, inv)
    assert parsed.laws[0].mappings == (delete(),)


def test_empty_predicates_diagnostic(inv):
    parsed = parse_program_text(
        "BasicAction(predicates=[], change_pos=[0], mapping_fn=[lambda x: 'e'])", inv
    )
    assert not parsed.laws
    assert any("predicate" in d.message for d in parsed.diagnostics)


def test_unknown_symbol_diagnostic(inv):
    parsed = parse_program_text(
        "BasicAction(predicates=[lambda x: x == 'Z9'], change_pos=[0], mapping_fn=[lambda x: 'e'])",
        inv,
    )
    assert not parsed.laws
    assert parsed.diagnostics[0].code == "unresolvable-symbol"


def test_redefinition_ignored_but_calls_parsed(inv):
    text = (
        "class BasicAction(object):\n    pass\n\n"
        "a = BasicAction(predicates=[lambda x: x == 'a'], change_pos=[0], mapping_fn=[lambda x: 'e'])\n"
    )
    parsed = parse_program_text(text, inv)
    assert len(parsed.laws) == 1
    assert any(d.code == "redefinition" for d in parsed.diagnostics)


def test_parse_totality_accounts_for_every_constructor(inv):
    text = (
        "a = BasicAction(predicates=[lambda x: x == 'a'], change_pos=[0], mapping_fn=[lambda x: 'e'])\n"
        "b = BasicAction(predicates=[lambda x: x == 'Q9'], change_pos=[0], mapping_fn=[lambda x: 'e'])\n"
        "c = BasicAction(predicates=[lambda x: x == 't'], change_pos=[0], mapping_fn=[lambda x: '!'])\n"
    )
    parsed = parse_program_text(text, inv)
    assert len(parsed.laws) == 2
    assert len(parsed.diagnostics) == 1  # laws + diagnostics cover all three


def test_parse_never_raises_on_garbage(inv):
    for text in ("BasicAction(", "BasicAction(predicates=3)", "nothing here", "BasicAction()"):
        parsed = parse_program_text(text, inv)
        assert isinstance(parsed.laws, tuple)


def test_curly_quote_normalization(inv):
    text = "BasicAction(predicates=[lambda x: x == ‘a’], change_pos=[0], mapping_fn=[lambda x: ‘e’])"
    parsed = parse_program_text(text, inv)
    assert len(parsed.laws) == 1 and not parsed.diagnostics


# -- code block extraction ----------------------------------------------------


def test_extract_blocks_two_fenced():
    blocks, diags = extract_code_blocks("intro\n```python\none\n```\nmid\n```\ntwo\n```\n")
    assert blocks == ["one\n", "two\n"] and not diags


def test_extract_blocks_none():
    blocks, diags = extract_code_blocks("plain text only")
    assert blocks == ["plain text only"] and not diags


def test_extract_blocks_unclosed():
    blocks, diags = extract_code_blocks("x\n```python\ntail without close")
    assert blocks == ["tail without close"]
    assert diags and diags[0].code == "unclosed-fence"


# -- law text in any surface ---------------------------------------------------

RULES = ("a > e / _ j", "t > d / _ #")
CONSTRUCTORS = (
    "BasicAction(predicates=[lambda x: x == 'a', lambda x: x == '@', lambda x: x == 'j'], "
    "change_pos=[0], mapping_fn=[lambda x: 'e'])",
    "BasicAction(predicates=[lambda x: x == 't', lambda x: x == '@', lambda x: x == '#'], "
    "change_pos=[0], mapping_fn=[lambda x: 'd'])",
)


@pytest.mark.parametrize("surface", ["classical", "json-lines", "json-array", "constructor"])
def test_read_laws_reads_every_surface(surface, inv):
    laws = [lower_classical(parse_classical(rule), inv) for rule in RULES]
    text = {
        "classical": "\n".join(RULES),
        "json-lines": "".join(print_law(law) + "\n" for law in laws),
        "json-array": json.dumps([law_to_doc(law) for law in laws], indent=2),
        "constructor": "Two laws:\n```python\n" + "\n".join(CONSTRUCTORS) + "\n```\n",
    }[surface]
    labelled, diagnostics = read_laws(text, inv)
    assert [law for _, law in labelled] == laws and diagnostics == ()
    assert [label for label, _ in labelled] == (list(RULES) if surface == "classical" else ["", ""])


def test_read_laws_labels_diagnostics_and_errors(inv):
    pre_j, law = (lower_classical(parse_classical(rule), inv) for rule in RULES)
    # the last comment before a rule labels it; an empty one leaves the rule line
    text = "# one\n# final voicing\n\nt > d / _ #\n#\na > e / _ j\n"
    assert read_laws(text, inv) == ([("final voicing", law), (RULES[0], pre_j)], ())
    text = "# ported from a BasicAction transcript\nt > d / _ #\n"
    assert read_laws(text, inv) == ([("ported from a BasicAction transcript", law)], ())
    assert read_laws(json.dumps(law_to_doc(law), indent=2), inv) == ([("", law)], ())
    assert read_laws("# comments only\n\n", inv) == ([], ())
    bad = CONSTRUCTORS[1] + "\nBasicAction(predicates=[lambda x: foo(x)], change_pos=[0], mapping_fn=[])"
    labelled, diagnostics = read_laws(bad, inv)
    assert labelled == [("", law)] and [d.code for d in diagnostics] == ["bad-constructor"]
    with pytest.raises(SchemaError):
        read_laws('[{"predicates": ', inv)
    # a JSON line names its line, counted in the text as given
    for malformed in (print_law(law) + "\n{", print_law(law) + '\n{"predicates": []}',
                      "\n" + print_law(law) + "\n\n{}"):
        with pytest.raises(SchemaError, match="^line 2: " if malformed[0] == "{" else "^line 4: "):
            read_laws(malformed, inv)
    # an element of a JSON array names its place in the array
    with pytest.raises(SchemaError, match=r"^law 2: law document missing \['change_pos', 'mappings'\]"):
        read_laws(json.dumps([law_to_doc(law), {"predicates": []}], indent=2), inv)
    with pytest.raises(RuleSyntaxError, match="line 2"):
        read_laws("t > d / _ #\nt d", inv)
    with pytest.raises(UnresolvableSymbol, match="line 4: Z"):
        read_laws("# final voicing\nt > d / _ #\n\nZ > d", inv)


# -- rule database -------------------------------------------------------------


def test_load_rule_db(inv):
    text = "u > o / _ C\tfam\tpoc-x\nt > d / _ #\n# comment\nZ > d\tfam\tpair\n"
    db = load_rule_db(text, inv)
    assert len(db) == 3
    assert len(db.usable()) == 2
    assert db.entries[0].family == "fam" and db.entries[0].language_pair == "poc-x"
    assert db.entries[2].lower_error
    for entry in db.entries[:2]:
        assert entry.law == lower_classical(entry.rule, inv)
    assert db.entries[2].law is None


def test_load_rule_db_syntax_error(inv):
    with pytest.raises(RuleSyntaxError):
        load_rule_db("this is not a rule\n", inv)
