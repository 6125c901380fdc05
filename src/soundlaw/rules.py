"""Sound laws and their application to token sequences.

A law is a window of predicates plus edits at fixed window slots.  Matching
is two-stage: every match site is located on the original token sequence
first, then all edits are materialized at once.  A rule therefore never
fires on material it introduced itself (no self-feeding), and overlapping
matches that fight over one slot resolve deterministically to the leftmost
site.

Matching is compiled, with no regular expression.  Per inventory, every
token is encoded as one character: '#' and '@' stand for themselves and
phone n gets chr(0x80 + n), one dense range starting with the table's own
segments, so a lexicon over a table of up to 128 phones encodes to a
one-byte string.  `_LawCompiler` alone decides that layout.  Each window
slot becomes a (negated, chars) class over those codes (a feature class's
members are read once per inventory), and a predicate window the tuple of
its slots' classes, built once per (window, inventory) and cached on the
inventory.  One call of the `kernels.find_sites` kernel returns every site
start of a window in a text, overlapping ones included; it tests each slot
with one bit of a bitmap sized to the highest code the window names.
Datagen reads the same slots: `slot_members` the token set a slot's class
is built from, `site_test` the window as a test of one word.

Rewriting works on that encoding too (the compile-the-rewrite approach of
Kaplan & Kay 1994 and Mohri & Sproat 1996, stopped short of a transducer).
`apply_to_lexicon` joins the encoded words with newlines, which no slot
matches, and finds every site of the law in one `find_sites` call.  One
call of the `kernels.splice_sites` kernel takes the words and every site
start, groups the sites by word (word i's line is 2 * len(word) + 3
characters, so the words alone say where each line ends), applies each
word's leftmost-wins edit map straight to its phones and returns only the
words whose output differs; every other word comes back unchanged.
`apply_in_order` runs laws one after another on that encoding: it encodes
the words once and re-encodes only the words a law changed.  Each
candidate program of an evaluation runs through it, and so does a
cascade: `apply_cascade` returns one `Stage` per law, which `derive`
prints and `bench` unrolls into one single-law task each.  So the encoding
never leaves this module.

The token-level engine (`preprocess`, `find_matches`, `apply_law`,
`render`, behind `apply_law_word`) runs the same windows and the same
kernels one word at a time.  It is the public per-word API;
`tasks.validate_task` re-executes gold laws through it to catch a stale or
tampered tasks file.
The independent oracles are in `tests/oracles.py`: `window_sites` and
`reference_apply` read each slot token by token through
`SegmentInventory.in_class`, not through `_slot_tokens`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .phonology import (
    BOUNDARY,
    CLASS_DEFINITIONS,
    DELETION_MARK,
    RESERVED,
    SEPARATOR,
    FEATURE_CLASS_NAMES,
    NonCanonicalTokenSeq,
    PhoneSeq,
    SegmentInventory,
    TokenSeq,
    is_canonical,
    preprocess,
    render,
)

PRED_KINDS = ("is", "is-not", "in", "not-in", "class", "not-class")
MAP_KINDS = ("delete", "replace", "insert-before", "insert-after")


class RuleError(Exception):
    pass


@dataclass(frozen=True)
class Predicate:
    """One window slot: a test over a single token."""

    kind: str
    args: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in PRED_KINDS:
            raise RuleError(f"unknown predicate kind {self.kind!r}")
        if self.kind in ("is", "is-not", "class", "not-class") and len(self.args) != 1:
            raise RuleError(f"{self.kind} predicate takes exactly one argument")
        if self.kind in ("in", "not-in") and not self.args:
            raise RuleError(f"{self.kind} predicate needs a non-empty set")
        if "" in self.args:
            raise RuleError(f"{self.kind} predicate names an empty symbol")
        if self.kind in ("class", "not-class") and self.args[0] not in FEATURE_CLASS_NAMES:
            raise RuleError(f"unknown feature class {self.args[0]!r}")

    def can_match_phone(self) -> bool:
        """False for slots that only ever match '@' or '#', read off the
        slot's (negated, tokens) with no inventory: a feature class can
        always match a phone; any other slot can when it is negated or names
        a token that is not reserved."""
        if self.kind in ("class", "not-class") and self.args[0] not in _TOKEN_CLASSES:
            return True
        negated, tokens = _slot_tokens(self, None)
        return negated or any(t not in RESERVED for t in tokens)


def is_token(symbol: str) -> Predicate:
    return Predicate("is", (symbol,))


def is_not_token(symbol: str) -> Predicate:
    return Predicate("is-not", (symbol,))


def in_set(symbols) -> Predicate:
    return Predicate("in", tuple(symbols))


def feature_class(name: str) -> Predicate:
    return Predicate("class", (name,))


SEP_PRED = is_token(SEPARATOR)


def interleave(slots) -> tuple[Predicate, ...]:
    """The window of one-phone slots: slot k at position 2k, a separator
    slot between each pair."""
    window = [SEP_PRED] * (2 * len(slots) - 1)
    window[::2] = slots
    return tuple(window)


@dataclass(frozen=True)
class Mapping:
    """The edit performed at one change position."""

    kind: str
    phones: PhoneSeq = ()

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise RuleError(f"unknown mapping kind {self.kind!r}")
        if self.kind == "delete":
            if self.phones:
                raise RuleError("delete mapping carries no phones")
        else:
            if not self.phones:
                raise RuleError(f"{self.kind} mapping needs at least one phone")
            for p in self.phones:
                if not p or any(ch in RESERVED for ch in p):
                    raise RuleError(f"mapping phone {p!r} uses a reserved character")


def delete() -> Mapping:
    return Mapping("delete")


def replace_with(phones) -> Mapping:
    return Mapping("replace", tuple(phones))


def insert_before(phones) -> Mapping:
    return Mapping("insert-before", tuple(phones))


def insert_after(phones) -> Mapping:
    return Mapping("insert-after", tuple(phones))


@dataclass(frozen=True)
class SoundLaw:
    predicates: tuple[Predicate, ...]
    change_pos: tuple[int, ...]
    mappings: tuple[Mapping, ...]

    def __post_init__(self):
        if not self.predicates:
            raise RuleError("law needs at least one predicate")
        if len(self.change_pos) != len(self.mappings):
            raise RuleError("change_pos and mappings must have equal length")
        if not self.change_pos:
            raise RuleError("law needs at least one change position")
        prev = -1
        for pos in self.change_pos:
            if not 0 <= pos < len(self.predicates):
                raise RuleError(f"change position {pos} outside the window")
            if pos <= prev:
                raise RuleError("change positions must be strictly increasing")
            if not self.predicates[pos].can_match_phone():
                raise RuleError(f"change position {pos} targets a separator/boundary slot")
            prev = pos
        # (pos, kind code, phones) of each edit, as kernels.splice_sites reads
        # them; derived, so not a field of the law's equality or hash
        edits = tuple(
            (pos, MAP_KINDS.index(m.kind), m.phones) for pos, m in zip(self.change_pos, self.mappings)
        )
        object.__setattr__(self, "edits", edits)


@dataclass(frozen=True)
class Cascade:
    """Laws applied in order; a law with no label is labelled "law i" (from 1)."""

    laws: tuple[SoundLaw, ...]
    name: str = ""
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.labels and len(self.labels) != len(self.laws):
            raise RuleError("labels must align with laws")
        labels = self.labels or ("",) * len(self.laws)
        object.__setattr__(
            self, "labels", tuple(label or f"law {i + 1}" for i, label in enumerate(labels))
        )

    def __len__(self) -> int:
        return len(self.laws)


# the token classes, each as the (negated, tokens) reading of its slot
_TOKEN_CLASSES = {
    "is_nothing": (False, (SEPARATOR,)),
    "is_anything": (True, ()),
    "is_not_boundary": (True, (BOUNDARY,)),
}


def _slot_tokens(pred: Predicate, inv: SegmentInventory | None) -> tuple[bool, tuple[str, ...]]:
    """(negated, tokens): a slot matches exactly the tokens, or (negated)
    every token but them.  This is the one reading of a slot in the
    package: the compiler, `slot_members` and `can_match_phone` read it.
    `inv` is read only for a feature class's members."""
    kind, args = pred.kind, pred.args
    if kind not in ("class", "not-class"):
        return kind in ("is-not", "not-in"), args
    if args[0] in _TOKEN_CLASSES:
        negated, tokens = _TOKEN_CLASSES[args[0]]
    else:  # only phones with a feature row can belong
        negated, tokens = False, inv.memo("rules.class_members", _class_members)[args[0]]
    return negated != (kind == "not-class"), tokens


def _class_members(inv: SegmentInventory) -> dict[str, tuple[str, ...]]:
    """Each feature class's members, in the order of the feature table."""
    return {
        name: tuple(t for t in inv.features if inv.in_class(name, t)) for name in CLASS_DEFINITIONS
    }


class _LawCompiler:
    """One inventory's token codebook and the laws compiled against it."""

    # datagen samples a fresh random law per attempt, so the cache starts
    # over past this many windows instead of growing for the life of the process
    MAX_WINDOWS = 4096

    def __init__(self, inv: SegmentInventory):
        # token -> its character; '!' never occurs in an encoded word
        self.code = {BOUNDARY: BOUNDARY, SEPARATOR: SEPARATOR, DELETION_MARK: DELETION_MARK}
        # phone -> its character followed by the separator
        self.phone_sep: dict[str, str] = {}
        self.windows: dict[tuple[Predicate, ...], tuple[tuple[bool, str], ...]] = {}
        for seg in inv.segments:
            self._add(seg)

    def _add(self, phone: str) -> str:
        """Give a phone the next code, chr(0x80 + n) for the n-th phone, and
        return it.  This is the encoding's one layout: the inventory's own
        segments come first, so a lexicon over a table of up to 128 phones
        is a one-byte string, and `kernels.find_sites` sizes each slot's
        bitmap to the highest code a window names."""
        char = chr(0x80 + len(self.phone_sep))
        self.code[phone] = char
        self.phone_sep[phone] = char + SEPARATOR
        return char

    def _char(self, token: str) -> str:
        return self.code.get(token) or self._add(token)

    def _slot(self, pred: Predicate, inv: SegmentInventory) -> tuple[bool, str]:
        """The (negated, chars) class of one slot, over the tokens' codes;
        `find_sites` matches no newline with a negated class, and no code
        is a newline."""
        negated, tokens = _slot_tokens(pred, inv)
        return negated, "".join(self._char(t) for t in tokens)

    def window(self, preds: tuple[Predicate, ...], inv: SegmentInventory) -> tuple[tuple[bool, str], ...]:
        """The classes of a predicate window's slots, as `find_sites` reads them."""
        window = self.windows.get(preds)
        if window is None:
            if len(self.windows) >= self.MAX_WINDOWS:
                self.windows.clear()
            window = self.windows[preds] = tuple(self._slot(p, inv) for p in preds)
        return window

    def encode(self, words) -> list[str]:
        """Every word as preprocess() would give it, one character per token."""
        code_sep = self.phone_sep.__getitem__
        try:
            return ["#@" + "".join(map(code_sep, w)) + "#" for w in words]
        except KeyError:
            pass
        for word in words:  # the first word with a reserved token fails, as per word
            for phone in word:
                if phone in RESERVED:
                    raise NonCanonicalTokenSeq(preprocess(word))
                if phone not in self.phone_sep:
                    self._add(phone)
        return self.encode(words)

    def rewrites(self, law: SoundLaw, words, codes: list[str], inv: SegmentInventory) -> list:
        """(index, output) of every word the law changes, in order, from one
        scan of the encoded words joined by newlines."""
        starts = kernels.find_sites("\n".join(codes), self.window(law.predicates, inv))
        return kernels.splice_sites(words, starts, law.edits)


def _compiler(inv: SegmentInventory) -> _LawCompiler:
    return inv.memo("rules.compiler", _LawCompiler)


def find_matches(law: SoundLaw, tokens: TokenSeq, inv: SegmentInventory) -> list[int]:
    """All window positions (ascending) where every predicate holds."""
    if not is_canonical(tokens):
        raise NonCanonicalTokenSeq(tokens)
    compiler = _compiler(inv)
    text = compiler.encode((tokens[2:-2:2],))[0]
    return kernels.find_sites(text, compiler.window(law.predicates, inv))


def site_test(preds: tuple[Predicate, ...], inv: SegmentInventory):
    """A test of one word: True when the predicate window matches somewhere
    in preprocess(word).  The window's classes and the codebook are bound
    once for every word tested."""
    compiler = _compiler(inv)
    window = compiler.window(preds, inv)
    encode, find_sites = compiler.encode, kernels.find_sites
    return lambda word: bool(find_sites(encode((word,))[0], window))


def slot_members(pred: Predicate, inv: SegmentInventory) -> list[str]:
    """The segments one slot matches, in inventory order: the token set its
    class is built from, read without encoding it."""
    negated, tokens = _slot_tokens(pred, inv)
    members = set(tokens)
    return [s for s in inv.segments if (s in members) != negated]


def apply_law(law: SoundLaw, tokens: TokenSeq, inv: SegmentInventory) -> TokenSeq:
    """Apply one law: match on the original sequence, then edit in one pass.

    Edits from distinct sites that land on the same absolute index resolve
    to the leftmost site; the loser is dropped.  The edits are
    `kernels.splice_sites`', which reads the sites of `tokens` as those of
    its one word, and the output is put back into canonical token form, so
    inserted phones get their separators and a deleted phone takes its
    separator with it.
    """
    sites = find_matches(law, tokens, inv)
    if not sites:
        return tokens
    changed = kernels.splice_sites((tokens[2:-2:2],), sites, law.edits)
    return preprocess(changed[0][1]) if changed else tokens


def apply_law_word(law: SoundLaw, word: PhoneSeq, inv: SegmentInventory) -> PhoneSeq:
    """Apply one law to one word through the token-level engine.

    This per-word path (`preprocess`, `find_matches`, `apply_law`, `render`)
    gives what `apply_to_lexicon` gives, through the same matcher and
    `kernels.splice_sites`.  `tasks.validate_task` runs it to re-execute a
    gold law and so catch a stale or tampered tasks file; `window_sites` and
    `reference_apply` in `tests/oracles.py` are the independent oracles of
    both paths.
    """
    return render(apply_law(law, preprocess(word), inv))


def apply_to_lexicon(
    law: SoundLaw, words: list[PhoneSeq], inv: SegmentInventory, codes: list[str] | None = None
) -> tuple[list[PhoneSeq], list[bool]]:
    """Apply a law to every word; the mask flags words that changed.

    One `kernels.find_sites` call finds the sites, and one `kernels.splice_sites` call
    splices the edits into the phones of every word holding one.  `codes`,
    if given, is the words' encoding; it is updated in place to encode the
    outputs, so the next law of a cascade scans it without encoding the
    unchanged words again.  The changed words are re-encoded by one
    `encode` call after the scan.  Outside this module, `apply_in_order`
    carries it.
    """
    compiler = _compiler(inv)
    outputs = [tuple(w) for w in words]
    changed = [False] * len(words)
    rewritten = compiler.rewrites(law, words, compiler.encode(words) if codes is None else codes, inv)
    for i, out in rewritten:
        outputs[i] = out
        changed[i] = True
    if codes is not None:
        for (i, _), code in zip(rewritten, compiler.encode([out for _, out in rewritten])):
            codes[i] = code
    return outputs, changed


def apply_in_order(laws, words, inv: SegmentInventory):
    """Yield (outputs, changed) of each law in turn, each applied to the
    outputs of the one before it (the first to `words`).

    The words are encoded once; each law re-encodes only the words it
    changed.  Raises NonCanonicalTokenSeq for the first word holding '#',
    '@' or '!'.
    """
    codes = _compiler(inv).encode(words)  # carried from law to law
    for law in laws:
        words, changed = apply_to_lexicon(law, words, inv, codes)
        yield words, changed


def law_is_inert(law: SoundLaw, words: list[PhoneSeq], inv: SegmentInventory) -> bool:
    """True when the law changes none of the words."""
    compiler = _compiler(inv)
    return not compiler.rewrites(law, words, compiler.encode(words), inv)


@dataclass(frozen=True)
class Stage:
    """One law of a cascade run: its label, the lexicon it read, the lexicon
    it wrote and which words it changed.  The lists are the ones
    `apply_in_order` built, so a stage's `inputs` is the previous stage's
    `outputs` (the first stage's, the words given)."""

    label: str
    inputs: list[PhoneSeq]
    outputs: list[PhoneSeq]
    changed: list[bool]


def apply_cascade(cascade: Cascade, words: list[PhoneSeq], inv: SegmentInventory) -> list[Stage]:
    """Run every law in order; one stage per law, the last one's outputs the
    final lexicon."""
    if not cascade.laws:
        raise RuleError("cannot execute an empty cascade")
    stages = []
    for label, (outputs, changed) in zip(cascade.labels, apply_in_order(cascade.laws, words, inv)):
        stages.append(Stage(label, words, outputs, changed))
        words = outputs
    return stages
