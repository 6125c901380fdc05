"""Segmentation of words into phones, token sequences, and feature classes.

Words are handled as tuples of phone symbols (plain strings, possibly
multi-character like "tʰ" or "ts").  A symbol holds no whitespace, which
separates phones in a written word, and no reserved token character.
Rules never see words directly: they operate on a token sequence where '#'
marks both word edges and '@' sits between every pair of adjacent tokens,
e.g. "am" becomes ('#', '@', 'a', '@', 'm', '@', '#').
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

BOUNDARY = "#"
SEPARATOR = "@"
DELETION_MARK = "!"

RESERVED = frozenset((BOUNDARY, SEPARATOR, DELETION_MARK))

PhoneSeq = tuple[str, ...]
TokenSeq = tuple[str, ...]


class PhonologyError(Exception):
    pass


class UnsegmentableInput(PhonologyError):
    def __init__(self, word: str, position: int):
        self.word = word
        self.position = position
        super().__init__(f"no inventory segment matches {word!r} at position {position}")


class NonCanonicalTokenSeq(PhonologyError):
    pass


class UnknownFeatureClass(PhonologyError):
    pass


class DuplicateSegment(PhonologyError):
    pass


class MalformedRow(PhonologyError):
    pass


class UndecodableText(PhonologyError):
    pass


class UnreadableInput(PhonologyError):
    pass


# Feature classes evaluated against the inventory's feature table.  A phone
# belongs to a class when it carries every listed feature value.
CLASS_DEFINITIONS: dict[str, dict[str, str]] = {
    "is_consonant": {"syl": "-"},
    "is_vowel": {"syl": "+"},
    "is_velar": {"syl": "-", "hi": "+", "back": "+"},
    "is_liquid_consonant": {"cons": "+", "son": "+", "nas": "-"},
    "is_cont_not_son": {"cont": "+", "son": "-"},
    "is_son": {"son": "+"},
}

# Token-level classes that do not consult the feature table.
TOKEN_CLASSES = ("is_nothing", "is_anything", "is_not_boundary")

FEATURE_CLASS_NAMES = tuple(CLASS_DEFINITIONS) + TOKEN_CLASSES


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class SegmentInventory:
    """An ordered set of phone symbols plus their feature vectors."""

    segments: PhoneSeq
    features: dict[str, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for seg in self.segments:
            if not seg:
                raise MalformedRow("empty segment symbol")
            if seg != nfc(seg):
                raise MalformedRow(f"segment {seg!r} is not NFC-normalized")
            if any(ch in RESERVED for ch in seg):
                raise MalformedRow(f"segment {seg!r} uses a reserved character")
            if any(ch.isspace() for ch in seg):  # whitespace separates phones
                raise MalformedRow(f"segment {seg!r} holds whitespace")
            if seg in seen:
                raise DuplicateSegment(seg)
            seen.add(seg)
        object.__setattr__(self, "_segment_set", seen)
        object.__setattr__(self, "_memos", {})

    def __getstate__(self):
        # derived lookups are rebuilt lazily in each process, never shipped
        return {**self.__dict__, "_memos": {}}

    def memo(self, name: str, build):
        """The value `build(self)` stored under `name`, built on first use.

        Holds lookups derived from this inventory: the compiled scan of
        `segment`, and `rules`' feature-class members and law compiler (its
        codebook and compiled patterns).  They are left out of pickles, so
        each worker process builds its own instead of sharing a parent's.
        """
        try:
            return self._memos[name]
        except KeyError:
            value = self._memos[name] = build(self)
            return value

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._segment_set

    def __len__(self) -> int:
        return len(self.segments)

    def segment(self, word: str) -> PhoneSeq:
        """Split a word into phones by greedy longest match, left to right.

        Whitespace acts as an explicit phone delimiter and is discarded, so
        both raw words ("tsar") and pre-tokenized words ("t a") load.  One
        compiled scan, a pattern shaped as the trie of the segments, finds
        the phones.  When they do not cover every non-whitespace character,
        `UnsegmentableInput` names the first position no segment fits.
        """
        word = nfc(word)
        scan = self.memo("phonology.scan", _segment_scan)
        phones = scan.findall(word)
        # findall skips what no segment fits, and a whitespace run reads as ''
        if "".join(phones) == "".join(word.split()):
            return tuple(filter(None, phones))
        pos = 0
        while m := scan.match(word, pos):  # no alternative matches ''
            pos = m.end()
        raise UnsegmentableInput(word, pos)

    def in_class(self, name: str, token: str) -> bool:
        """Test a token (phone, '#', or '@') against a feature class."""
        if name == "is_nothing":
            return token == SEPARATOR
        if name == "is_anything":
            return True
        if name == "is_not_boundary":
            return token != BOUNDARY
        spec = CLASS_DEFINITIONS.get(name)
        if spec is None:
            raise UnknownFeatureClass(name)
        if token == BOUNDARY or token == SEPARATOR:
            return False
        row = self.features.get(token)
        if row is None:
            return False
        return all(row.get(feat, "0") == val for feat, val in spec.items())


def _segment_scan(inv: SegmentInventory) -> re.Pattern:
    r"""`(trie)|\s+`, the trie being the segments' pattern built by
    `_trie_pattern`: each phone is the longest segment that fits, at a cost
    per position that grows with the log of the trie's fan-out, not with the
    inventory's size.  A whitespace run is its own alternative, which no
    segment starts, so nothing backtracks over it."""
    trie: dict = {}
    for seg in inv.segments:
        node = trie
        for ch in seg:
            node = node.setdefault(ch, {})
        node[""] = {}  # a segment ends here
    # the empty inventory's trie would match '' everywhere
    return re.compile(rf"({_trie_pattern(trie) or '(?!)'})|\s+")


def _trie_pattern(node: dict) -> str:
    """The alternation of what may follow a trie node.  Next characters
    whose continuations are the same pattern share one alternative, so no two
    alternatives start with the same character: at most one applies, and a
    continuation that is optional (`?`) is tried before the node ends."""
    by_tail: dict[str, list[str]] = {}
    for ch, child in node.items():
        if ch:
            tail = _trie_pattern(child)
            if tail:
                tail = f"(?:{tail})" + ("?" if "" in child else "")
            by_tail.setdefault(tail, []).append(re.escape(ch))
    return _dispatch(
        [
            (chars, (chars[0] if len(chars) == 1 else f"[{''.join(chars)}]") + tail)
            for tail, chars in by_tail.items()
        ]
    )


def _dispatch(alternatives: list[tuple[list[str], str]]) -> str:
    """`|` of the (first characters, pattern) alternatives.  `re` tests
    alternatives one by one, so past a few of them the list is halved behind a
    lookahead on the first half's characters: a position then tests about
    log2 of them, where a table with hundreds of letters would test each."""
    if len(alternatives) <= 8:
        return "|".join(pattern for _, pattern in alternatives)
    half = len(alternatives) // 2
    first = "".join(ch for chars, _ in alternatives[:half] for ch in chars)
    return f"(?=[{first}])(?:{_dispatch(alternatives[:half])})|{_dispatch(alternatives[half:])}"


def preprocess(phones: PhoneSeq) -> TokenSeq:
    """Interleave phones with separators and wrap in boundary markers."""
    tokens = [SEPARATOR] * (2 * len(phones) + 3)
    tokens[0] = tokens[-1] = BOUNDARY
    tokens[2:-2:2] = phones
    return tuple(tokens)


def is_canonical(tokens: TokenSeq) -> bool:
    n = len(tokens)
    if n < 3 or n % 2 == 0:
        return False
    if tokens[0] != BOUNDARY or tokens[-1] != BOUNDARY:
        return False
    return tokens[1::2].count(SEPARATOR) == n // 2 and RESERVED.isdisjoint(tokens[2:-2:2])


def render(tokens: TokenSeq) -> PhoneSeq:
    """Inverse of preprocess: strip boundaries and separators."""
    if not is_canonical(tokens):
        raise NonCanonicalTokenSeq(tokens)
    return tuple(tokens[2:-2:2])


def load_feature_table(text: str) -> SegmentInventory:
    """Parse a delimiter-separated feature table.

    First column is the segment symbol, remaining columns are feature names
    with values in {+, -, 0}.  Tab-separated; comma-separated accepted when
    no tabs are present.
    """
    numbered = enumerate(text.splitlines(), start=1)  # rows keep their line of the text
    lines = [(n, ln) for n, ln in numbered if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise MalformedRow("empty feature table")
    (_, head), *rows = lines
    delim = "\t" if "\t" in head else ","
    header = [col.strip() for col in head.split(delim)]
    feature_names = header[1:]
    if not feature_names:
        raise MalformedRow("feature table header names no features")
    segments: list[str] = []
    features: dict[str, dict[str, str]] = {}
    for lineno, ln in rows:
        cols = [col.strip() for col in ln.split(delim)]
        if len(cols) != len(header):
            raise MalformedRow(f"line {lineno}: expected {len(header)} columns, got {len(cols)}")
        symbol = nfc(cols[0])
        values = {}
        for name, val in zip(feature_names, cols[1:]):
            val = val.replace("−", "-")
            if val not in ("+", "-", "0"):
                raise MalformedRow(f"line {lineno}: bad feature value {val!r}")
            values[name] = val
        if symbol in features:
            raise DuplicateSegment(symbol)
        segments.append(symbol)
        features[symbol] = values
    return SegmentInventory(tuple(segments), features)


def open_input(path, mode: str = "rb", **kwargs):
    """`open(path, mode)` of an input file; one that cannot be opened
    (missing, a directory, unreadable) is an UnreadableInput naming it."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise UnreadableInput(f"{path}: {exc.strerror or exc}") from exc


def read_text(path) -> str:
    """The text of a UTF-8 file (see `decode_text`)."""
    with open_input(path) as fh:
        return decode_text(fh.read(), path)


def decode_text(data: bytes, name) -> str:
    """UTF-8 bytes as text, newlines read as in text mode ('\r\n' and '\r'
    become '\n').  A byte that is no UTF-8 is an UndecodableText naming
    `name`, the file or stream read, and its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise UndecodableText(f"{name} line {lineno}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_feature_table_file(path) -> SegmentInventory:
    return load_feature_table(read_text(path))


def load_lexicon(path, inventory: SegmentInventory) -> list[PhoneSeq]:
    """Read a one-word-per-line lexicon, skipping '#'-prefixed comments."""
    words: list[PhoneSeq] = []
    for line in read_text(path).split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(inventory.segment(line))
    return words


_DEFAULT_INVENTORY: SegmentInventory | None = None


def default_inventory() -> SegmentInventory:
    """The bundled feature table (loaded once per process)."""
    global _DEFAULT_INVENTORY
    if _DEFAULT_INVENTORY is None:
        from importlib.resources import files

        text = (files("soundlaw") / "data" / "feature_table.tsv").read_text("utf-8")
        _DEFAULT_INVENTORY = load_feature_table(text)
    return _DEFAULT_INVENTORY
