"""Parsing and printing of sound laws.

Three surfaces, which `read_laws` tells apart:

* classical notation ``F > T / L _ R`` with ``∅``/``0`` for empty focus or
  target, ``{a,b}`` alternative sets, ``#`` word boundaries and the class
  letters C/V;
* the constrained ``BasicAction(...)`` constructor syntax that model
  transcripts contain.  This is interpreted, never executed: only a closed
  set of predicate and mapping shapes is accepted and anything else becomes
  a diagnostic;
* a structured JSON document for storage.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass

from .phonology import (
    BOUNDARY,
    SEPARATOR,
    FEATURE_CLASS_NAMES,
    PhonologyError,
    SegmentInventory,
    nfc,
    read_text,
)
from .rules import (
    Mapping,
    Predicate,
    RuleError,
    SoundLaw,
    delete,
    feature_class,
    in_set,
    insert_after,
    insert_before,
    interleave,
    is_token,
    replace_with,
)


class DslError(Exception):
    pass


class RuleSyntaxError(DslError):
    def __init__(self, message: str, span: tuple[int, int] | None = None):
        self.span = span
        super().__init__(message if span is None else f"{message} (at {span[0]}..{span[1]})")


class EmptyRule(DslError):
    pass


class UnresolvableSymbol(DslError):
    pass


class AmbiguousInsertionAnchor(DslError):
    pass


class SchemaError(DslError):
    pass


# ---------------------------------------------------------------------------
# classical notation


@dataclass(frozen=True)
class Atom:
    """One context element: raw phone text, a {…} set, '#', or C/V."""

    kind: str  # text | set | boundary | class
    value: tuple[str, ...] = ()


CLASS_LETTERS = {"C": "is_consonant", "V": "is_vowel"}
EMPTY_MARKS = ("∅", "0")


@dataclass(frozen=True)
class ClassicalRule:
    focus: str
    target: str
    left: tuple[Atom, ...] = ()
    right: tuple[Atom, ...] = ()

    def __post_init__(self):
        if not self.focus and not self.target:
            raise EmptyRule("focus and target cannot both be empty")


def _lex_context(text: str, side: str) -> tuple[Atom, ...]:
    atoms: list[Atom] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == BOUNDARY:
            atoms.append(Atom("boundary"))
            i += 1
        elif ch == "{":
            end = text.find("}", i)
            if end < 0:
                raise RuleSyntaxError("unclosed set brace", (i, n))
            members = tuple(m.strip() for m in text[i + 1 : end].split(",") if m.strip())
            if not members:
                raise RuleSyntaxError("empty set", (i, end + 1))
            atoms.append(Atom("set", members))
            i = end + 1
        elif ch in CLASS_LETTERS:
            atoms.append(Atom("class", (CLASS_LETTERS[ch],)))
            i += 1
        elif ch.isupper() and ch.isalpha():
            raise RuleSyntaxError(f"unknown class letter {ch!r}", (i, i + 1))
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "{#" and text[j] not in CLASS_LETTERS:
                j += 1
            atoms.append(Atom("text", (nfc(text[i:j]),)))
            i = j
    for k, atom in enumerate(atoms):
        if atom.kind == "boundary":
            edge = 0 if side == "left" else len(atoms) - 1
            if k != edge:
                raise RuleSyntaxError("'#' allowed only at the outer edge of a context")
    return tuple(atoms)


def parse_classical(text: str) -> ClassicalRule:
    """Parse ``F > T [/ L _ R]``; whitespace-insensitive."""
    text = nfc(text).strip()
    if not text:
        raise RuleSyntaxError("empty rule text", (0, 0))
    if ">" not in text:
        raise RuleSyntaxError("missing '>'", (0, len(text)))
    focus_part, _, rest = text.partition(">")
    if "/" in rest:
        target_part, _, ctx = rest.partition("/")
        if "_" not in ctx:
            raise RuleSyntaxError("context clause is missing '_'", (0, len(text)))
        left_part, _, right_part = ctx.partition("_")
        if "_" in right_part:
            raise RuleSyntaxError("more than one '_' in context", (0, len(text)))
        left = _lex_context(left_part, "left")
        right = _lex_context(right_part, "right")
    else:
        target_part = rest
        left = right = ()
    focus = focus_part.strip()
    target = target_part.strip()
    focus = "" if focus in EMPTY_MARKS else nfc(focus)
    target = "" if target in EMPTY_MARKS else nfc(target)
    for bad in (BOUNDARY, "{", "}", "_"):
        if bad in focus or bad in target:
            raise RuleSyntaxError(f"{bad!r} not allowed in focus/target")
    return ClassicalRule(focus, target, left, right)


def _print_atom(atom: Atom) -> str:
    if atom.kind == "boundary":
        return BOUNDARY
    if atom.kind == "set":
        return "{" + ",".join(atom.value) + "}"
    if atom.kind == "class":
        letters = {v: k for k, v in CLASS_LETTERS.items()}
        return letters[atom.value[0]]
    return atom.value[0]


def print_classical(rule: ClassicalRule) -> str:
    focus = rule.focus or "∅"
    target = rule.target or "∅"
    head = f"{focus} > {target}"
    if not rule.left and not rule.right:
        return head
    left = " ".join(_print_atom(a) for a in rule.left)
    right = " ".join(_print_atom(a) for a in rule.right)
    return f"{head} / {left} _ {right}".replace("  ", " ").rstrip()


def _atom_slots(atom: Atom, inv: SegmentInventory) -> list[Predicate]:
    if atom.kind == "boundary":
        return [is_token(BOUNDARY)]
    if atom.kind == "class":
        return [feature_class(atom.value[0])]
    if atom.kind == "set":
        for member in atom.value:
            if member not in inv:
                raise UnresolvableSymbol(member)
        return [in_set(atom.value)]
    return [is_token(p) for p in _segment_literal(atom.value[0], inv)]


def lower_classical(rule: ClassicalRule, inv: SegmentInventory) -> SoundLaw:
    """Compile classical notation to a predicate-window law."""
    left_slots: list[Predicate] = []
    for atom in rule.left:
        left_slots.extend(_atom_slots(atom, inv))
    right_slots: list[Predicate] = []
    for atom in rule.right:
        right_slots.extend(_atom_slots(atom, inv))

    if rule.focus:
        focus_phones = _segment_literal(rule.focus, inv)
        if len(focus_phones) != 1:
            raise UnresolvableSymbol(f"focus must be a single phone: {rule.focus!r}")
        focus_slot: Predicate | None = is_token(focus_phones[0])
    else:
        focus_slot = None

    target_phones = _segment_literal(rule.target, inv) if rule.target else ()

    slots = left_slots + ([focus_slot] if focus_slot else []) + right_slots
    if not slots:
        # insertion with no context at all: nothing to anchor the new phones to
        raise AmbiguousInsertionAnchor(print_classical(rule))

    window = interleave(slots)  # slot k at window position 2k
    if focus_slot is not None:
        mapping = replace_with(target_phones) if target_phones else delete()
        return SoundLaw(window, (2 * len(left_slots),), (mapping,))

    # insertion: anchor on the nearest phone-capable slot
    anchor_left = len(left_slots) - 1
    if anchor_left >= 0 and slots[anchor_left].can_match_phone():
        return SoundLaw(window, (2 * anchor_left,), (insert_after(target_phones),))
    if left_slots and right_slots and slots[len(left_slots)].can_match_phone():
        return SoundLaw(window, (2 * len(left_slots),), (insert_before(target_phones),))
    if not left_slots and right_slots and slots[0].can_match_phone():
        return SoundLaw(window, (0,), (insert_before(target_phones),))
    raise AmbiguousInsertionAnchor(print_classical(rule))


# ---------------------------------------------------------------------------
# structured law document


def law_to_doc(law: SoundLaw) -> dict:
    return {
        "predicates": [{"kind": p.kind, "args": list(p.args)} for p in law.predicates],
        "change_pos": list(law.change_pos),
        "mappings": [{"kind": m.kind, "phones": list(m.phones)} for m in law.mappings],
    }


def json_object(doc) -> dict:
    """doc, which must be a JSON object: a whole JSONL line or JSON file."""
    if type(doc) is not dict:
        raise SchemaError(f"not a JSON object: {type(doc).__name__}")
    return doc


def json_field(doc: dict, key: str, kind: type | tuple[type, ...]):
    """doc[key], which must be of the JSON type `kind` (list, dict, str, int,
    float or bool) or of one of a tuple of them, so no string is read as its
    characters nor a float or `true` as an integer."""
    value = doc[key]
    kinds = kind if type(kind) is tuple else (kind,)
    if type(value) not in kinds:  # bool is a subclass of int, and no JSON integer
        names = " or ".join(k.__name__ for k in kinds)
        raise SchemaError(f"{key} must be {names}, not {type(value).__name__}")
    return value


def json_items(doc: dict, key: str, kind: type) -> tuple:
    """doc[key], a JSON array of items of the JSON type `kind` (str or int),
    as a tuple."""
    items = json_field(doc, key, list)
    if any(type(item) is not kind for item in items):
        names = "strings" if kind is str else "integers"
        raise SchemaError(f"{key} must hold {names}, not {items!r}")
    return tuple(items)


def doc_to_law(doc) -> SoundLaw:
    if not isinstance(doc, dict):
        raise SchemaError("law document must be an object")
    missing = {"predicates", "change_pos", "mappings"} - set(doc)
    if missing:
        raise SchemaError(f"law document missing {sorted(missing)}")
    try:
        preds = tuple(Predicate(p["kind"], json_items(p, "args", str)) for p in doc["predicates"])
        maps = tuple(Mapping(m["kind"], json_items(m, "phones", str)) for m in doc["mappings"])
        return SoundLaw(preds, json_items(doc, "change_pos", int), maps)
    except (KeyError, TypeError, RuleError) as exc:
        raise SchemaError(str(exc)) from exc


def print_law(law: SoundLaw) -> str:
    return json.dumps(law_to_doc(law), ensure_ascii=False, separators=(", ", ": "))


def read_law(text: str) -> SoundLaw:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(exc)) from exc
    return doc_to_law(doc)


def _read_each(numbered, read, label: str) -> list[SoundLaw]:
    """read(item) for every (number, item), with "<label> <number>: " in
    front of a SchemaError."""
    laws = []
    for number, item in numbered:
        try:
            laws.append(read(item))
        except SchemaError as exc:
            raise SchemaError(f"{label} {number}: {exc}") from exc
    return laws


def read_laws(
    text: str, inv: SegmentInventory
) -> tuple[list[tuple[str, SoundLaw]], tuple[Diagnostic, ...]]:
    """Every (label, law) a law text holds, in order, and the diagnostics of
    its constructors that do not parse.

    JSON is one law document, an array of them, or one per line as
    `print_law` writes them; text naming BasicAction outside '#' lines is
    constructor text; the rest is classical rules, one per line, each
    labelled by the last '#' comment line before it, else by itself.  JSON
    and constructor laws get the label "".  Malformed JSON raises
    SchemaError, and a classical rule that does not parse or lower its
    DslError; on a JSON line or a classical one, with "line N: " in front,
    and on an element of a JSON array with "law N: " (counted from 1).
    """
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        try:
            docs = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if exc.msg != "Extra data":  # malformed, not one document per line
                raise SchemaError(str(exc)) from exc
            lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
            laws = _read_each(lines, read_law, "line")
        else:
            if isinstance(docs, list):
                laws = _read_each(enumerate(docs, start=1), doc_to_law, "law")
            else:
                laws = [doc_to_law(docs)]
        return [("", law) for law in laws], ()
    lines = [line.strip() for line in text.splitlines()]
    if any("BasicAction" in line for line in lines if not line.startswith("#")):
        parsed = parse_program_text(text, inv)
        return [("", law) for law in parsed.laws], parsed.diagnostics
    labelled = []
    comment = ""
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            comment = line.lstrip("#").strip()
        elif line:
            try:
                law = lower_classical(parse_classical(line), inv)
            except DslError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc
            labelled.append((comment or line, law))
            comment = ""
    return labelled, ()


# ---------------------------------------------------------------------------
# constructor surface syntax


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: tuple[int, int] | None = None


@dataclass(frozen=True)
class ParsedAction:
    law: SoundLaw
    span: tuple[int, int]


@dataclass(frozen=True)
class ParsedProgramSet:
    entries: tuple[ParsedAction, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def laws(self) -> tuple[SoundLaw, ...]:
        return tuple(e.law for e in self.entries)


_QUOTE_FIXES = str.maketrans({"‘": "'", "’": "'", "“": '"', "”": '"'})
_CHANGE_POS_TYPO = re.compile(r"(?<![\w.])change_pos\s*\[")
_CONSTRUCTOR = re.compile(r"(?<![\w.])BasicAction\s*\(")
_REDEFINITION = re.compile(r"(?<![\w.])class\s+BasicAction\b")


def _normalize_source(text: str) -> str:
    return _CHANGE_POS_TYPO.sub("change_pos=[", text.translate(_QUOTE_FIXES))


def _balanced_span(text: str, open_idx: int) -> int | None:
    """Index one past the closing paren matching text[open_idx], or None."""
    depth = 0
    quote: str | None = None
    i = open_idx
    n = len(text)
    while i < n:
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return None


def find_constructor_spans(text: str) -> tuple[list[tuple[int, int]], list[Diagnostic]]:
    """Locate every BasicAction(...) call; skips class-definition headers."""
    spans: list[tuple[int, int]] = []
    diags: list[Diagnostic] = []
    for m in _REDEFINITION.finditer(text):
        diags.append(
            Diagnostic("redefinition", "BasicAction redefinition ignored", (m.start(), m.end()))
        )
    for m in _CONSTRUCTOR.finditer(text):
        head = text[: m.start()].rstrip()
        if head.endswith("class"):
            continue
        open_idx = text.index("(", m.start())
        end = _balanced_span(text, open_idx)
        if end is None:
            diags.append(
                Diagnostic("unclosed", "unbalanced parentheses in constructor", (m.start(), len(text)))
            )
            continue
        spans.append((m.start(), end))
    return spans, diags


def _lambda_var(node: ast.Lambda) -> str | None:
    args = node.args
    if (
        len(args.args) == 1
        and not args.posonlyargs
        and not args.kwonlyargs
        and not args.vararg
        and not args.kwarg
    ):
        return args.args[0].arg
    return None


def _const_str(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _parse_predicate(node, inv: SegmentInventory) -> Predicate:
    if isinstance(node, ast.Name):
        if node.id in FEATURE_CLASS_NAMES:
            return feature_class(node.id)
        raise DslError(f"unknown feature class {node.id!r}")
    if not isinstance(node, ast.Lambda):
        raise DslError("predicate must be a lambda or a feature-class name")
    var = _lambda_var(node)
    if var is None:
        raise DslError("predicate lambda must take a single argument")
    body = node.body
    if isinstance(body, ast.Compare) and len(body.ops) == 1:
        if not (isinstance(body.left, ast.Name) and body.left.id == var):
            raise DslError("predicate must compare its own argument")
        op = body.ops[0]
        comp = body.comparators[0]
        if isinstance(op, (ast.Eq, ast.NotEq)):
            sym = _const_str(comp)
            if sym is None:
                raise DslError("comparison must be against a string literal")
            sym = nfc(sym)
            _check_symbol(sym, inv)
            return Predicate("is" if isinstance(op, ast.Eq) else "is-not", (sym,))
        if isinstance(op, (ast.In, ast.NotIn)):
            if not isinstance(comp, (ast.List, ast.Tuple, ast.Set)):
                raise DslError("membership test must use a literal list")
            syms = []
            for elt in comp.elts:
                sym = _const_str(elt)
                if sym is None:
                    raise DslError("set members must be string literals")
                sym = nfc(sym)
                _check_symbol(sym, inv)
                syms.append(sym)
            if not syms:
                raise DslError("empty membership set")
            kind = "in" if isinstance(op, ast.In) else "not-in"
            return Predicate(kind, tuple(syms))
        raise DslError("unsupported comparison operator")
    if isinstance(body, ast.Call):
        if (
            isinstance(body.func, ast.Name)
            and body.func.id in FEATURE_CLASS_NAMES
            and len(body.args) == 1
            and isinstance(body.args[0], ast.Name)
            and body.args[0].id == var
            and not body.keywords
        ):
            return feature_class(body.func.id)
        raise DslError("only feature-class calls are allowed in predicates")
    raise DslError("unsupported predicate shape")


def _check_symbol(sym: str, inv: SegmentInventory) -> None:
    if sym in (BOUNDARY, SEPARATOR) or sym in inv:
        return
    raise UnresolvableSymbol(sym)


def _segment_literal(text: str, inv: SegmentInventory) -> tuple[str, ...]:
    try:
        phones = inv.segment(text)
    except PhonologyError as exc:
        raise UnresolvableSymbol(text) from exc
    if not phones:
        raise DslError("empty phone literal")
    return phones


def _parse_mapping(node, inv: SegmentInventory) -> Mapping:
    if not isinstance(node, ast.Lambda):
        raise DslError("mapping must be a lambda")
    var = _lambda_var(node)
    if var is None:
        raise DslError("mapping lambda must take a single argument")
    body = node.body
    lit = _const_str(body)
    if lit is not None:
        if lit.strip() == "!":
            return delete()
        return replace_with(_segment_literal(nfc(lit), inv))
    if isinstance(body, ast.BinOp) and isinstance(body.op, ast.Add):
        left_lit = _const_str(body.left)
        right_lit = _const_str(body.right)
        if left_lit is not None and isinstance(body.right, ast.Name) and body.right.id == var:
            return insert_before(_segment_literal(nfc(left_lit), inv))
        if right_lit is not None and isinstance(body.left, ast.Name) and body.left.id == var:
            return insert_after(_segment_literal(nfc(right_lit), inv))
    raise DslError("unsupported mapping shape")


def _parse_constructor(expr: str, span: tuple[int, int], inv: SegmentInventory):
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise DslError(f"constructor is not parseable: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # null bytes, hostile nesting
        raise DslError(f"constructor is not parseable: {exc}") from exc
    call = tree.body
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "BasicAction"):
        raise DslError("not a BasicAction call")
    if call.args:
        raise DslError("constructor arguments must be keywords")
    kw = {k.arg: k.value for k in call.keywords}
    missing = {"predicates", "change_pos", "mapping_fn"} - set(kw)
    if missing:
        raise DslError(f"constructor missing {sorted(missing)}")
    extra = set(kw) - {"predicates", "change_pos", "mapping_fn"}
    if extra:
        raise DslError(f"unexpected keywords {sorted(extra)}")
    if not isinstance(kw["predicates"], (ast.List, ast.Tuple)):
        raise DslError("predicates must be a literal list")
    if not kw["predicates"].elts:
        raise DslError("empty predicate list")
    preds = tuple(_parse_predicate(n, inv) for n in kw["predicates"].elts)
    if not isinstance(kw["change_pos"], (ast.List, ast.Tuple)):
        raise DslError("change_pos must be a literal list")
    pos = []
    for n in kw["change_pos"].elts:
        if not (isinstance(n, ast.Constant) and isinstance(n.value, int)):
            raise DslError("change positions must be integer literals")
        pos.append(n.value)
    if not isinstance(kw["mapping_fn"], (ast.List, ast.Tuple)):
        raise DslError("mapping_fn must be a literal list")
    maps = tuple(_parse_mapping(n, inv) for n in kw["mapping_fn"].elts)
    if len(pos) != len(maps):
        raise DslError("change_pos and mapping_fn must have equal length")
    pos, maps = _rebase_separator_edits(preds, pos, maps)
    return SoundLaw(preds, tuple(pos), maps)


def _rebase_separator_edits(preds, pos, maps):
    """Move insertions aimed at a separator slot onto the adjacent phone.

    Transcripts sometimes append to the '@' between two phones; inserting
    after the separator is the same edit as inserting after the phone on
    its left (and before-separator mirrors to the phone on its right).
    """
    new_pos = []
    new_maps = []
    for p, m in zip(pos, maps):
        if 0 <= p < len(preds) and not preds[p].can_match_phone():
            if m.kind == "insert-after" and p > 0 and preds[p - 1].can_match_phone():
                p = p - 1
            elif m.kind == "insert-before" and p + 1 < len(preds) and preds[p + 1].can_match_phone():
                p = p + 1
            else:
                raise DslError(f"change position {p} edits a separator/boundary slot")
        if p in new_pos:
            raise DslError(f"two edits target window position {p}")
        new_pos.append(p)
        new_maps.append(m)
    order = sorted(range(len(new_pos)), key=lambda i: new_pos[i])
    return [new_pos[i] for i in order], tuple(new_maps[i] for i in order)


def parse_program_text(code: str, inv: SegmentInventory) -> ParsedProgramSet:
    """Interpret every constructor expression in a block of model output.

    Never raises: malformed constructs turn into diagnostics and valid laws
    are still collected.
    """
    source = _normalize_source(code)
    spans, diags = find_constructor_spans(source)
    entries: list[ParsedAction] = []
    diagnostics = list(diags)
    for span in spans:
        expr = source[span[0] : span[1]]
        try:
            law = _parse_constructor(expr, span, inv)
        except (DslError, RuleError, PhonologyError) as exc:
            code_name = {
                UnresolvableSymbol: "unresolvable-symbol",
            }.get(type(exc), "bad-constructor")
            diagnostics.append(Diagnostic(code_name, str(exc), span))
            continue
        entries.append(ParsedAction(law, span))
    return ParsedProgramSet(tuple(entries), tuple(diagnostics))


_FENCE = re.compile(r"^\s*```", re.MULTILINE)


def extract_code_blocks(transcript: str) -> tuple[list[str], list[Diagnostic]]:
    """Contents of fenced code regions, in order.

    No fences: the whole transcript is one block.  Unclosed final fence:
    best effort (text after it) plus a diagnostic.
    """
    marks = list(_FENCE.finditer(transcript))
    if not marks:
        return [transcript], []
    blocks: list[str] = []
    diags: list[Diagnostic] = []
    for opener, closer in zip(marks[0::2], marks[1::2]):
        start = transcript.index("\n", opener.start()) + 1 if "\n" in transcript[opener.start() : closer.start()] else opener.end()
        blocks.append(transcript[start : closer.start()])
    if len(marks) % 2 == 1:
        last = marks[-1]
        rest = transcript[last.end() :]
        if "\n" in rest:
            rest = rest[rest.index("\n") + 1 :]
        blocks.append(rest)
        diags.append(Diagnostic("unclosed-fence", "transcript ends inside a code fence", (last.start(), len(transcript))))
    return blocks, diags


# ---------------------------------------------------------------------------
# rule database (classical rules with source annotations)


@dataclass(frozen=True)
class RuleEntry:
    """A classical rule and its lowered law, or (law None) why it does not lower."""

    rule: ClassicalRule
    family: str = ""
    language_pair: str = ""
    lower_error: str = ""
    law: SoundLaw | None = None


@dataclass(frozen=True)
class RuleDB:
    entries: tuple[RuleEntry, ...] = ()

    def usable(self) -> tuple[RuleEntry, ...]:
        return tuple(e for e in self.entries if not e.lower_error)

    def __len__(self) -> int:
        return len(self.entries)


def load_rule_db(text: str, inv: SegmentInventory) -> RuleDB:
    """One classical rule per line, optional ``\\t family \\t pair`` columns.

    Rules that do not lower against the inventory stay in the DB but carry
    the failure message.
    """
    entries: list[RuleEntry] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = [c.strip() for c in line.split("\t")]
        rule_text = cols[0]
        family = cols[1] if len(cols) > 1 else ""
        pair = cols[2] if len(cols) > 2 else ""
        try:
            rule = parse_classical(rule_text)
        except DslError as exc:
            raise RuleSyntaxError(f"line {lineno}: {exc}") from exc
        try:
            law, err = lower_classical(rule, inv), ""
        except DslError as exc:
            law, err = None, str(exc)
        entries.append(RuleEntry(rule, family, pair, err, law))
    return RuleDB(tuple(entries))


def load_rule_db_file(path, inv: SegmentInventory) -> RuleDB:
    return load_rule_db(read_text(path), inv)
