"""Independent oracles that tests check the kernels and the law engine against.

A law's slots are read here token by token, through
`SegmentInventory.in_class`: none of these functions shares the reading of
a slot (`rules._slot_tokens`), the encoding, the matcher or the splice with
the package.
"""

from soundlaw.phonology import preprocess


def count_scan_occurrences(candidate, word) -> int:
    """Disjoint subsequence occurrences of `candidate` found in one
    left-to-right scan of `word`: the one-word scan that `scan_counts` sums."""
    if not candidate:
        return 0
    count = 0
    k = 0
    for phone in word:
        if phone == candidate[k]:
            k += 1
            if k == len(candidate):
                count += 1
                k = 0
    return count


def slot_matches(pred, token, inv) -> bool:
    """The per-token reading of one window slot."""
    if pred.kind == "is":
        return token == pred.args[0]
    if pred.kind == "is-not":
        return token != pred.args[0]
    if pred.kind == "in":
        return token in pred.args
    if pred.kind == "not-in":
        return token not in pred.args
    if pred.kind == "class":
        return inv.in_class(pred.args[0], token)
    return not inv.in_class(pred.args[0], token)


def window_sites(preds, seq, inv) -> list[int]:
    """Every start i where each slot k matches seq[i + k]: on a token
    sequence, a law's sites; on a word's phones, where a phone context
    occurs."""
    width = len(preds)
    return [
        i
        for i in range(len(seq) - width + 1)
        if all(slot_matches(p, seq[i + k], inv) for k, p in enumerate(preds))
    ]


def reference_apply(law, word, inv):
    """Independent two-stage semantics: per-index owner = leftmost site."""
    tokens = preprocess(word)
    owner = {}
    for start in window_sites(law.predicates, tokens, inv):
        for pos, mapping in zip(law.change_pos, law.mappings):
            idx = start + pos
            if idx not in owner or start < owner[idx][0]:
                owner.setdefault(idx, (start, mapping))
    pieces = []
    for idx, tok in enumerate(tokens):
        if idx in owner:
            mapping = owner[idx][1]
            if mapping.kind == "delete":
                continue
            if mapping.kind == "replace":
                pieces.extend(mapping.phones)
            elif mapping.kind == "insert-before":
                pieces.extend(mapping.phones)
                pieces.append(tok)
            else:
                pieces.append(tok)
                pieces.extend(mapping.phones)
        else:
            pieces.append(tok)
    return tuple(p for p in pieces if p not in ("#", "@"))


def draw_clear(rng, pool, window, inv, lo, hi, count, redraws):
    """`count` words of `rng.randint(lo, hi)` phones `rng.choice(pool)`, each
    drawn again while `window` has a site in its token sequence, `redraws`
    times at most, the last draw kept untested: the draw of
    `kernels.draw_clear`, with the window read token by token."""
    def word():
        return tuple(rng.choice(pool) for _ in range(rng.randint(lo, hi)))

    words = []
    for _ in range(count):
        drawn = word()
        for _ in range(redraws):
            if not window_sites(window, preprocess(drawn), inv):
                break
            drawn = word()
        words.append(drawn)
    return words
