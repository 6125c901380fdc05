"""Independent oracles that tests check the kernels and the law engine against.

The distance oracles share no code and no equality table with either
kernel backend.

A law's slots are read here token by token, through
`SegmentInventory.in_class`: none of these functions shares the reading of
a slot (`rules._slot_tokens`), the encoding, the matcher or the splice with
the package.
"""

from itertools import combinations, product

from soundlaw.phonology import preprocess


def levenshtein_bruteforce(a, b) -> int:
    """Edit distance by exhaustive enumeration of monotone alignments.

    Every unit-cost edit script corresponds to pairing k positions of `a`
    with k positions of `b` in order: unpaired symbols cost 1 (insert or
    delete), unequal paired symbols cost 1 (substitute).
    """
    m, n = len(a), len(b)
    best = m + n
    for k in range(1, min(m, n) + 1):
        base = (m - k) + (n - k)
        for ii in combinations(range(m), k):
            sub_a = [a[i] for i in ii]
            for jj in combinations(range(n), k):
                cost = base + sum(x != b[j] for x, j in zip(sub_a, jj))
                if cost < best:
                    best = cost
    return best


def lcs_len_bruteforce(a, b) -> int:
    """LCS length by enumerating every subsequence of the first argument."""
    m = len(a)
    if m > 20:
        raise ValueError("bruteforce LCS limited to sequences of length <= 20")
    best = 0
    for mask in range(1 << m):
        cnt = bin(mask).count("1")
        if cnt <= best:
            continue
        it = iter(b)
        if all(a[i] in it for i in range(m) if mask >> i & 1):
            best = cnt
    return best


def grid_distances(alphabet, max_len):
    """(words, edit, indel): every word of up to `max_len` symbols of
    `alphabet`, shortest first, and the all-pairs edit distance and indel
    distance (insertions and deletions only) between them, as integer
    matrices indexed like `words`.

    Both are shortest paths over the graph of one-edit neighbours: edit
    distance over its substitute, insert and delete edges, indel distance
    over its insert and delete edges alone.  The graph is exact on such a
    grid: an optimal script can delete, then substitute, then insert, so no
    word along it is longer than the longer operand or leaves the alphabet.
    The LCS length of a and b is (len(a) + len(b) - indel) / 2.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    words = [w for length in range(max_len + 1) for w in product(alphabet, repeat=length)]
    index = {w: i for i, w in enumerate(words)}
    deletes, substitutes = [], []
    for i, w in enumerate(words):
        for k, sym in enumerate(w):
            deletes.append((i, index[w[:k] + w[k + 1:]]))
            substitutes.extend((i, index[w[:k] + (other,) + w[k + 1:]]) for other in alphabet if other != sym)

    def distances(edges):
        rows, cols = zip(*edges)
        graph = coo_matrix(([1] * len(edges), (rows, cols)), shape=(len(words), len(words))).tocsr()
        return shortest_path(graph, directed=False, unweighted=True).astype(int)

    return words, distances(deletes + substitutes), distances(deletes)


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


def draw_context_free(rng, pool, context, inv, lo, hi, count, redraws):
    """`count` words of `rng.randint(lo, hi)` phones `rng.choice(pool)`, each
    drawn again while the phone context `context` has a site in its phones,
    `redraws` times at most, the last draw kept untested: the context-free
    phase of `kernels.draw_inputs`, with the context read phone by phone."""
    def word():
        return tuple(rng.choice(pool) for _ in range(rng.randint(lo, hi)))

    words = []
    for _ in range(count):
        drawn = word()
        for _ in range(redraws):
            if not window_sites(context, drawn, inv):
                break
            drawn = word()
        words.append(drawn)
    return words


def sample_inputs(rng, context, inv, lo, hi, n, redraws):
    """The `n` input words of an rp-ri task placed against the phone context
    `context`, shuffled: the draw of `kernels.draw_inputs` and of
    `datagen.sample_inputs_for_law`, made with `rng.randint`, `rng.choice`
    and `rng.shuffle`, each slot's members read phone by phone and the
    context-free words drawn by `draw_context_free`.  A slot with no member raises
    IndexError where `rng.choice` first draws from it."""
    ctx = [[s for s in inv.segments if slot_matches(p, s, inv)] for p in context]
    segs = [inv.segments]
    w = len(ctx)
    tenth = n // 10
    bearing = -(-2 * n // 3)

    def length_at_least(minimum):
        return max(minimum, rng.randint(lo, hi))

    def draw(pools):
        return [rng.choice(pool) for pool in pools]

    words = []
    for _ in range(tenth):  # begins with the context
        words.append(tuple(draw(ctx + segs * (length_at_least(w) - w))))
    for _ in range(tenth):  # ends with it
        words.append(tuple(draw(segs * (length_at_least(w) - w) + ctx)))
    for _ in range(tenth):  # one interior occurrence
        total = length_at_least(w + 2)
        head = rng.randint(1, total - w - 1)
        p = draw(ctx + segs * (total - w))
        words.append(tuple(p[w:w + head] + p[:w] + p[w + head:]))
    for _ in range(tenth):  # two interior occurrences
        total = length_at_least(2 * w + 3)
        slack = total - 2 * w - 3
        a = rng.randint(0, slack)
        b = rng.randint(0, slack - a)
        p = draw(ctx * 2 + segs * (total - 2 * w))
        i, j = 2 * w + 1 + a, 2 * w + 2 + a + b
        words.append(tuple(p[2 * w:i] + p[:w] + p[i:j] + p[w:2 * w] + p[j:]))
    while len(words) < bearing:  # anywhere
        total = length_at_least(w)
        at = rng.randint(0, total - w)
        p = draw(ctx + segs * (total - w))
        words.append(tuple(p[w:w + at] + p[:w] + p[w + at:]))
    words += draw_context_free(rng, inv.segments, context, inv, lo, hi, n - len(words), redraws)
    rng.shuffle(words)
    return words
