"""Pure-Python kernels: the string metrics, scan counting, the law engine's
matcher and splice, and rp-ri's draws.

Their contracts are stated once, in soundlaw.kernels, and the compiled
module (soundlaw._speedups) keeps the same ones; soundlaw.kernels runs this
one only when the compiled module cannot be built on first import or
loaded from its cache.  `find_sites` compiles each window to a regex, its
first slot's class followed by a lookahead on the rest, and caches it, so
this fallback keeps the speed of `re`'s search.  `window_sites`,
`reference_apply` and `count_scan_occurrences` in `tests/oracles.py` are the
independent oracles of both backends' matcher, splice and scan counts.  The *_bruteforce
functions are exhaustive reference algorithms kept around as independent
oracles for the dynamic programming paths — do not "optimize" them into the
DP recurrences.
"""

from __future__ import annotations

import operator
import re
import sys
from itertools import combinations


def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two symbol sequences."""
    m, n = len(a), len(b)
    if m == 0:
        return n
    if n == 0:
        return m
    prev = list(range(n + 1))
    cur = [0] * (n + 1)
    for i in range(1, m + 1):
        cur[0] = i
        ai = a[i - 1]
        for j in range(1, n + 1):
            d = prev[j - 1] + (ai != b[j - 1])
            up = prev[j] + 1
            if up < d:
                d = up
            left = cur[j - 1] + 1
            if left < d:
                d = left
            cur[j] = d
        prev, cur = cur, prev
    return prev[n]


def lcs_pair(a, b) -> tuple:
    """A longest common subsequence of a and b.

    Ties resolve to the LCS whose match positions in `a` are leftmost:
    equal symbols are always taken, and when skipping we prefer to skip in
    `b`, keeping earlier `a` symbols available.
    """
    m, n = len(a), len(b)
    # L[i][j] = LCS length of a[i:], b[j:]
    L = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        row = L[i]
        below = L[i + 1]
        ai = a[i]
        for j in range(n - 1, -1, -1):
            if ai == b[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    out = []
    i = j = 0
    while i < m and j < n:
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif L[i][j + 1] >= L[i + 1][j]:
            j += 1
        else:
            i += 1
    return tuple(out)


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


def scan_counts(candidates, words) -> list[int]:
    """For each candidate, its disjoint left-to-right scan count summed over `words`."""
    words = [tuple(word) for word in words]
    counts = []
    for cand in map(tuple, candidates):
        count = 0
        for word in words if cand else ():  # an empty candidate counts 0
            k = 0  # phones of the candidate matched so far
            for phone in word:
                if phone == cand[k]:
                    k += 1
                    if k == len(cand):
                        count += 1
                        k = 0
        counts.append(count)
    return counts


# the kind codes of a law's edits: the order of rules.MAP_KINDS
DELETE, REPLACE, INSERT_BEFORE, INSERT_AFTER = range(4)


def _index_below(value, limit: int, what: str) -> int:
    value = operator.index(value)
    if not 0 <= value < limit:
        raise ValueError(f"{what} out of range")
    return value


def splice_sites(words, starts, edits) -> list:
    """(index, output) of every word that a law's edits at the given site starts change.

    `starts` are the ascending offsets of the law's sites in the words'
    encodings joined by newlines, word i's line holding
    2 * len(words[i]) + 3 characters, and `edits` its (pos, kind code,
    phones) edits.  A word counts as changed when its output differs from
    `tuple(word)`.  The sites of each word give `_splice`'s leftmost-wins
    edit map.
    """
    words = words if isinstance(words, (list, tuple)) else list(words)
    edits = [
        (_index_below(pos, sys.maxsize, "edit position"), _index_below(kind, 4, "edit kind code"), tuple(phones))
        for pos, kind, phones in edits
    ]
    out = []
    index = -1  # the word being read: its line is [first, end), a newline at end
    first = prev = end = -1
    word: tuple = ()
    sites: list[int] = []
    for start in starts:
        start = _index_below(start, sys.maxsize, "site start")
        if start <= prev:
            raise ValueError("site starts must ascend")
        prev = start
        if start > end:  # the first site of a later word
            if sites:
                _emit(out, index, word, sites, edits)
                sites = []
            while start > end:
                index += 1
                if index >= len(words):
                    raise ValueError("a site lies past the last word")
                first = end + 1
                end = first + 2 * len(words[index]) + 3
            if start == end:
                raise ValueError("a site starts on a newline")
            word = tuple(words[index])
        if any(pos >= end - start for pos, _, _ in edits):
            raise ValueError("an edit falls outside its word")
        sites.append(start - first)
    if sites:
        _emit(out, index, word, sites, edits)
    return out


def _emit(out: list, index: int, word: tuple, sites: list[int], edits) -> None:
    spliced = _splice(word, sites, edits)
    if spliced != word:
        out.append((index, spliced))


def _splice(word: tuple, sites: list[int], edits) -> tuple:
    """The word after a law's edits at the given sites of its token sequence.

    Leftmost site wins.  Token 2+2k is word[k]; an edit on a '#' or '@' slot
    contributes only its phones.
    """
    at: dict[int, tuple] = {}
    for start in sites:
        for pos, kind, phones in edits:
            at.setdefault(start + pos, (kind, phones))
    n = len(word)
    out: list = []
    done = 0  # phones of the word already copied or edited
    for idx in sorted(at):
        kind, phones = at[idx]
        if idx & 1 or not 0 < idx <= 2 * n:  # '@' before word[idx // 2], or '#'
            k = min(idx >> 1, n)
            out += word[done:k]
            done = k
            out += phones  # empty for a delete
            continue
        k = (idx >> 1) - 1
        out += word[done:k]
        done = k + 1
        if kind == REPLACE:
            out += phones
        elif kind == INSERT_BEFORE:
            out += phones
            out.append(word[k])
        elif kind == INSERT_AFTER:
            out.append(word[k])
            out += phones
        # a delete adds nothing
    out += word[done:]
    return tuple(out)


# finditer of each window seen, by its slots; starts over past this many
_WINDOWS: dict = {}
_MAX_WINDOWS = 4096


def find_sites(text, slots) -> list[int]:
    """The ascending start of every site of a window in `text`.

    Slot j of the window is a (negated, chars) pair: it matches the
    characters of `chars` or (negated) every character but them and the
    newline, and a site starts where slot j matches the character j further
    on, for every slot.  The window compiles once to its first slot's class
    followed by a lookahead on the rest: each match consumes one character,
    so overlapping sites are all found, while `re` searches for the first
    slot's characters.
    """
    if not isinstance(text, str):
        raise TypeError("text must be a str")
    return list(map(re.Match.start, _finditer(slots)(text)))


def _finditer(slots):
    """The window's compiled finditer, from the cache when it was seen."""
    slots = tuple(slots)
    # checked before the cache, whose keys compare 1 and 1.0 equal to True
    if not all(type(negated) is bool and isinstance(chars, str) for negated, chars in slots):
        raise TypeError("a slot is a (bool, str) pair")
    try:
        return _WINDOWS[slots]
    except (KeyError, TypeError):  # a new window, or slots no dict can key
        return _compile_window(slots)


def _compile_window(slots):
    classes = []
    for negated, chars in slots:
        chars = re.escape(chars)
        classes.append(f"[^\n{chars}]" if negated else f"[{chars}]" if chars else "(?!)")
    if not classes:
        raise ValueError("a window needs at least one slot")
    first, *rest = classes
    finditer = re.compile(f"{first}(?={''.join(rest)})").finditer
    if len(_WINDOWS) >= _MAX_WINDOWS:
        _WINDOWS.clear()
    try:
        _WINDOWS[slots] = finditer
    except TypeError:
        pass
    return finditer


def _below(getrandbits, n: int) -> int:
    """below(n): `getrandbits(n.bit_length())` until it is in range(n), as
    CPython's `Random._randbelow_with_getrandbits` draws."""
    k = n.bit_length()
    r = getrandbits(k)
    while not 0 <= r < n:
        r = getrandbits(k)
    return r


def draw(getrandbits, pools) -> list:
    """`pool[below(len(pool))]` of each pool in turn.  An empty pool raises
    IndexError once the pools before it are drawn."""
    out = []
    for pool in tuple(pools):
        if not len(pool):
            raise IndexError("cannot draw from an empty pool")
        out.append(pool[_below(getrandbits, len(pool))])
    return out


def draw_clear(getrandbits, pool, codes, slots, lo, hi, count, redraws) -> list:
    """`count` words over `pool`, each of `lo + below(hi - lo + 1)` phones
    `pool[below(len(pool))]`; a word whose encoding the window of (negated,
    chars) slots matches, `codes[i]` standing for `pool[i]`, is drawn again,
    and after `redraws` redraws the last draw is kept untested."""
    if not isinstance(codes, str):
        raise TypeError("codes must be a str")
    lo, hi, count, redraws = (
        _index_below(value, sys.maxsize, what)
        for value, what in ((lo, "lo"), (hi, "hi"), (count, "count"), (redraws, "redraws"))
    )
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    pool = tuple(pool)
    if len(pool) != len(codes):
        raise ValueError("codes must hold one code per pool item")
    if not pool:
        raise IndexError("cannot draw from an empty pool")
    finditer = _finditer(slots)
    out = []
    for _ in range(count):
        for tries in range(redraws + 1):
            picks = [_below(getrandbits, len(pool)) for _ in range(lo + _below(getrandbits, hi - lo + 1))]
            if tries == redraws:
                break
            if next(finditer("#@" + "".join(codes[r] + "@" for r in picks) + "#"), None) is None:
                break
        out.append(tuple(pool[r] for r in picks))
    return out
