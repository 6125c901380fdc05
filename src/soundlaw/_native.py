"""Pure-Python string-metric kernels.

Same contract as the compiled module (soundlaw._speedups); soundlaw.kernels
runs this one only when the compiled module cannot be built on first
import or loaded from its cache.  The *_bruteforce functions are exhaustive
reference algorithms kept around as independent oracles for the dynamic
programming paths — do not "optimize" them into the DP recurrences.
`count_scan_occurrences` is the one-word scan that `scan_counts` sums; it
lives only here, as the oracle the tests check both backends against.
"""

from __future__ import annotations

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


def count_scan_occurrences(candidate, word) -> int:
    """Disjoint subsequence occurrences found in one left-to-right scan."""
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


def scan_counts(candidates, words) -> list[int]:
    """For each candidate, its disjoint left-to-right scan count summed over `words`."""
    words = [tuple(word) for word in words]
    return [sum(count_scan_occurrences(cand, word) for word in words) for cand in map(tuple, candidates)]
