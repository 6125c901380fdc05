"""Independent oracles that tests check the kernels against."""


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
