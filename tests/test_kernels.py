import importlib.machinery
import inspect
import itertools
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest
from oracles import count_scan_occurrences

import soundlaw
from soundlaw import _native, kernels

SRC = Path(soundlaw.__file__).resolve().parent.parent
CC_ARGS = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
PYTHON_H = Path(sysconfig.get_paths()["include"], "Python.h")


@pytest.fixture(scope="session")
def c_compiler(tmp_path_factory):
    """Skips the test unless $CC builds a trivial extension the way `kernels`
    builds `_speedups.c`: a $CC that exists but cannot compile, such as
    /bin/false, is no compiler either."""
    source = tmp_path_factory.mktemp("cc") / "trivial.c"
    source.write_text("#include <Python.h>\nint trivial(void) { return 0; }\n", encoding="utf-8")
    try:
        kernels._compile(str(source), str(source.with_suffix(importlib.machinery.EXTENSION_SUFFIXES[0])))
    except RuntimeError as exc:
        pytest.skip(str(exc))


def words_up_to(alphabet, max_len):
    out = []
    for length in range(max_len + 1):
        out.extend(itertools.product(alphabet, repeat=length))
    return out


def test_levenshtein_basics():
    assert kernels.levenshtein((), ()) == 0
    assert kernels.levenshtein((), ("a", "b", "c")) == 3
    assert kernels.levenshtein(("k", "a"), ("k", "a")) == 0
    assert kernels.levenshtein(("k", "u", "u"), ("k", "i")) == 2
    # multigraph phones cost one edit
    assert kernels.levenshtein(("tʰ", "u", "m"), ("t", "u", "m")) == 1


def test_levenshtein_metric_axioms():
    rng = random.Random(3)
    alpha = ["a", "b", "c", "d"]
    words = [tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 7))) for _ in range(60)]
    for a in words[:20]:
        for b in words[:20]:
            d = kernels.levenshtein(a, b)
            assert d == kernels.levenshtein(b, a)
            assert (d == 0) == (a == b)
    for a, b, c in zip(words[:15], words[15:30], words[30:45]):
        assert kernels.levenshtein(a, c) <= kernels.levenshtein(a, b) + kernels.levenshtein(b, c)


def test_dp_matches_bruteforce_small_grid():
    words = words_up_to("ab", 4)
    for a in words:
        for b in words:
            assert kernels.levenshtein(a, b) == kernels.levenshtein_bruteforce(a, b)
            assert len(kernels.lcs_pair(a, b)) == kernels.lcs_len_bruteforce(a, b)


def test_lcs_properties():
    rng = random.Random(9)
    alpha = ["a", "b", "c"]
    for _ in range(400):
        a = tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 7)))
        b = tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 7)))
        got = kernels.lcs_pair(a, b)
        # it is a common subsequence...
        for seq in (a, b):
            it = iter(seq)
            assert all(sym in it for sym in got)
        # ...of maximal length
        assert len(got) == kernels.lcs_len_bruteforce(a, b)
    assert kernels.lcs_pair(("x", "y"), ("x", "y")) == ("x", "y")
    assert len(kernels.lcs_pair(("a", "b"), ("b", "a"))) == 1


def test_backends_agree():
    if kernels.BACKEND != "c":
        pytest.skip(f"compiled backend not built ({kernels.BACKEND_REASON}); nothing to compare")
    rng = random.Random(17)
    alpha = ["a", "b", "c", "tʰ"]
    for _ in range(500):
        a = tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 8)))
        b = tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 8)))
        assert kernels.levenshtein(a, b) == _native.levenshtein(a, b)
        assert kernels.lcs_pair(a, b) == _native.lcs_pair(a, b)
        assert kernels.levenshtein_bruteforce(a, b) == _native.levenshtein_bruteforce(a, b)
        assert kernels.lcs_len_bruteforce(a, b) == _native.lcs_len_bruteforce(a, b)
        # character strings, as evaluation passes them under --char-level
        sa, sb = "".join(a), "".join(b)
        assert kernels.levenshtein(sa, sb) == _native.levenshtein(sa, sb)
        assert kernels.lcs_pair(sa, sb) == _native.lcs_pair(sa, sb)
        assert kernels.levenshtein_bruteforce(sa, sb) == _native.levenshtein_bruteforce(sa, sb)
        assert kernels.lcs_len_bruteforce(sa, sb) == _native.lcs_len_bruteforce(sa, sb)
    for _ in range(300):
        words = [tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 10))) for _ in range(rng.randrange(0, 8))]
        # "z" is in no word; repeats and the empty candidate come up by chance
        cands = [tuple(rng.choice(alpha + ["z"]) for _ in range(rng.randrange(0, 4))) for _ in range(rng.randrange(0, 8))]
        cands += cands[:2]
        assert kernels.scan_counts(cands, words) == _native.scan_counts(cands, words)
        str_cands, str_words = ["".join(c) for c in cands], ["".join(w) for w in words]
        assert kernels.scan_counts(str_cands, str_words) == _native.scan_counts(str_cands, str_words)
    # many partial matches: "a a b" restarts only after a full occurrence
    partial = [("a",) * 9 + ("b",), ("a", "b") * 5, ("b", "a") * 5, ("a", "a", "c", "b") * 3]
    edge_cases = [
        ([("a", "a", "b"), ("a", "b", "a", "b"), ("b", "b")], partial),
        ([(), ("a",), (), ("a",)], partial),
        ([("z",), ("a", "z"), ("z", "a")], partial),
        ([("a",), ()], []),
        ([], partial),
        ([], []),
    ]
    for cands, words in edge_cases:
        assert kernels.scan_counts(cands, words) == _native.scan_counts(cands, words)


def distinct(word):
    """Equal str phones built by join, so that no identity check can match them."""
    out = tuple("".join(["", phone]) for phone in word)
    assert all(copy is not phone for copy, phone in zip(out, word))
    return out


def equality_classes(*seqs):
    """Each sequence with every symbol replaced by the index of the first
    symbol equal to it, found by a linear `==` scan (no hashing)."""
    seen = []

    def code(sym):
        for k, other in enumerate(seen):
            if other == sym:
                return k
        seen.append(sym)
        return len(seen) - 1

    return [tuple(map(code, seq)) for seq in seqs]


def assert_matches_equality_classes(backend, a, b, bruteforce=True):
    """`backend`'s kernels on (a, b) equal `_native`'s on their equality classes."""
    got_lcs = backend.lcs_pair(a, b)
    if isinstance(a, tuple):  # the LCS holds symbols of `a`, whatever `b` holds equal to them
        assert all(any(sym is x for x in a) for sym in got_lcs)
    ca, cb, c_lcs = equality_classes(a, b, got_lcs)
    assert c_lcs == _native.lcs_pair(ca, cb)
    assert backend.levenshtein(a, b) == _native.levenshtein(ca, cb)
    if bruteforce:
        assert backend.levenshtein_bruteforce(a, b) == _native.levenshtein(ca, cb)
        assert backend.lcs_len_bruteforce(a, b) == len(c_lcs)


BACKENDS = pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])


@BACKENDS
@pytest.mark.parametrize("a, b", [
    (("tʰ", "a", "ʃ", "k", "a"), distinct(("a", "tʰ", "k", "ʃ"))),
    (distinct(("p", "a", "t")), ("p", "a", "t")),
    (("ʃ", "tʰ", "ə", "ŋʷ", "ʃ"), ("tʰ", "ʃ", "ʃ", "ə")),
    ((1, 2.0, True, "1", 0), (1.0, True, 2, False, 1)),
    (([1], ["a"], [1, 2], []), (["a"], [1], [], [1.0], ("a",))),
    ("tʰaʃa", "aʃtʰ"),
    ((), ("a",)),
], ids=["distinct-str-objects", "distinct-latin-1", "non-latin-1-multichar", "cross-type",
        "list-symbols", "str-operands", "empty"])
def test_pairwise_kernels_compare_symbols_by_equality(backend, a, b):
    assert_matches_equality_classes(backend, a, b)
    assert_matches_equality_classes(backend, b, a)


@BACKENDS
def test_pairwise_kernels_past_the_stack_buffer(backend):
    """Pairs whose DP rows and equality table outgrow the compiled kernels'
    stack buffer (2048 bytes) take the heap path."""
    rng = random.Random(29)
    alpha = [*distinct(("tʰ", "a")), "tʰ", "a", "ʃ", 1, 1.0, [2]]

    def word(length):
        return tuple(rng.choice(alpha) for _ in range(length))

    for _ in range(3):
        assert_matches_equality_classes(backend, word(60), word(60), bruteforce=False)
    # the brute-force oracles stay cheap with one short operand
    assert_matches_equality_classes(backend, word(1), word(2100))
    a, b = word(3), word(700)
    assert backend.lcs_len_bruteforce(a, b) == len(_native.lcs_pair(*equality_classes(a, b)))


def test_compiled_levenshtein_keeps_two_rows():
    """levenshtein compares in place: a 3000 x 3000 pair needs two DP rows
    (48 kB), not an m x n equality table (9 MB)."""
    if kernels.BACKEND != "c":
        pytest.skip(f"compiled backend not built ({kernels.BACKEND_REASON}); nothing to check")
    a, b = distinct(("tʰ", "a") * 1500), ("a", "tʰ") * 1500
    tracemalloc.start()
    try:
        d = kernels.levenshtein(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 2
    assert peak < 500_000


class RaisingEq:
    def __eq__(self, other):
        raise RuntimeError("no comparison")

    __hash__ = object.__hash__


@BACKENDS
@pytest.mark.parametrize("name, m, n", [
    ("levenshtein", 3, 4), ("lcs_pair", 3, 4), ("levenshtein_bruteforce", 3, 4), ("lcs_len_bruteforce", 3, 4),
    ("levenshtein", 60, 60), ("lcs_pair", 60, 60), ("levenshtein_bruteforce", 1, 2100),
    ("lcs_len_bruteforce", 1, 2100),
])
def test_an_eq_that_raises_propagates(backend, name, m, n):
    a = ("a",) * (m - 1) + (RaisingEq(),)
    with pytest.raises(RuntimeError, match="no comparison"):
        getattr(backend, name)(a, ("a", "b") * (n // 2))


def test_compiled_kernels_keep_their_operands_while_comparing():
    """An __eq__ that empties the list being compared cannot pull its items
    from under the compiled kernels: they compare a snapshot."""
    if kernels.BACKEND != "c":
        pytest.skip(f"compiled backend not built ({kernels.BACKEND_REASON}); nothing to check")

    class Emptying:
        def __eq__(self, other):
            victim.clear()
            return False

    for name in ("levenshtein", "lcs_pair", "levenshtein_bruteforce", "lcs_len_bruteforce"):
        victim = [Emptying(), "a", "b", "c"]
        snapshot = tuple(victim)
        assert getattr(kernels, name)(victim, ("a", "b", "c")) == getattr(_native, name)(snapshot, ("a", "b", "c"))


@pytest.mark.usefixtures("c_compiler")
def test_compiled_kernels_build_without_warnings(tmp_path):
    cmd = [*CC_ARGS, *shlex.split(sysconfig.get_config_var("CCSHARED") or ""), "-O2", "-Wall", "-Werror",
           f"-I{PYTHON_H.parent}", "-c", str(SRC / "soundlaw" / "_speedups.c"), "-o", str(tmp_path / "_speedups.o")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_scan_counts_sum_the_one_word_oracle():
    rng = random.Random(23)
    alpha = ["p", "a", "tʰ"]
    for _ in range(200):
        words = [tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 9))) for _ in range(rng.randrange(0, 6))]
        cands = [tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 4))) for _ in range(rng.randrange(0, 6))]
        expect = [sum(count_scan_occurrences(c, w) for w in words) for c in cands]
        assert _native.scan_counts(cands, words) == expect
        assert kernels.scan_counts(cands, words) == expect
    assert kernels.scan_counts([("a", "b"), ("a",), ()], [("a", "b", "a", "b"), ("a", "a", "b", "b")]) == [3, 4, 0]


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
@pytest.mark.parametrize("cands, words", [
    (5, [("a",)]),  # candidate list
    ([5], [("a",)]),  # one candidate
    ([("a",)], 5),  # word list
    ([("a",)], [("a",), 5]),  # one word
    ([], [5]),  # a bad word is rejected even with no candidate to weight
])
def test_scan_counts_rejects_non_sequences(backend, cands, words):
    with pytest.raises(TypeError):
        backend.scan_counts(cands, words)


def test_backends_expose_the_same_functions():
    if kernels.BACKEND != "c":
        pytest.skip(f"compiled backend not built ({kernels.BACKEND_REASON}); nothing to compare")
    compiled = {name for name in dir(kernels._impl) if not name.startswith("_")}
    native = {
        name
        for name, obj in vars(_native).items()
        if inspect.isfunction(obj) and obj.__module__ == _native.__name__ and not name.startswith("_")
    }
    assert compiled == native
    assert all(getattr(kernels, name) is getattr(kernels._impl, name) for name in compiled)


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
def test_draw_takes_the_choice_stream(backend):
    """draw(getrandbits, pools) draws what rng.choice of each pool in turn
    draws, and leaves rng in the same state, for pool sizes on both sides
    of powers of two and for tuples, lists, strings and ranges alike."""
    sizes = [1, 2, 3, 7, 8, 9, 46, 63, 64, 65, 1000, 2 ** 40 + 3]
    for seed in range(4):
        pools = [range(n) for n in sizes] + [("a",), ["x", "y", "z"], "abcde", tuple(range(46))]
        random.Random(seed).shuffle(pools)
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert backend.draw(ours.getrandbits, pools) == [p[theirs._randbelow(len(p))] for p in pools]
        assert ours.getstate() == theirs.getstate()
        assert backend.draw(ours.getrandbits, ()) == []
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
def test_draw_stops_at_an_empty_pool_after_the_pools_before_it(backend):
    for empty_at in range(4):
        pools = [("a", "b", "c"), range(10), ("z",), range(100)]
        pools.insert(empty_at, ())
        ours, theirs = random.Random(3), random.Random(3)
        with pytest.raises(IndexError):
            backend.draw(ours.getrandbits, pools)
        for pool in pools[:empty_at]:
            theirs._randbelow(len(pool))
        assert ours.getstate() == theirs.getstate(), empty_at


class Exhausted(Exception):
    pass


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
def test_draw_propagates_an_error_of_getrandbits(backend):
    calls = []

    def getrandbits(k):
        calls.append(k)
        if len(calls) == 3:
            raise Exhausted
        return 7  # past the bound of range(5), so each pool draws again

    with pytest.raises(Exhausted):
        backend.draw(getrandbits, [range(5)] * 4)
    assert calls == [3, 3, 3]


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
@pytest.mark.parametrize("getrandbits, pools", [
    (random.Random(1).getrandbits, 5),  # pools that are no sequence
    (random.Random(1).getrandbits, [5]),  # a pool with no length
    (lambda k: "0", [range(3)]),  # bits that are no integer
    (None, [range(3)]),  # a getrandbits that cannot be called
])
def test_draw_rejects_malformed_input(backend, getrandbits, pools):
    with pytest.raises(TypeError):
        backend.draw(getrandbits, pools)


CLEAR_ARGS = (["a", "b", "c"], "\x80\x81\x82", [(False, "@"), (False, "\x80"), (False, "@")], 1, 4, 3, 5)


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
@pytest.mark.parametrize("pool, codes, slots, lo, hi, count, redraws, error", [
    ([], "", CLEAR_ARGS[2], 1, 4, 3, 5, IndexError),  # an empty pool
    (["a", "b", "c"], "\x80\x81", CLEAR_ARGS[2], 1, 4, 3, 5, ValueError),  # a code missing
    (["a", "b"], "\x80\x81\x82", CLEAR_ARGS[2], 1, 4, 3, 5, ValueError),  # a code too many
    (*CLEAR_ARGS[:3], 5, 4, 3, 5, ValueError),  # lo > hi
    (*CLEAR_ARGS[:3], -1, 4, 3, 5, ValueError),  # a negative length
    (*CLEAR_ARGS[:3], 1, 4, -1, 5, ValueError),  # a negative count
    (*CLEAR_ARGS[:3], 1, 4, 3, -1, ValueError),  # a negative cap
    (*CLEAR_ARGS[:2], [], 1, 4, 3, 5, ValueError),  # a window of no slot
    (CLEAR_ARGS[0], 5, *CLEAR_ARGS[2:], TypeError),  # codes that are no str
    (CLEAR_ARGS[0], ["\x80", "\x81", "\x82"], *CLEAR_ARGS[2:], TypeError),
    (5, *CLEAR_ARGS[1:], TypeError),  # a pool that is no sequence
    (*CLEAR_ARGS[:2], [(1, "a")], *CLEAR_ARGS[3:], TypeError),  # a slot that is no (bool, str)
    (*CLEAR_ARGS[:3], 1.0, 4, 3, 5, TypeError),  # a length that is no integer
    (*CLEAR_ARGS[:5], "3", 5, TypeError),
], ids=["empty-pool", "code-missing", "code-too-many", "lo-above-hi", "negative-lo", "negative-count",
        "negative-redraws", "no-slot", "codes-an-int", "codes-a-list", "pool-an-int", "slot-not-bool-str",
        "lo-a-float", "count-a-str"])
def test_draw_clear_rejects_malformed_input(backend, pool, codes, slots, lo, hi, count, redraws, error):
    """Malformed input raises before any bits are drawn."""
    calls = []
    with pytest.raises(error):
        backend.draw_clear(calls.append, pool, codes, slots, lo, hi, count, redraws)
    assert calls == []


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
@pytest.mark.parametrize("lo, hi, fail_at, bits", [
    (3, 6, 3, [3, 2, 2]),  # while drawing the first word's phones
    (1, 1, 5, [1, 2, 1, 2, 1]),  # at a redraw's length: each word is an 'a', which the window holds
    (70, 70, 60, [1] + [2] * 59),  # inside a word past the compiled kernel's stack buffer
], ids=["phones", "redraw-length", "long-word"])
def test_draw_clear_propagates_an_error_of_getrandbits(backend, lo, hi, fail_at, bits):
    """An error of `getrandbits` stops the draw where it is raised."""
    calls = []

    def getrandbits(k):
        calls.append(k)
        if len(calls) == fail_at:
            raise Exhausted
        return 0

    with pytest.raises(Exhausted):
        backend.draw_clear(getrandbits, *CLEAR_ARGS[:3], lo, hi, 3, 5)
    assert calls == bits


def failing_after(calls):
    """A getrandbits that gives 0 bits `calls` times, then raises."""
    counter = itertools.count()

    def getrandbits(k):
        if next(counter) >= calls:
            raise Exhausted
        return 0
    return getrandbits


def leak_probe_calls():
    """(kernel name, arguments) calls of every compiled kernel, on good input
    and on malformed input, its sequences given as lists so that each call
    copies them into objects of its own."""
    rng = random.Random(5)
    window = [[False, "@"], [False, "\x80"], [False, "@"]]
    pool, codes = ["a", "b", "c"], "\x80\x81\x82"
    good = {
        "levenshtein": [(["a", "b", "c"], ["a", "c", "d"])],
        "lcs_pair": [(["a", "b", "c"], ["a", "c", "d"])],
        "levenshtein_bruteforce": [(["a", "b"], ["b", "a", "b"])],
        "lcs_len_bruteforce": [(["a", "b"], ["b", "a", "b"])],
        "scan_counts": [([["a", "b"], []], [["a", "b", "a", "b"], ["b"]])],
        "splice_sites": [([["a", "b"], ["a"]], [2, 9], [[0, 1, ["e"]], [2, 3, ["f", "g"]]])],
        "find_sites": [("#@\x80@\x81@#\n#@\x80@#", window)],
        "draw": [(rng.getrandbits, [pool, range(7), "xyz"])],
        # short words, and words past the kernel's stack buffer; none of 20
        # phones, as CPython 3.11 keeps every freed tuple of 20 items on a
        # free list that no new tuple is taken from
        "draw_clear": [(rng.getrandbits, pool, codes, window, 1, 12, 3, 5),
                       (rng.getrandbits, pool, codes, window, 65, 70, 3, 5)],
    }
    raising = [RaisingEq(), "b"]
    bad = {
        "levenshtein": [(5, ["a"]), (raising, ["a", "b"]), (["a"],)],
        "lcs_pair": [(5, ["a"]), (raising, ["a", "b"])],
        "levenshtein_bruteforce": [(5, ["a"]), (raising, ["a", "b"])],
        "lcs_len_bruteforce": [(["a"] * 21, ["a"]), (raising, ["a", "b"])],
        "scan_counts": [([5], [["a"]]), ([["a"]], [["a"], 5]), ([["a"]],)],
        "splice_sites": [
            ([["a"]], [2], [[0, 1]]),  # an edit of two fields
            ([["a"]], [2], [[0, 9, ["e"]]]),  # an unknown kind code
            ([["a"]], [2], [[0, 1, 5]]),  # phones that are no sequence
            ([["a", "b"]], [2, 2], [[0, 1, ["e"]]]),  # starts that do not ascend
            ([["a"], ["b"]], [2, 99], [[0, 1, ["e"]]]),  # a site past the last word
            ([["a"], ["b"]], [2, 6], [[0, 1, ["e"]]]),  # a site on a newline
            ([["a"]], [2], [[40, 1, ["e"]]]),  # an edit outside its word
            ([["a"]], ["2"], [[0, 1, ["e"]]]),  # a start that is no integer
        ],
        "find_sites": [("x", []), ("x", [[1, "a"]]), (5, window), ("x", [[False, "a", "b"]])],
        "draw": [(rng.getrandbits, [pool, []]), (failing_after(1), [pool, pool]), (None, [pool]),
                 (lambda k: "0", [pool])],
        "draw_clear": [
            (rng.getrandbits, [], "", window, 1, 3, 2, 5),  # an empty pool
            (rng.getrandbits, pool, codes[:2], window, 1, 3, 2, 5),  # a code missing
            (rng.getrandbits, pool, 5, window, 1, 3, 2, 5),  # codes that are no str
            (rng.getrandbits, pool, codes, window, 4, 3, 2, 5),  # lo > hi
            (rng.getrandbits, pool, codes, window, 1, 3, -1, 5),  # a negative count
            (rng.getrandbits, pool, codes, [], 1, 3, 2, 5),  # a window of no slot
            (rng.getrandbits, pool, codes, [[1, "a"]], 1, 3, 2, 5),  # a slot that is no (bool, str)
            (failing_after(100), pool, codes, window, 66, 70, 3, 5),  # stops inside a long word
            (lambda k: [k], pool, codes, window, 1, 3, 2, 5),  # bits that are no integer
            (rng.getrandbits, pool, codes, window, 1, 3),  # too few arguments
        ],
    }
    for name in good:
        for args in good[name] * 4 + bad[name]:
            yield name, args


def test_compiled_kernels_leak_nothing_on_good_or_malformed_input():
    """Every compiled kernel, called thousands of times on good and on
    malformed input: the memory tracemalloc traces does not grow with the
    number of calls, so no call keeps a reference it took."""
    if kernels.BACKEND != "c":
        pytest.skip(f"compiled backend not built ({kernels.BACKEND_REASON}); nothing to check")
    calls = list(leak_probe_calls())
    assert {name for name, _ in calls} == {name for name in dir(kernels._impl) if not name.startswith("_")}

    def call_all(rounds):
        for _ in range(rounds):
            for name, args in calls:
                try:
                    getattr(kernels, name)(*args)
                except (TypeError, ValueError, IndexError, RuntimeError, Exhausted):
                    pass

    call_all(20)  # freelists and caches filled first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call_all(2000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_384, f"{grown} bytes held after {2000 * len(calls)} calls"


def test_bruteforce_lcs_guard():
    with pytest.raises(ValueError):
        kernels.lcs_len_bruteforce(tuple("a" * 21), ("a",))


def import_kernels(cache, **env):
    """A fresh interpreter that imports soundlaw.kernels with `cache` as
    XDG_CACHE_HOME and prints BACKEND and BACKEND_REASON."""
    environ = dict(os.environ, XDG_CACHE_HOME=str(cache), **env)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    probe = "from soundlaw import kernels; print(kernels.BACKEND); print(kernels.BACKEND_REASON)"
    return subprocess.Popen([sys.executable, "-c", probe], env=environ, cwd=cache,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def backend_of(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out.splitlines()


def test_missing_compiler_falls_back_to_python(tmp_path):
    missing = str(tmp_path / "no-such-cc")
    backend, reason = backend_of(import_kernels(tmp_path, CC=missing))
    assert backend == "python"
    assert missing in reason


@pytest.mark.usefixtures("c_compiler")
def test_concurrent_first_imports_share_one_build(tmp_path):
    procs = [import_kernels(tmp_path) for _ in range(2)]
    results = [backend_of(proc) for proc in procs]
    assert [backend for backend, _ in results] == ["c", "c"], results
    built = os.listdir(tmp_path / "soundlaw")
    assert len(built) == 1 and built[0].endswith(importlib.machinery.EXTENSION_SUFFIXES[0]), built
    # a later import loads the cached build without compiling
    backend, reason = backend_of(import_kernels(tmp_path, CC=str(tmp_path / "no-such-cc")))
    assert backend == "c" and reason.startswith("cached build")


def test_a_stale_build_in_the_package_is_never_loaded(tmp_path):
    """A `soundlaw._speedups` left in the package, as an in-place build of an
    older `_speedups.c` would be, is not what the kernels run."""
    package = tmp_path / "src" / "soundlaw"
    shutil.copytree(SRC / "soundlaw", package, ignore=shutil.ignore_patterns("__pycache__"))
    (package / "_speedups.py").write_text("def levenshtein(a, b):\n    return -1\n", encoding="utf-8")
    probe = "from soundlaw import kernels; print(kernels.levenshtein('ab', 'b'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(package.parent)),
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
