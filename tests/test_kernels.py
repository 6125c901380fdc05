import importlib.machinery
import importlib.util
import inspect
import itertools
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest
import oracles
from oracles import count_scan_occurrences, grid_distances, lcs_len_bruteforce, levenshtein_bruteforce

import soundlaw
from soundlaw import _native, kernels
from soundlaw import rules as R
from soundlaw.phonology import SegmentInventory

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
    for backend in (kernels, _native):
        for a in words:
            for b in words:
                assert backend.levenshtein(a, b) == levenshtein_bruteforce(a, b)
                assert len(backend.lcs_pair(a, b)) == lcs_len_bruteforce(a, b)


def test_grid_distances_equal_the_bruteforce():
    """A07's shortest-path oracle agrees with the enumerating one on every
    pair of a smaller grid."""
    pytest.importorskip("scipy.sparse.csgraph")
    words, edit, indel = grid_distances("abc", 4)
    assert words == words_up_to("abc", 4)
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            assert edit[i, j] == levenshtein_bruteforce(a, b), (a, b)
            assert len(a) + len(b) - indel[i, j] == 2 * lcs_len_bruteforce(a, b), (a, b)


def test_lcs_properties():
    rng = random.Random(9)
    alpha = ["a", "b", "c"]

    def word():
        return tuple(rng.choice(alpha) for _ in range(rng.randrange(0, 7)))

    pairs = [(word(), word()) for _ in range(400)]
    for backend in (kernels, _native):
        for a, b in pairs:
            got = backend.lcs_pair(a, b)
            # it is a common subsequence...
            for seq in (a, b):
                it = iter(seq)
                assert all(sym in it for sym in got)
            # ...of maximal length
            assert len(got) == lcs_len_bruteforce(a, b)
        assert backend.lcs_pair(("x", "y"), ("x", "y")) == ("x", "y")
        assert len(backend.lcs_pair(("a", "b"), ("b", "a"))) == 1


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
        # character strings, as evaluation passes them under --char-level
        sa, sb = "".join(a), "".join(b)
        assert kernels.levenshtein(sa, sb) == _native.levenshtein(sa, sb)
        assert kernels.lcs_pair(sa, sb) == _native.lcs_pair(sa, sb)
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
    """`backend`'s kernels on (a, b) equal `_native`'s, and the brute-force
    oracles', on their equality classes."""
    got_lcs = backend.lcs_pair(a, b)
    if isinstance(a, tuple):  # the LCS holds symbols of `a`, whatever `b` holds equal to them
        assert all(any(sym is x for x in a) for sym in got_lcs)
    ca, cb, c_lcs = equality_classes(a, b, got_lcs)
    assert c_lcs == _native.lcs_pair(ca, cb)
    d = backend.levenshtein(a, b)
    assert d == _native.levenshtein(ca, cb)
    if bruteforce:
        assert d == levenshtein_bruteforce(ca, cb)
        assert len(got_lcs) == lcs_len_bruteforce(ca, cb)


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
    """Pairs whose DP slots outgrow the compiled kernels' stack buffer (256
    slots) take the heap path."""
    rng = random.Random(29)
    alpha = [*distinct(("tʰ", "a")), "tʰ", "a", "ʃ", 1, 1.0, [2]]

    def word(length):
        return tuple(rng.choice(alpha) for _ in range(length))

    for _ in range(3):
        assert_matches_equality_classes(backend, word(60), word(60), bruteforce=False)
    # the brute-force oracles stay cheap with one short operand
    assert_matches_equality_classes(backend, word(1), word(2100))
    a, b = word(3), word(700)
    assert len(backend.lcs_pair(a, b)) == lcs_len_bruteforce(*equality_classes(a, b))


def test_compiled_levenshtein_keeps_two_rows():
    """levenshtein compares in place: a 3000 x 3000 pair needs two DP rows
    (48 kB), not an m x n table (9 MB)."""
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
    ("levenshtein", 3, 4), ("lcs_pair", 3, 4), ("levenshtein", 60, 60), ("lcs_pair", 60, 60),
])
def test_an_eq_that_raises_propagates(backend, name, m, n):
    a = ("a",) * (m - 1) + (RaisingEq(),)
    with pytest.raises(RuntimeError, match="no comparison"):
        getattr(backend, name)(a, ("a", "b") * (n // 2))


def late_answers(limit, count, late):
    """A list of `count` symbols equal to "a" alone for their first `limit`
    comparisons, counted together from each iteration of the list (so from
    each call of a compiled kernel, which iterates it once), that answer
    `late` to every later one, or raise it when it is an exception class."""
    class Operand(list):
        def __iter__(self):
            self.calls = 0
            return super().__iter__()

    class Late:
        def __eq__(self, other):
            operand.calls += 1
            if operand.calls <= limit:
                return other == "a"
            if isinstance(late, type):
                raise late("no comparison")
            return late

        __hash__ = object.__hash__

    operand = Operand(Late() for _ in range(count))
    operand.calls = 0
    return operand


@BACKENDS
@pytest.mark.parametrize("m, n", [(3, 4), (60, 60)])
def test_an_eq_that_raises_in_the_lcs_backtrack_propagates(backend, m, n):
    """lcs_pair compares again along its backtrack, after the DP's m * n
    comparisons, and an error there propagates, on the stack and past it."""
    with pytest.raises(RuntimeError, match="no comparison"):
        backend.lcs_pair(late_answers(m * n, m, RuntimeError), ("a", "b") * (n // 2))


@BACKENDS
@pytest.mark.parametrize("late", [True, False])
@pytest.mark.parametrize("m, n", [(3, 4), (60, 60)])
def test_an_eq_that_changes_its_answer_in_the_lcs_backtrack(backend, late, m, n):
    """An __eq__ that answers otherwise along the backtrack than in the DP,
    so that the backtrack takes more pairs than the DP counted or fewer,
    still gets a tuple of symbols of `a`: the compiled kernel neither writes
    past the tuple it sized nor returns one with empty slots."""
    a = late_answers(m * n, m, late)
    got = backend.lcs_pair(a, ("b", "a") * (n // 2))
    assert type(got) is tuple and len(got) <= min(m, n)
    assert all(any(sym is x for x in a) for sym in got)
    if not late:
        assert got == ()


def test_compiled_kernels_keep_their_operands_while_comparing():
    """An __eq__ that empties the list being compared cannot pull its items
    from under the compiled kernels: they compare a snapshot."""
    if kernels.BACKEND != "c":
        pytest.skip(f"compiled backend not built ({kernels.BACKEND_REASON}); nothing to check")

    class Emptying:
        def __eq__(self, other):
            victim.clear()
            return False

    for name in ("levenshtein", "lcs_pair"):
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


def draw_table(size):
    """(inventory, codes): `size` segments p0, p1, ..., with no feature row,
    and their codes, as `draw_inputs` reads them."""
    table = SegmentInventory(tuple(f"p{i}" for i in range(size)))
    return table, R._compiler(table).segment_codes


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
def test_draw_takes_the_choice_stream(backend):
    """draw_inputs draws what rng.randint, rng.choice and rng.shuffle draw in
    `oracles.sample_inputs`, and leaves rng in the same state, for pools and
    slots of member counts on both sides of powers of two, word counts with
    and without each placement, and lengths below the context's width."""
    for size in (1, 2, 3, 7, 8, 9, 63, 64, 65, 300):
        table, codes = draw_table(size)
        rng = random.Random(size)
        for count in {1, 2, 3, 7, 8, 9, 63, 64, 65, max(size - 1, 1)}:
            members = rng.sample(table.segments, min(count, size))
            others = R.Predicate("not-in", ("zz", *rng.sample(table.segments, size // 2)))
            context = [R.in_set(members), others][:rng.randrange(1, 3)]
            slots = R._compiler(table).window(tuple(context), table)
            for lo, hi, n, redraws in ((3, 12, 50, 40), (0, 3, 17, 2), (1, 1, 10, 0), (5, 9, 3, 1), (2, 4, 0, 3)):
                seed = rng.randrange(1 << 30)
                ours, theirs = random.Random(seed), random.Random(seed)
                got = backend.draw_inputs(ours.getrandbits, table.segments, codes, slots, lo, hi, n, redraws)
                assert got == oracles.sample_inputs(theirs, context, table, lo, hi, n, redraws), (size, context)
                assert ours.getstate() == theirs.getstate(), (size, context)


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
def test_draw_stops_at_an_empty_pool_after_the_pools_before_it(backend):
    """A context slot with no member raises IndexError where it is first
    drawn from, once every draw before it is made: the first word's length
    and the slots before it, or, with no word of a placement quota, the
    first word's length and offset too."""
    table, codes = draw_table(5)
    for n in (10, 50, 3):
        for empty_at in range(4):
            context = [R.in_set(["p0", "p3"]), R.is_token("p4"), R.Predicate("not-in", ("p1",))]
            context.insert(empty_at, R.in_set(["zz"]))  # a phone no segment is
            slots = R._compiler(table).window(tuple(context), table)
            ours, theirs = random.Random(3), random.Random(3)
            with pytest.raises(IndexError):
                backend.draw_inputs(ours.getrandbits, table.segments, codes, slots, 3, 12, n, 40)
            with pytest.raises(IndexError):
                oracles.sample_inputs(theirs, context, table, 3, 12, n, 40)
            assert ours.getstate() == theirs.getstate(), (n, empty_at)


class Exhausted(Exception):
    pass


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
def test_draw_propagates_an_error_of_getrandbits(backend):
    """An error of `getrandbits` raised at any one of a draw's calls, in any
    placement, in a redraw or in the shuffle, propagates from that call:
    the calls made are the ones a full draw makes up to it."""
    table, codes = draw_table(6)
    slots = R._compiler(table).window((R.in_set(["p0", "p1"]), R.Predicate("not-in", ("p2",))), table)
    args = (table.segments, codes, slots, 3, 6, 24, 3)
    made = []

    def recording(k):
        made.append(k)
        return source.getrandbits(k)

    source = random.Random(17)
    full = backend.draw_inputs(recording, *args)
    assert len(full) == 24 and len(made) > 150
    for fail_at in range(1, len(made) + 1):
        calls = []

        def getrandbits(k):
            calls.append(k)
            if len(calls) == fail_at:
                raise Exhausted
            return replay.getrandbits(k)

        replay = random.Random(17)
        with pytest.raises(Exhausted):
            backend.draw_inputs(getrandbits, *args)
        assert calls == made[:fail_at]


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
@pytest.mark.parametrize("getrandbits, pools", [
    (random.Random(1).getrandbits, 5),  # context pools that are no sequence
    (random.Random(1).getrandbits, [5]),  # a pool that is no class
    (lambda k: "0", [(False, "\x80")]),  # bits that are no integer
    (None, [(False, "\x80")]),  # a getrandbits that cannot be called
])
def test_draw_rejects_malformed_input(backend, getrandbits, pools):
    """`pools` are the context's slots, each a (negated, chars) class whose
    members are the pool its phone of the context is drawn from."""
    with pytest.raises(TypeError):
        backend.draw_inputs(getrandbits, *DRAW_ARGS[:2], pools, 1, 4, 10, 5)


DRAW_ARGS = (["a", "b", "c"], "\x80\x81\x82", [(False, "\x80")], 1, 4, 3, 5)


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
@pytest.mark.parametrize("pool, codes, slots, lo, hi, count, redraws, error", [
    ([], "", DRAW_ARGS[2], 1, 4, 3, 5, IndexError),  # an empty pool
    (["a", "b", "c"], "\x80\x81", DRAW_ARGS[2], 1, 4, 3, 5, ValueError),  # a code missing
    (["a", "b"], "\x80\x81\x82", DRAW_ARGS[2], 1, 4, 3, 5, ValueError),  # a code too many
    (*DRAW_ARGS[:3], 5, 4, 3, 5, ValueError),  # lo > hi
    (*DRAW_ARGS[:3], -1, 4, 3, 5, ValueError),  # a negative length
    (*DRAW_ARGS[:3], 1, 4, -1, 5, ValueError),  # a negative count
    (*DRAW_ARGS[:3], 1, 4, 3, -1, ValueError),  # a negative cap
    (*DRAW_ARGS[:2], [], 1, 4, 3, 5, ValueError),  # a window of no slot
    (DRAW_ARGS[0], 5, *DRAW_ARGS[2:], TypeError),  # codes that are no str
    (DRAW_ARGS[0], ["\x80", "\x81", "\x82"], *DRAW_ARGS[2:], TypeError),
    (5, *DRAW_ARGS[1:], TypeError),  # a pool that is no sequence
    (*DRAW_ARGS[:2], [(1, "a")], *DRAW_ARGS[3:], TypeError),  # a slot that is no (bool, str)
    (*DRAW_ARGS[:3], 1.0, 4, 3, 5, TypeError),  # a length that is no integer
    (*DRAW_ARGS[:5], "3", 5, TypeError),
], ids=["empty-pool", "code-missing", "code-too-many", "lo-above-hi", "negative-lo", "negative-count",
        "negative-redraws", "no-slot", "codes-an-int", "codes-a-list", "pool-an-int", "slot-not-bool-str",
        "lo-a-float", "count-a-str"])
def test_draw_clear_rejects_malformed_input(backend, pool, codes, slots, lo, hi, count, redraws, error):
    """Malformed input to `draw_inputs` raises before any bits are drawn."""
    calls = []
    with pytest.raises(error):
        backend.draw_inputs(calls.append, pool, codes, slots, lo, hi, count, redraws)
    assert calls == []


@pytest.mark.parametrize("backend", [kernels, _native], ids=["kernels", "native"])
@pytest.mark.parametrize("lo, hi, fail_at, bits", [
    (3, 6, 13, [3, 2, 1, 2, 2] * 2 + [3, 2, 2]),  # while drawing the free word's phones
    (1, 1, 11, [1, 1, 1] * 2 + [1, 2, 1, 2, 1]),  # at a redraw's length: each word is an 'a', which the window holds
    (70, 70, 204, ([1, 7, 1] + [2] * 69) * 2 + [1] + [2] * 59),  # inside a word past 64 phones
], ids=["phones", "redraw-length", "long-word"])
def test_draw_clear_propagates_an_error_of_getrandbits(backend, lo, hi, fail_at, bits):
    """An error of `getrandbits` stops `draw_inputs` where it is raised in a
    context-free word.  Of three words, two hold the context anywhere (a
    length, an offset, the context's one phone and the others) and the third
    is free of it; every draw is 0, so every phone an 'a'."""
    calls = []

    def getrandbits(k):
        calls.append(k)
        if len(calls) == fail_at:
            raise Exhausted
        return 0

    with pytest.raises(Exhausted):
        backend.draw_inputs(getrandbits, *DRAW_ARGS[:3], lo, hi, 3, 5)
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
    pool, codes, context = ["a", "b", "c"], "\x80\x81\x82", [[False, "\x80"], [True, "\x81"]]
    # a draw of 12 short words whose getrandbits gives 0 makes this many calls
    # before its last, the shuffle's last swap
    made = []
    _native.draw_inputs(lambda k: made.append(k) or 0, pool, codes, context, 1, 3, 12, 5)
    shuffle_at = len(made) - 1
    good = {
        "levenshtein": [(["a", "b", "c"], ["a", "c", "d"])],
        # and an __eq__ whose answers along the backtrack take more pairs
        # than the DP counted, or fewer
        "lcs_pair": [(["a", "b", "c"], ["a", "c", "d"]), (late_answers(12, 3, True), ["b", "a", "b", "a"]),
                     (late_answers(12, 3, False), ["b", "a", "b", "a"])],
        "scan_counts": [([["a", "b"], []], [["a", "b", "a", "b"], ["b"]])],
        "splice_sites": [([["a", "b"], ["a"]], [2, 9], [[0, 1, ["e"]], [2, 3, ["f", "g"]]])],
        "find_sites": [("#@\x80@\x81@#\n#@\x80@#", window)],
        # short words, and words past the kernel's buffer's first size; none
        # of 20 phones, as CPython 3.11 keeps every freed tuple of 20 items
        # on a free list that no new tuple is taken from
        "draw_inputs": [(rng.getrandbits, pool, codes, context, 1, 12, 50, 5),
                        (rng.getrandbits, pool, codes, context, 65, 70, 12, 5)],
    }
    raising = [RaisingEq(), "b"]
    bad = {
        "levenshtein": [(5, ["a"]), (raising, ["a", "b"]), (["a"],)],
        # an __eq__ that raises in the DP, and one that raises in the backtrack
        "lcs_pair": [(5, ["a"]), (raising, ["a", "b"]), (late_answers(12, 3, RuntimeError), ["a", "b", "a", "b"])],
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
        "draw_inputs": [
            (rng.getrandbits, [], "", context, 1, 3, 12, 5),  # an empty pool
            (rng.getrandbits, pool, codes[:2], context, 1, 3, 12, 5),  # a code missing
            (rng.getrandbits, pool, 5, context, 1, 3, 12, 5),  # codes that are no str
            (rng.getrandbits, pool, codes, context, 4, 3, 12, 5),  # lo > hi
            (rng.getrandbits, pool, codes, context, 1, 3, -1, 5),  # a negative count
            (rng.getrandbits, pool, codes, [], 1, 3, 12, 5),  # a context of no slot
            (rng.getrandbits, pool, codes, [[1, "a"]], 1, 3, 12, 5),  # a slot that is no (bool, str)
            (rng.getrandbits, pool, codes, [[False, "\x80"], [False, ""]], 1, 3, 12, 5),  # a slot with no member
            (failing_after(100), pool, codes, context, 66, 70, 12, 5),  # stops inside a long word
            (failing_after(shuffle_at), pool, codes, context, 1, 3, 12, 5),  # stops in the shuffle
            (lambda k: [k], pool, codes, context, 1, 3, 12, 5),  # bits that are no integer
            (rng.getrandbits, pool, codes, context, 1, 3),  # too few arguments
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


def test_mutant_catalogue_follows_the_code():
    """Every entry of scripts/mutants.py names a text that occurs exactly
    once in its file, a backend and test targets that exist, so a stale
    catalogue shows here and not only when the minutes-long script runs."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("mutants", root / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert len(script.CATALOGUE) >= 15
    for mutant in script.CATALOGUE:
        assert (root / mutant.file).read_text(encoding="utf-8").count(mutant.text) == 1, mutant
        assert mutant.backend in ("c", "python") and mutant.targets, mutant
        for target in mutant.targets:
            module, _, name = target.partition("::")
            assert (root / module).is_file(), target
            if name:
                assert re.search(rf"^def {re.escape(name)}\(", (root / module).read_text(encoding="utf-8"), re.M), target


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
