"""Backend selection for the native kernels, and the one statement of their
contracts, which both backends keep.

The pairwise kernels `levenshtein(a, b)` (unit-cost edit distance) and
`lcs_pair(a, b)` (a longest common subsequence, the one whose match
positions in `a` are leftmost) compare symbols with `==`, so symbols need
not be hashable; the compiled ones compare a snapshot of their operands, so
no `__eq__` can change them mid-call.  `lcs_pair` compares each pair once in
its DP and again along its backtrack, and an error of `__eq__` propagates
from either; an `__eq__` that answers otherwise the second time still gets
a tuple of symbols of `a`.

`scan_counts(candidates, words)` weights idp-pi context candidates in one
call: for each candidate, the disjoint occurrences one left-to-right scan
of each word finds, summed over `words`.  The compiled kernel hashes
symbols.

`find_sites(text, slots)` returns the ascending start of every site of a
window in `text`, overlapping ones included.  The window is a sequence of
(negated, chars) slots, a bool and a str (`rules._LawCompiler.window`): slot
j matches the characters of `chars` or (negated) every character but them
and the newline, and a site starts where slot j matches the character j
further on, for every slot.  The compiled kernel gives each slot one bitmap
of the code points below the window's limit, 256 or the highest code point
a slot names rounded up to a whole byte; a character at or past the limit
matches exactly the negated slots.  Its twin compiles the window once to a
regex, its first slot's class followed by a lookahead on the rest.

`splice_sites(words, starts, edits)` takes the words, the ascending starts
of a law's sites in their encodings joined by newlines
(`rules._LawCompiler.encode`: word i's line is 2 * len(words[i]) + 3
characters, so the words say where each line ends) and the law's
`SoundLaw.edits`: (pos, kind code, phones), the kind code being the index
of the mapping kind in `rules.MAP_KINDS`.  It returns (index, output) of
every word whose output differs from it, the leftmost site winning an
index two sites edit, and raises TypeError or ValueError on malformed
arguments: starts that do not ascend, a start on a newline or past the
last word, an edit outside its word.

`draw_inputs(getrandbits, pool, codes, slots, lo, hi, n, redraws)` returns
the `n` input words of an rp-ri task, each a tuple of items of `pool`.
`codes[i]` is `pool[i]`'s code, and the window of `slots` is the task's
phone context, w slots wide; slot j's members are the pool items whose code
it matches, in pool order.  Every draw is below(m) of the m items drawn
from, below(m) taking `getrandbits(m.bit_length())` until it is below m,
exactly as CPython's `Random._randbelow_with_getrandbits` does; a phone of
the context is a member of its slot, any other phone an item of the pool,
and a word's length is L = max(minimum, lo + below(hi - lo + 1)).  In
order, and each word's draws in the order given:
- n // 10 words that begin with the context: L (minimum w), the context,
  then L - w other phones;
- n // 10 that end with it: L (minimum w), the L - w other phones, then the
  context;
- n // 10 with one interior occurrence: L (minimum w + 2),
  h = 1 + below(L - w - 1), the context, then the L - w others, and the
  word is others[:h] + context + others[h:];
- n // 10 with two: L (minimum 2w + 3), a = below(L - 2w - 2),
  b = below(L - 2w - 2 - a), a context c1, a context c2, then the L - 2w
  others, and the word is others[:1 + a] + c1 + others[1 + a:2 + a + b]
  + c2 + others[2 + a + b:];
- words holding it anywhere, until there are ceil(2n / 3): L (minimum w),
  k = below(L - w + 1), the context, then the others, and the word is
  others[:k] + context + others[k:];
- words free of it, until there are n: lo + below(hi - lo + 1) phones of
  the pool, drawn again while the window matches the codes of consecutive
  phones of the word; after `redraws` redraws the last draw is kept
  untested.
Last, the list is shuffled as `random.shuffle` does: for i from n - 1 down
to 1, item i swaps with item below(i + 1).  With `rng.getrandbits`, it draws
what `rng.randint`, `rng.choice` and `rng.shuffle` would draw in that
order, and leaves rng in the same state.  A slot with no member raises
IndexError where it is first drawn from, once every draw before it is made;
an empty pool raises IndexError before any draw, and `len(codes) !=
len(pool)`, `lo > hi` or a negative argument ValueError, as a window of no
slot does.  An error of `getrandbits` propagates.

The compiled kernels are the hand-written CPython module `_speedups.c`.  It
is compiled on first import with the interpreter's configured C compiler
(``CC`` overrides it) into a user cache, ``$XDG_CACHE_HOME/soundlaw`` or
``~/.cache/soundlaw``, keyed by the source's sha256 and the interpreter's
extension suffix, so later imports only load it, and a build of an older
source is never loaded.
Without a compiler, the Python headers or a writable cache, the pure-Python
twin `_native` runs instead: it is correct but far slower.

`BACKEND` is ``"c"`` or ``"python"``; `BACKEND_REASON` says why.  Both
backends expose the identical function set (a test checks it).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys

from . import _native

_MODULE = "soundlaw._speedups"
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_speedups.c")
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def _cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: ignored, as the XDG spec says
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "soundlaw")


def _compile(source: str, target: str) -> None:
    """Build `source` into the extension `target` through a unique temp file
    and an atomic rename, so concurrent importers never see a partial file.
    Raises RuntimeError with the reason when it cannot."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise RuntimeError(f"Python headers not found (no Python.h in {include})")
    # swap a CC override into the link command, as setuptools does
    config_cc = sysconfig.get_config_var("CC") or "cc"
    cc = os.environ.get("CC") or config_cc
    ldshared = sysconfig.get_config_var("LDSHARED") or f"{config_cc} -shared"
    if ldshared.startswith(config_cc):
        ldshared = cc + ldshared[len(config_cc):]
    cache = os.path.dirname(target)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(target) + ".", suffix=".tmp", dir=cache)
        os.close(fd)
    except OSError as exc:
        raise RuntimeError(f"kernel cache {cache} is not writable: {exc}") from None
    cmd = [*shlex.split(ldshared), *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
           "-O2", f"-I{include}", source, "-o", tmp]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            raise RuntimeError(f"C compiler {cc!r} could not run: {exc}") from None
        if proc.returncode != 0:
            detail = "".join(proc.stderr.strip().splitlines()[-1:])
            raise RuntimeError(f"C compiler {cc!r} failed (exit {proc.returncode}) {detail}".strip())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load():
    """(implementation, backend name, reason) for the best available backend."""
    try:
        with open(_SOURCE, "rb") as fh:
            digest = hashlib.sha256(fh.read() + _SUFFIX.encode()).hexdigest()[:16]
    except OSError as exc:
        return _native, "python", f"C source unreadable: {exc}"
    target = os.path.join(_cache_dir(), f"_speedups-{digest}{_SUFFIX}")
    reason = f"cached build {target}"
    if not os.path.exists(target):
        try:
            _compile(_SOURCE, target)
        except (RuntimeError, OSError) as exc:
            return _native, "python", str(exc)
        reason = f"compiled on first import into {target}"
    try:
        spec = importlib.util.spec_from_file_location(_MODULE, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        return _native, "python", f"cannot load {target}: {exc}"
    # registered like a regular import, so lookups and pickling by name find it
    sys.modules[_MODULE] = module
    return module, "c", reason


_impl, BACKEND, BACKEND_REASON = _load()

levenshtein = _impl.levenshtein
lcs_pair = _impl.lcs_pair
scan_counts = _impl.scan_counts
splice_sites = _impl.splice_sites
find_sites = _impl.find_sites
draw_inputs = _impl.draw_inputs
