"""The reference loop: a fixed amount of pure-Python work that the gated
times are expressed in.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.5x over tens of seconds as other tenants load it.  A repetition times
this loop before each CLI step and after the last one, and reports its step
times divided by the loop's mean time in that repetition: the quotient
cancels the host's speed at that moment and keeps what the program itself
costs.  The loop does not touch soundlaw, so no change to the program moves
it; it mixes the operations the pipeline spends its time on (an
edit-distance table over short strings, string joins and dict updates).
"""

from __future__ import annotations

import random
import time

ROUNDS = 8  # one reference loop: about 0.1 s on a 2 GHz Xeon core

_RNG = random.Random(1234)
_WORDS = [
    "".join(_RNG.choice("ptkbdgaeiousmnlr") for _ in range(_RNG.randint(3, 9)))
    for _ in range(400)
]


def _distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _round() -> None:
    counts: dict[str, int] = {}
    for a, b in zip(_WORDS, _WORDS[1:]):
        key = " ".join(sorted(set(a + b)))
        counts[key] = counts.get(key, 0) + _distance(a, b)


def reference_loop() -> float:
    """Seconds taken by one reference loop."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return time.perf_counter() - start
