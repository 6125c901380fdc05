"""Synthetic PBE task generation.

Four families: rp-ri samples both laws and inputs locally; rp-li and rp-pi
obtain laws from a language model through the gateway (inputs are model
nonce words or protolanguage seed words, padded with distractors); idp-pi
draws laws from an ingested classical-rule database, gated by a context
sampled from the longest common subsequences of the input words.

Outputs are always computed by executing the gold law locally; a model
response is never trusted for the Y side of a task.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations, starmap

from . import kernels
from .dsl import RuleDB, extract_code_blocks, parse_program_text, print_classical
from .gateway import build_datagen_prompt
from .phonology import BOUNDARY, RESERVED, PhoneSeq, SegmentInventory, UnsegmentableInput
from .rules import (
    Predicate,
    SEP_PRED,
    SoundLaw,
    apply_law_word,
    apply_to_lexicon,
    context_free_draw,
    delete,
    feature_class,
    in_set,
    insert_after,
    insert_before,
    interleave,
    is_not_token,
    is_token,
    law_is_inert,
    replace_with,
    slot_members,
)
from .tasks import PBETask, map_in_order

lcs = kernels.lcs_pair


class GenerationError(Exception):
    pass


class InfeasibleQuota(GenerationError):
    pass


class ZeroYield(GenerationError):
    pass


class NoApplicableRule(GenerationError):
    pass


class PoolExhausted(GenerationError):
    pass


class NoCommonSubsequence(GenerationError):
    pass


BOUNDARY_CONDITIONS = ("word-start", "word-end", "not-word-start", "not-word-end")

# classes usable as random context slots (matching one phone each)
CONTEXT_CLASSES = (
    "is_consonant",
    "is_vowel",
    "is_velar",
    "is_liquid_consonant",
    "is_cont_not_son",
    "is_son",
)
WILDCARD_CLASSES = ("is_anything", "is_not_boundary")

# the shape of an rp-ri law and its input words (inclusive ranges)
CONTEXT_LEN = (1, 3)
BOUNDARY_PROB = 0.25
OP_COUNT = (1, 3)
# relative weights for literal / set / class context slots
PREDICATE_MIX = (0.6, 0.2, 0.2)
SET_SIZE = (2, 4)
WORD_LEN = (3, 12)
# times a context-free word that holds the context is drawn again; the last
# draw is kept untested
CONTEXT_REDRAWS = 40


@dataclass(frozen=True)
class GenConfig:
    n_examples: int = 50
    retry_budget: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_examples < 10:
            raise GenerationError("n_examples must be >= 10")


def derive_rng(seed: int, *parts) -> random.Random:
    """Independent deterministic stream for (seed, parts)."""
    digest = hashlib.sha256(repr((seed,) + parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# random laws (rp-ri)


def _sample_slot(rng: random.Random, inv: SegmentInventory, wildcards: bool) -> Predicate:
    kinds = ["literal", "set", "class"]
    kind = rng.choices(kinds, weights=PREDICATE_MIX)[0]
    if kind == "literal":
        return is_token(rng.choice(inv.segments))
    if kind == "set":
        size = rng.randint(*SET_SIZE)
        return in_set(rng.sample(inv.segments, min(size, len(inv))))
    pool = CONTEXT_CLASSES + (WILDCARD_CLASSES if wildcards else ())
    return feature_class(rng.choice(pool))


def _sample_mapping(rng: random.Random, inv: SegmentInventory, slot: Predicate) -> "object":
    kind = rng.choice(("delete", "replace", "insert-before", "insert-after"))
    if kind == "delete":
        return delete()
    phone = rng.choice(inv.segments)
    if kind == "replace":
        if slot.kind == "is":
            others = [s for s in inv.segments if s != slot.args[0]]
            phone = rng.choice(others)
        return replace_with((phone,))
    if kind == "insert-before":
        return insert_before((phone,))
    return insert_after((phone,))


def sample_random_law(cfg: GenConfig, rng: random.Random, inv: SegmentInventory) -> SoundLaw:
    """A random law: 1-3 phone context slots, optional boundary condition,
    1-3 edits at distinct context slots.  Its shape is fixed by the module
    constants; `cfg` is taken so every sampler has the same signature."""
    n_ctx = rng.randint(*CONTEXT_LEN)
    condition = rng.choice(BOUNDARY_CONDITIONS) if rng.random() < BOUNDARY_PROB else None
    wildcards = n_ctx >= 2 or condition is not None
    ctx_slots = [_sample_slot(rng, inv, wildcards) for _ in range(n_ctx)]

    slots: list[Predicate] = list(ctx_slots)
    ctx_offset = 0
    if condition == "word-start":
        slots.insert(0, is_token(BOUNDARY))
        ctx_offset = 1
    elif condition == "not-word-start":
        slots.insert(0, is_not_token(BOUNDARY))
        ctx_offset = 1
    elif condition == "word-end":
        slots.append(is_token(BOUNDARY))
    elif condition == "not-word-end":
        slots.append(is_not_token(BOUNDARY))

    n_ops = min(rng.randint(*OP_COUNT), n_ctx)
    edited = sorted(rng.sample(range(n_ctx), n_ops))
    change_pos = tuple(2 * (ctx_offset + j) for j in edited)
    mappings = tuple(_sample_mapping(rng, inv, ctx_slots[j]) for j in edited)
    return SoundLaw(interleave(slots), change_pos, mappings)


# ---------------------------------------------------------------------------
# input words placed against the law's phone-slot context


def context_predicates(law: SoundLaw) -> tuple[Predicate, ...]:
    """The law's context window over phones: separator slots dropped, edge
    slots that test the boundary token dropped too."""
    slots = [p for p in law.predicates if p != SEP_PRED]
    if slots and slots[0].kind in ("is", "is-not") and slots[0].args == (BOUNDARY,):
        slots = slots[1:]
    if slots and slots[-1].kind in ("is", "is-not") and slots[-1].args == (BOUNDARY,):
        slots = slots[:-1]
    return tuple(slots)


def draw_below(rng: random.Random):
    """below(n), a uniform draw from range(n) for n >= 1, taken from rng's
    stream exactly as CPython's `Random._randbelow_with_getrandbits` takes
    it: `rng.randint(a, b)` is `a + below(b - a + 1)`, with the same value
    and the same state after, at a fraction of the method's cost.
    `kernels.draw(rng.getrandbits, pools)` makes the same draws for
    `rng.choice` of each pool in one call."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def sample_inputs_for_law(
    law: SoundLaw, cfg: GenConfig, rng: random.Random, inv: SegmentInventory
) -> list[PhoneSeq]:
    """N input words satisfying every placement quota simultaneously:
    >= 2N/3 contain the context, >= N/10 each begin with it, end with it,
    hold one interior occurrence, hold two; the rest are random words kept
    free of the context when the context is avoidable at all."""
    preds = context_predicates(law)
    if not preds:
        raise InfeasibleQuota("law has no phone-slot context")
    w = len(preds)
    n = cfg.n_examples
    lo, hi = WORD_LEN
    if 2 * w + 3 > hi:
        raise InfeasibleQuota(f"context of width {w} cannot occur twice inside a word of <= {hi} phones")

    # one pool of member phones per context slot, and the first slot with none
    ctx = [slot_members(p, inv) for p in preds]
    empty = next((p for p, members in zip(preds, ctx) if not members), None)
    tenth = n // 10
    bearing = -(-2 * n // 3)  # ceil(2n/3)
    below = draw_below(rng)  # every length and offset
    # a word's phones, drawn in one call: rng.choice of each pool in turn
    draw = partial(kernels.draw, rng.getrandbits)
    segs = [inv.segments]

    def length_at_least(minimum: int) -> int:
        return max(minimum, lo + below(hi - lo + 1))

    # a word's draw takes its context and its other phones in the order the
    # output bytes depend on: the context first, unless the word ends with it
    words: list[PhoneSeq] = []
    try:
        for _ in range(tenth):  # begins with context
            words.append(tuple(draw(ctx + segs * (length_at_least(w) - w))))
        for _ in range(tenth):  # ends with context
            words.append(tuple(draw(segs * (length_at_least(w) - w) + ctx)))
        for _ in range(tenth):  # one interior occurrence
            total = length_at_least(w + 2)
            head = 1 + below(total - w - 1)
            p = draw(ctx + segs * (total - w))  # the context, then the rest
            words.append(tuple(p[w:w + head] + p[:w] + p[w + head:]))
        for _ in range(tenth):  # two interior occurrences
            total = length_at_least(2 * w + 3)
            slack = total - 2 * w - 3
            a = below(slack + 1)
            b = below(slack - a + 1)
            p = draw(ctx * 2 + segs * (total - 2 * w))  # both contexts, then the rest
            i, j = 2 * w + 1 + a, 2 * w + 2 + a + b
            words.append(tuple(p[2 * w:i] + p[:w] + p[i:j] + p[w:2 * w] + p[j:]))
        while len(words) < bearing:  # any occurrence anywhere
            total = length_at_least(w)
            at = below(total - w + 1)
            p = draw(ctx + segs * (total - w))
            words.append(tuple(p[w:w + at] + p[:w] + p[w + at:]))
    except IndexError:  # an empty slot stops a draw after the pools before it
        raise InfeasibleQuota(f"no inventory phone satisfies {empty}") from None
    # the context-free remainder, in one call: each word is drawn again while
    # it holds the context (best effort when the context is a wildcard that
    # every word necessarily contains)
    words += context_free_draw(preds, inv, rng.getrandbits)(lo, hi, n - len(words), CONTEXT_REDRAWS)
    rng.shuffle(words)
    return words


def _rp_ri_task(cfg: GenConfig, inv: SegmentInventory, index: int) -> PBETask:
    rng = derive_rng(cfg.seed, "rp-ri", index)
    last_error: Exception | None = None
    for _ in range(cfg.retry_budget):
        law = sample_random_law(cfg, rng, inv)
        try:
            inputs = sample_inputs_for_law(law, cfg, rng, inv)
        except InfeasibleQuota as exc:
            last_error = exc
            continue
        outputs, changed = apply_to_lexicon(law, inputs, inv)
        if not any(changed):
            last_error = GenerationError("law is inert on its sampled inputs")
            continue
        return PBETask(
            id=f"rp-ri-{index:05d}",
            condition="rp-ri",
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            gold_law=law,
            provenance={"seed": cfg.seed, "source": {"generator": "rp-ri", "index": index}},
        )
    raise GenerationError(f"task {index}: retry budget exhausted ({last_error})")


def gen_rp_ri(cfg: GenConfig, count: int, inv: SegmentInventory, jobs: int = 1) -> list[PBETask]:
    """Random laws applied to quota-sampled random inputs.

    Each task owns an RNG stream derived from (seed, index), so splitting
    the index range over workers changes nothing about the output bytes.
    """
    if len(inv) < 2:
        raise GenerationError(
            "rp-ri needs two segments to draw a replacement unlike a literal slot's phone;"
            f" the feature table has {len(inv)}"
        )
    return map_in_order(partial(_rp_ri_task, cfg, inv), range(count), jobs)


# ---------------------------------------------------------------------------
# distractors


def add_distractors(
    task: PBETask, pool, rng: random.Random, target_n: int, inv: SegmentInventory
) -> PBETask:
    """Pad a task to target_n examples with words drawn from other tasks.

    The gold law is re-executed on every added word, so a distractor that
    the law does happen to touch still yields a consistent pair.
    """
    if task.n_examples > target_n:
        raise GenerationError(f"task {task.id} already has {task.n_examples} examples")
    if task.gold_law is None:
        raise GenerationError("cannot pad a task without its gold law")
    needed = target_n - task.n_examples
    if needed == 0:
        return task
    have = set(task.inputs)
    fresh = []
    seen = set()
    for word in pool:
        if word not in have and word not in seen:
            fresh.append(word)
            seen.add(word)
    if len(fresh) < needed:
        raise PoolExhausted(f"need {needed} distractors, pool offers {len(fresh)}")
    picked = rng.sample(fresh, needed)
    new_inputs = list(task.inputs) + picked
    new_outputs = list(task.outputs) + [apply_law_word(task.gold_law, p, inv) for p in picked]
    return replace(task, inputs=tuple(new_inputs), outputs=tuple(new_outputs))


# ---------------------------------------------------------------------------
# LLM-backed generation (rp-li / rp-pi)

_NONCE_LIST = re.compile(r"(?<![\w.])nonce_inputs\s*=\s*(\[[^\]]*\])")


def _nonce_lists(block: str) -> list[tuple[int, list[str]]]:
    """(position, words) for every nonce_inputs assignment in a code block."""
    import ast

    found = []
    for m in _NONCE_LIST.finditer(block):
        try:
            value = ast.literal_eval(m.group(1))
        except (ValueError, SyntaxError):
            continue
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            found.append((m.start(), value))
    return found


def _segment_all(words, inv: SegmentInventory) -> list[PhoneSeq]:
    out = []
    for word in words:
        try:
            phones = inv.segment(word)
        except UnsegmentableInput:
            continue
        if phones:
            out.append(phones)
    return out


def harvest_actions(transcript_text: str, inv: SegmentInventory):
    """(law, nonce-words-or-None) pairs from one model response."""
    blocks, _ = extract_code_blocks(transcript_text)
    pairs = []
    for block in blocks:
        parsed = parse_program_text(block, inv)
        nonce = _nonce_lists(block)
        for i, entry in enumerate(parsed.entries):
            end = entry.span[1]
            next_start = (
                parsed.entries[i + 1].span[0] if i + 1 < len(parsed.entries) else len(block)
            )
            attached = None
            for pos, words in nonce:
                if end <= pos < next_start:
                    attached = words
                    break
            pairs.append((entry.law, attached))
    return pairs


def gen_llm_tasks(
    kind: str,
    gateway,
    seed_pool: list[PhoneSeq],
    cfg: GenConfig,
    count: int,
    inv: SegmentInventory,
) -> list[PBETask]:
    """Laws proposed by a model, inputs padded to N with distractors.

    rp-li pairs each law with the nonce words the model listed for it;
    rp-pi starts each task from the round's five seed words.  Inert laws
    are dropped.  Output words always come from executing the law locally.
    """
    if kind not in ("rp-li", "rp-pi"):
        raise GenerationError(f"unknown llm condition {kind!r}")
    if len(seed_pool) < 5:  # each round samples the five seed words of its prompt
        raise GenerationError(f"{kind} prompts take 5 seed words; the seed pool holds {len(seed_pool)}")
    rng = derive_rng(cfg.seed, kind)
    candidates: list[tuple[SoundLaw, list[PhoneSeq], int]] = []
    barren = 0
    round_index = 0
    while len(candidates) < count:
        if barren > cfg.retry_budget:
            raise ZeroYield(f"{barren} consecutive rounds yielded no usable program")
        seeds = rng.sample(seed_pool, 5)
        transcripts = gateway.complete_prompt(build_datagen_prompt(kind, seeds), n=1)
        yielded = 0
        for transcript in transcripts:
            for law, nonce in harvest_actions(transcript.text, inv):
                if kind == "rp-li" and nonce:
                    inputs = _segment_all(nonce, inv)
                    if not inputs:
                        inputs = list(seeds)
                else:
                    inputs = list(seeds)
                if law_is_inert(law, inputs, inv):
                    continue
                candidates.append((law, inputs, round_index))
                yielded += 1
        barren = 0 if yielded else barren + 1
        round_index += 1
    candidates = candidates[:count]

    # distractor pool: every candidate's inputs, then the seed pool;
    # add_distractors skips a task's own inputs
    pool = [word for _, inputs, _ in candidates for word in inputs] + list(seed_pool)
    tasks: list[PBETask] = []
    for i, (law, inputs, rnd) in enumerate(candidates):
        outputs, _ = apply_to_lexicon(law, inputs, inv)
        task = PBETask(
            id=f"{kind}-{i:05d}",
            condition=kind,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            gold_law=law,
            provenance={"seed": cfg.seed, "source": {"generator": kind, "round": rnd}},
        )
        tasks.append(add_distractors(task, pool, rng, cfg.n_examples, inv))
    return tasks


# ---------------------------------------------------------------------------
# idp-pi


def sample_idp_context(inputs: list[PhoneSeq], rng: random.Random) -> PhoneSeq:
    """Draw a context from the pairwise LCSs, weighted by how often each
    candidate occurs (scan counting) across the input words."""
    if len(inputs) < 2:
        raise GenerationError("need at least two inputs")
    # distinct candidates in first-seen order, so the draw below is reproducible
    cands = dict.fromkeys(starmap(lcs, combinations(inputs, 2)))
    cands.pop((), None)
    if not cands:
        raise NoCommonSubsequence("all pairwise LCSs are empty")
    weights = kernels.scan_counts(list(cands), inputs)
    pick = rng.random() * sum(weights)
    acc = 0
    for cand, weight in zip(cands, weights):
        acc += weight
        if pick < acc:
            return cand
    return cand  # pragma: no cover - float edge


def _law_phones_in_context(law: SoundLaw, context: PhoneSeq) -> bool:
    """Applicability gate: every phone a slot of the law names (its focus and
    literal context) must occur in the sampled context, and every set slot
    needs at least one member there."""
    ctx = set(context)
    for pred in law.predicates:
        if pred.kind == "is" and pred.args[0] not in RESERVED and pred.args[0] not in ctx:
            return False
        if pred.kind == "in" and ctx.isdisjoint(pred.args):
            return False
    return True


def gen_idp_pi(
    db: RuleDB,
    lexicon: list[PhoneSeq],
    cfg: GenConfig,
    count: int,
    inv: SegmentInventory,
) -> list[PBETask]:
    """Database rules filtered to the ones applicable to sampled inputs."""
    usable = db.usable()
    if not usable:
        raise GenerationError("rule database has no lowerable rules")
    if len(lexicon) < cfg.n_examples:
        raise GenerationError(f"lexicon must hold >= {cfg.n_examples} words")
    tasks: list[PBETask] = []
    for index in range(count):
        rng = derive_rng(cfg.seed, "idp-pi", index)
        for _ in range(cfg.retry_budget):
            words = rng.sample(lexicon, cfg.n_examples)
            try:
                context = sample_idp_context(words, rng)
            except NoCommonSubsequence:
                continue
            applicable = [
                entry
                for entry in usable
                if _law_phones_in_context(entry.law, context)
                and not law_is_inert(entry.law, words, inv)
            ]
            if not applicable:
                continue
            entry = applicable[rng.randrange(len(applicable))]
            outputs, _ = apply_to_lexicon(entry.law, words, inv)
            tasks.append(
                PBETask(
                    id=f"idp-pi-{index:05d}",
                    condition="idp-pi",
                    inputs=tuple(words),
                    outputs=tuple(outputs),
                    gold_law=entry.law,
                    provenance={
                        "seed": cfg.seed,
                        "source": {
                            "generator": "idp-pi",
                            "rule": print_classical(entry.rule),
                            "context": " ".join(context),
                            "language_pair": entry.language_pair,
                        },
                    },
                )
            )
            break
        else:
            raise NoApplicableRule(f"task {index}: no applicable rule within the retry budget")
    return tasks
