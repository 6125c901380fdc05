"""End-to-end induction loop: task -> prompt -> transcripts -> laws -> reward."""

from fractions import Fraction

from soundlaw import evaluation, gateway
from soundlaw.dsl import lower_classical, parse_classical
from soundlaw.gateway import Gateway, GatewayConfig, build_sli_prompt, extract_programs
from soundlaw.rules import apply_to_lexicon
from soundlaw.tasks import PBETask


def induction_task(inv):
    law = lower_classical(parse_classical("m > n / _ #"), inv)
    inputs = tuple(inv.segment(w) for w in ("tʰum", "sam", "lar", "mola"))
    outputs, _ = apply_to_lexicon(law, list(inputs), inv)
    return PBETask("ind-0", "single-law", inputs, tuple(outputs), law, {"seed": 0, "source": {}})


def scripted_transport(responses):
    state = {"i": 0}

    def transport(endpoint, payload, headers, timeout):
        content = responses[min(state["i"], len(responses) - 1)]
        state["i"] += 1
        return 200, {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}

    return transport


GOOD = """Looking at the table, word-final 'm' becomes 'n'.

```python
action = BasicAction(predicates=[lambda x: x == 'm', lambda x: x == '@', lambda x: x == '#'], change_pos=[0], mapping_fn=[lambda x: 'n'])
```
"""

OVERSHOOT = """Every 'm' becomes 'n':

```python
action = BasicAction(predicates=[lambda x: x == 'm'], change_pos=[0], mapping_fn=[lambda x: 'n'])
```
"""

PROSE = "I am not sure how to express this transformation."


def test_full_induction_and_scoring(inv):
    task = induction_task(inv)
    prompt = build_sli_prompt(task)
    assert "# @ tʰ @ u @ m @ #" in prompt  # preprocessed row, multigraph intact
    assert "tʰum -> tʰun" in prompt

    gw = Gateway(GatewayConfig(), transport=scripted_transport([GOOD, OVERSHOOT, PROSE]))
    transcripts = gw.complete_prompt(prompt, n=3)
    assert len(transcripts) == 3

    candidates = []
    for t in transcripts:
        parsed = extract_programs(t, inv)
        candidates.append(list(parsed.laws) if parsed.laws else None)

    report = evaluation.evaluate_samples(task, candidates, inv)
    assert report.passed
    assert report.rewards[0] == 1  # the exact law
    # the overshooting law also fixes word-final m's but corrupts 'mamo'
    assert 0 < report.rewards[1] < 1
    assert report.rewards[2] == 0  # prose-only sample scores as a no-op
    assert report.reward_at_1 == 1
    assert report.reward_at_3 == Fraction(sum(report.rewards), 3)


def test_induction_loop_is_replayable(inv, tmp_path):
    task = induction_task(inv)
    prompt = build_sli_prompt(task)
    transport = scripted_transport([GOOD])
    live = Gateway(GatewayConfig(cache_dir=str(tmp_path)), transport=transport)
    first = live.complete_prompt(prompt, n=1)

    def refuse(endpoint, payload, headers, timeout):
        raise AssertionError("network touched in cache-only mode")

    offline = Gateway(
        GatewayConfig(cache_dir=str(tmp_path), cache_only=True), transport=refuse
    )
    replay = offline.complete_prompt(prompt, n=1)
    assert replay[0].text == first[0].text
    assert replay[0].cached


def test_gateway_module_extraction_marks_provenance(inv):
    gw = Gateway(GatewayConfig(), transport=scripted_transport(["text only, no code"]))
    prompt = gateway.build_datagen_prompt("rp-pi", [inv.segment(w) for w in ("sa", "ta", "ka", "ma", "na")])
    (t,) = gw.complete_prompt(prompt, n=1)
    parsed = extract_programs(t, inv)
    assert not parsed.laws and not parsed.diagnostics  # prose block, no constructors
