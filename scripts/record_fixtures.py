"""Regenerate the recorded rp-li transcripts used by the offline replay test.

Runs the rp-li generator against a scripted responder, records each
(prompt_hash, sample_index, content) pair, and writes the fixture JSONL.
Prints the SHA-256 of the corpus the replay produces so the frozen hash in
tests/test_acceptance.py can be updated after any template change.

Usage: python scripts/record_fixtures.py
"""

import hashlib
import json
import sys
from pathlib import Path

from soundlaw import datagen, gateway
from soundlaw.phonology import default_inventory, load_lexicon
from soundlaw.tasks import write_tasks
from importlib.resources import files

FIXTURE_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "rp_li_fixtures.jsonl"
SEED = 11
COUNT = 5

RESPONSES = [
    """Sure! Here are some more actions with nonce inputs where they apply.

```python
action = BasicAction(predicates=[lambda x: x == 's', lambda x: x == '@', lambda x: x == 'a'], change_pos=[0], mapping_fn=[lambda x: 'z'])
nonce_inputs = ['trisaldo', 'velsatin', 'morsaque']
```

where the first predicate checks for 's' followed by 'a'.

```python
action = BasicAction(predicates=[lambda x: x == 'o', lambda x: x == '@', lambda x: x == '#'], change_pos=[0], mapping_fn=[lambda x: '!'])
nonce_inputs = ['blento', 'gravosto', 'miskango']
```
""",
    """Here are more diverse actions:

```python
action = BasicAction(predicates=[lambda x: x == '#', lambda x: x == '@', lambda x: x in ['p', 't', 'k']], change_pos=[2], mapping_fn=[lambda x: x+'r'])
nonce_inputs = ['pandove', 'tolvane', 'kimbresh']
```

This one adds 'r' after a word-initial stop. Another action deletes a
word-final 'n' when it follows a vowel:

```python
action = BasicAction(predicates=[lambda x: x in ['a','e','i','o','u'], lambda x: x == '@', lambda x: x == 'n', lambda x: x == '@', lambda x: x == '#'], change_pos=[2], mapping_fn=[lambda x: '!'])
nonce_inputs = ['cravolin', 'deslamon', 'bintrassen']
```
""",
    """One more batch. First an action replacing 'e' with 'i' before 'l':

```python
action = BasicAction(predicates=[lambda x: x == 'e', lambda x: x == '@', lambda x: x == 'l'], change_pos[0], mapping_fn=[lambda x: 'i'])
nonce_inputs = ['trogelda', 'velmoure', 'beltraski']
```

And an action turning any vowel before a word-final 's' into 'u':

```python
action = BasicAction(predicates=[lambda x: x in ['a','e','i','o'], lambda x: x == '@', lambda x: x == 's', lambda x: x == '@', lambda x: x == '#'], change_pos=[0], mapping_fn=[lambda x: 'u'])
nonce_inputs = ['morvanes', 'tulestis', 'grandelos']
```
""",
]


class RecordingGateway(gateway.Gateway):
    """Serves scripted transcripts and records what was served."""

    def __init__(self, responses):
        super().__init__(gateway.GatewayConfig(cache_only=False))
        self.responses = list(responses)
        self.round = 0
        self.recorded = []

    def complete_prompt(self, prompt, n):
        content = self.responses[self.round % len(self.responses)]
        self.round += 1
        digest = gateway.prompt_hash(prompt)
        self.recorded.append({"prompt_hash": digest, "sample_index": 0, "content": content})
        return [gateway.Transcript(content, False, digest, 0)]


def main():
    inv = default_inventory()
    pool = load_lexicon(files("soundlaw") / "data" / "nonce_words.txt", inv)
    cfg = datagen.GenConfig(seed=SEED)

    recorder = RecordingGateway(RESPONSES)
    tasks = datagen.gen_llm_tasks("rp-li", recorder, pool, cfg, COUNT, inv)

    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        for doc in recorder.recorded:
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")
    print(f"wrote {len(recorder.recorded)} fixtures to {FIXTURE_PATH}")

    # replay through the fixture path and hash the corpus
    replay_gw = gateway.Gateway(
        gateway.GatewayConfig(cache_only=True), fixtures=gateway.load_fixtures(FIXTURE_PATH)
    )
    replay = datagen.gen_llm_tasks("rp-li", replay_gw, pool, cfg, COUNT, inv)
    out = FIXTURE_PATH.parent / "tmp_replay.jsonl"
    write_tasks(out, replay)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    assert [t.id for t in replay] == [t.id for t in tasks]
    print(f"replay corpus sha256: {digest}")
    print(f"tasks: {len(replay)}, examples per task: {[t.n_examples for t in replay]}")


if __name__ == "__main__":
    sys.exit(main())
