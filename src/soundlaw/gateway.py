"""Prompt assembly and the chat-completion client.

Prompts render deterministically, as plain text, from the versioned
templates in soundlaw/templates; `prompt_hash(text)` is the one sha256 that
keys recorded fixtures and the disk cache.  `Gateway.complete_prompt(prompt,
n)` is the one way to ask for completions; every request setting comes from
`GatewayConfig`, whose fields are exactly the keys a `--config` file may
set, and the API key is read from the fixed environment variable
SOUNDLAW_API_KEY.  Completions go through a content-addressed disk cache
(plus optional recorded fixture transcripts), so whole experiments replay
offline byte-for-byte; live calls hit any OpenAI-compatible endpoint, and a
429 or 5xx status is retried after a fixed 0.5 s backoff that doubles on
each further retry.

Model output is interpreted through the closed constructor grammar only;
no transcript content is ever executed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

from .dsl import Diagnostic, ParsedProgramSet, extract_code_blocks, json_field, parse_program_text
from .phonology import SegmentInventory, preprocess
from .tasks import PBETask, read_jsonl, word_to_str

ADDITIONAL_INSTRUCTIONS = (
    "Do not import any other packages. Do not modify or repeat the definition "
    "of the BasicAction class. Return each action as python code in the format "
    "shown by the examples."
)


class GatewayError(Exception):
    def __init__(self, message: str, status: int | None = None):
        self.status = status
        super().__init__(message)


class CacheMiss(GatewayError):
    pass


class BudgetExhausted(GatewayError):
    pass


class WrongSeedCount(GatewayError):
    pass


def load_template(name: str) -> str:
    """The text of one file in soundlaw/templates."""
    return (files("soundlaw") / "templates" / name).read_text("utf-8")


def prompt_hash(text: str) -> str:
    """The sha256 that keys a prompt's recorded fixtures and its cache entries."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _word_list_literal(words) -> str:
    return "[" + ", ".join("'" + word_to_str(w) + "'" for w in words) + "]"


def build_datagen_prompt(kind: str, seed_words) -> str:
    """Render the rp-li / rp-pi generation prompt for five seed words."""
    template = {"rp-li": "rp_li_datagen.txt", "rp-pi": "rp_pi_datagen.txt"}.get(kind)
    if template is None:
        raise GatewayError(f"unknown datagen prompt kind {kind!r}")
    seed_words = list(seed_words)
    if len(seed_words) != 5:
        raise WrongSeedCount(f"datagen prompts take exactly 5 seed words, got {len(seed_words)}")
    return load_template(template).replace("{input_words}", _word_list_literal(seed_words))


def build_sli_prompt(task: PBETask) -> str:
    """Render the six-section single-law induction prompt for one task."""
    before = "\n".join(
        f"{''.join(src)} -> {''.join(tgt)}" for src, tgt in zip(task.inputs, task.outputs)
    )
    after = "\n".join(
        f"{' '.join(preprocess(src))} -> {' '.join(preprocess(tgt))}"
        for src, tgt in zip(task.inputs, task.outputs)
    )
    bindings = {
        "word_list": before,
        "processed_word_list": after,
        "basic_action_demonstration": load_template("sli_demos.txt").strip(),
        "basic_action_code": load_template("basic_action.py.txt").strip(),
        "additional_instructions": ADDITIONAL_INSTRUCTIONS,
    }
    text = load_template("sli_prompt.txt")
    for key, value in bindings.items():
        text = text.replace("{" + key + "}", value)
    return text


# the environment variable holding the endpoint's API key, the seconds one
# HTTP request may take, and the seconds before the first retry (doubled on
# each retry after it)
API_KEY_ENV = "SOUNDLAW_API_KEY"
TIMEOUT = 120.0
BACKOFF = 0.5


@dataclass(frozen=True)
class GatewayConfig:
    endpoint: str = "http://localhost:8000/v1/chat/completions"
    model: str = "codestral-22b"
    temperature: float = 0.8
    max_tokens: int = 1024
    retry_budget: int = 3
    cache_dir: str | None = None
    cache_only: bool = False


@dataclass(frozen=True)
class Transcript:
    text: str
    cached: bool = False
    prompt_hash: str = ""
    sample_index: int = 0


def _http_transport(endpoint: str, payload: dict, headers: dict, timeout: float):
    import requests

    resp = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
    try:
        body = resp.json()
    except ValueError:  # an HTML error page or an empty body: the status decides
        body = {}
    return resp.status_code, body


def load_fixtures(path) -> dict[tuple[str, int], str]:
    """Recorded transcripts: JSONL of {prompt_hash, sample_index, content}
    (see `read_jsonl`); a later line wins over an earlier one with the same key."""

    def parse(doc):
        key = json_field(doc, "prompt_hash", str), json_field(doc, "sample_index", int)
        return key, json_field(doc, "content", str)

    return dict(read_jsonl(path, parse, f"{path} line"))


class Gateway:
    """Completion client with fixtures, disk cache, and retries."""

    def __init__(self, config: GatewayConfig | None = None, transport=None, fixtures=None):
        self.config = config or GatewayConfig()
        self.transport = transport or _http_transport
        self.fixtures: dict[tuple[str, int], str] = dict(fixtures or {})
        # held from lookup to store, so identical concurrent requests make one
        # network call; the memo keeps that true without a disk cache
        self._lock = threading.Lock()
        self._memo: dict[str, dict] = {}

    # -- cache ------------------------------------------------------------

    def _cache_key(self, digest: str, index: int) -> str:
        payload = json.dumps(
            {
                "endpoint": self.config.endpoint,
                "model": self.config.model,
                "temperature": self.config.temperature,
                "max_tokens": self.config.max_tokens,
                "prompt": digest,
                "sample": index,
            },
            sort_keys=True,
        )
        return prompt_hash(payload)

    def _cache_path(self, key: str) -> Path | None:
        if not self.config.cache_dir:
            return None
        return Path(self.config.cache_dir) / f"{key}.json"

    def _cache_read(self, key: str) -> dict | None:
        """The stored document, or None when absent or unreadable: a corrupt
        entry counts as a miss and is overwritten once refetched."""
        path = self._cache_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return doc if isinstance(doc, dict) and "content" in doc else None

    def _cache_write(self, key: str, doc: dict) -> None:
        """Write through a unique temp file and an atomic rename, so
        concurrent writers of one key never interleave."""
        path = self._cache_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, ensure_ascii=False)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    # -- completion -------------------------------------------------------

    def _call_network(self, prompt: str) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
            "n": 1,
        }
        last_error: str = "no attempt made"
        for attempt in range(self.config.retry_budget + 1):
            if attempt:
                time.sleep(BACKOFF * (2 ** (attempt - 1)))
            try:
                status, body = self.transport(self.config.endpoint, payload, headers, TIMEOUT)
            except Exception as exc:  # transport-level failure: retry
                last_error = str(exc)
                continue
            if status == 200:
                try:
                    choice = body["choices"][0]
                    return {
                        "content": choice["message"]["content"],
                        "finish_reason": choice.get("finish_reason", "stop"),
                        "usage": body.get("usage", {}),
                    }
                except (KeyError, IndexError, TypeError) as exc:
                    raise GatewayError(f"malformed completion response: {exc}", status)
            if status in (429,) or status >= 500:
                last_error = f"HTTP {status}"
                continue
            raise GatewayError(f"completion request failed: HTTP {status}", status)
        raise BudgetExhausted(f"retry budget exhausted ({last_error})")

    def _one_sample(self, prompt: str, digest: str, index: int) -> Transcript:
        fixture = self.fixtures.get((digest, index))
        if fixture is not None:
            return Transcript(fixture, True, digest, index)
        key = self._cache_key(digest, index)
        with self._lock:
            doc = self._memo.get(key) or self._cache_read(key)
            cached = doc is not None
            if not cached:
                if self.config.cache_only:
                    raise CacheMiss(f"no cached transcript for prompt {digest[:12]} sample {index}")
                doc = self._call_network(prompt)
                self._memo[key] = doc
                self._cache_write(key, doc)
        return Transcript(doc["content"], cached, digest, index)

    def complete_prompt(self, prompt: str, n: int) -> list[Transcript]:
        """Exactly n transcripts of one prompt, or an exception — never partial."""
        if n < 1:
            raise GatewayError("sample count must be >= 1")
        digest = prompt_hash(prompt)
        return [self._one_sample(prompt, digest, i) for i in range(n)]


def extract_programs(transcript: Transcript, inv: SegmentInventory) -> ParsedProgramSet:
    """Code blocks -> constructor grammar -> laws, diagnostics preserved."""
    blocks, fence_diags = extract_code_blocks(transcript.text)
    entries = []
    diagnostics = list(fence_diags)
    for block in blocks:
        parsed = parse_program_text(block, inv)
        entries.extend(parsed.entries)
        diagnostics.extend(parsed.diagnostics)
    if transcript.prompt_hash:
        diagnostics = [
            Diagnostic(d.code, f"[{transcript.prompt_hash[:12]}#{transcript.sample_index}] {d.message}", d.span)
            for d in diagnostics
        ]
    return ParsedProgramSet(tuple(entries), tuple(diagnostics))
