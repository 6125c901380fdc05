import json
import threading

import pytest

from soundlaw import gateway
from soundlaw.gateway import (
    BudgetExhausted,
    CacheMiss,
    Gateway,
    GatewayConfig,
    Transcript,
    WrongSeedCount,
    build_datagen_prompt,
    build_sli_prompt,
    extract_programs,
    load_fixtures,
    prompt_hash,
)
from soundlaw.tasks import PBETask

SLI_SECTION_MARKERS = [
    "You would like to implement a BasicAction",
    "A Basic Action is an object of the class BasicAction",
    "Here is a table of source words and target words BEFORE preprocess:",
    "Here are some examples of how actions can be implemented.",
    "Here is the definition of the BasicAction class:",
    "Additional instructions:",
]


def sample_task(inv):
    return PBETask(
        "p-0",
        "rp-ri",
        (inv.segment("am"), inv.segment("tap")),
        (inv.segment("em"), inv.segment("tap")),
        None,
        {},
    )


def ok_transport(content="hello"):
    calls = []

    def transport(endpoint, payload, headers, timeout):
        calls.append(payload)
        return 200, {
            "choices": [{"message": {"content": content}, "finish_reason": "stop"}],
            "usage": {"total_tokens": 7},
        }

    transport.calls = calls
    return transport


# -- prompts ------------------------------------------------------------------


def test_sli_prompt_sections_in_order(inv):
    prompt = build_sli_prompt(sample_task(inv))
    positions = [prompt.find(m) for m in SLI_SECTION_MARKERS]
    assert all(p >= 0 for p in positions)
    assert positions == sorted(positions)
    assert prompt.count(SLI_SECTION_MARKERS[0]) == 1


def test_sli_prompt_preprocessed_rows(inv):
    prompt = build_sli_prompt(sample_task(inv))
    assert "# @ a @ m @ #" in prompt
    assert "am -> em" in prompt


def test_prompt_hash_deterministic(inv):
    a = build_sli_prompt(sample_task(inv))
    b = build_sli_prompt(sample_task(inv))
    assert a == b and prompt_hash(a) == prompt_hash(b)


def test_datagen_prompt_terminal_words(inv):
    seeds = [inv.segment(w) for w in ("san", "an", "lam", "wam", "ap")]
    prompt = build_datagen_prompt("rp-pi", seeds)
    assert prompt.rstrip().endswith("Example nonsense words: ['s a n', 'a n', 'l a m', 'w a m', 'a p']")
    li = build_datagen_prompt("rp-li", seeds)
    assert "Now write more actions that follow this format:" in li


def test_datagen_prompt_seed_count(inv):
    with pytest.raises(WrongSeedCount):
        build_datagen_prompt("rp-pi", [inv.segment("a")] * 4)


def test_rp_li_prompt_matches_golden_template(inv):
    seeds = [inv.segment(w) for w in ("san", "an", "lam", "wam", "ap")]
    prompt = build_datagen_prompt("rp-li", seeds)
    golden = gateway.load_template("rp_li_datagen.txt").replace(
        "{input_words}", "['s a n', 'a n', 'l a m', 'w a m', 'a p']"
    )
    assert prompt == golden


# -- completion client -----------------------------------------------------------


PROMPT = "p"


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(gateway, "BACKOFF", 0.0)


def test_complete_returns_exactly_s_transcripts(tmp_path):
    transport = ok_transport()
    gw = Gateway(GatewayConfig(cache_dir=str(tmp_path)), transport=transport)
    transcripts = gw.complete_prompt(PROMPT, n=4)
    assert len(transcripts) == 4
    assert all(t.text == "hello" for t in transcripts)
    assert len(transport.calls) == 4  # one call per sample index


def test_second_request_served_from_cache(tmp_path):
    transport = ok_transport()
    gw = Gateway(GatewayConfig(cache_dir=str(tmp_path)), transport=transport)
    first = gw.complete_prompt(PROMPT, n=1)
    assert not first[0].cached
    again = gw.complete_prompt(PROMPT, n=1)
    assert again[0].cached and again[0].text == first[0].text
    assert len(transport.calls) == 1  # zero new network calls
    # byte-identical across the cached and live path
    assert again[0].text == first[0].text


def test_cache_only_miss(tmp_path):
    gw = Gateway(GatewayConfig(cache_dir=str(tmp_path), cache_only=True))
    with pytest.raises(CacheMiss):
        gw.complete_prompt(PROMPT, n=1)


def test_concurrent_cache_writers_of_one_key(tmp_path):
    writers = [Gateway(GatewayConfig(cache_dir=str(tmp_path))) for _ in range(2)]
    docs = [{"content": name * 2000, "finish_reason": "stop", "usage": {}} for name in "ab"]
    start = threading.Barrier(2)
    errors = []

    def write(gw, doc):
        start.wait(timeout=30)
        try:
            for _ in range(300):
                gw._cache_write("k", doc)
        except Exception as exc:  # a lost temp file or a half-written entry
            errors.append(exc)

    threads = [threading.Thread(target=write, args=pair) for pair in zip(writers, docs)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]  # no temp file left behind
    assert writers[0]._cache_read("k") in docs


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    transport = ok_transport()
    live = Gateway(GatewayConfig(cache_dir=str(tmp_path)), transport=transport)
    live.complete_prompt(PROMPT, n=1)
    (entry,) = tmp_path.iterdir()
    entry.write_text(entry.read_text()[:10])  # truncated JSON
    with pytest.raises(CacheMiss):
        Gateway(GatewayConfig(cache_dir=str(tmp_path), cache_only=True)).complete_prompt(PROMPT, n=1)
    live = Gateway(GatewayConfig(cache_dir=str(tmp_path)), transport=transport)
    (t,) = live.complete_prompt(PROMPT, n=1)
    assert t.text == "hello" and not t.cached
    assert len(transport.calls) == 2  # refetched
    assert json.loads(entry.read_text())["content"] == "hello"  # and overwritten


def test_fixture_store(tmp_path, inv):
    import hashlib

    prompt = "fixture prompt"
    phash = hashlib.sha256(prompt.encode()).hexdigest()
    path = tmp_path / "fx.jsonl"
    path.write_text(json.dumps({"prompt_hash": phash, "sample_index": 0, "content": "fixed"}) + "\n")
    gw = Gateway(GatewayConfig(cache_only=True), fixtures=load_fixtures(path))
    (t,) = gw.complete_prompt(prompt, n=1)
    assert t.text == "fixed" and t.cached


@pytest.mark.usefixtures("no_backoff")
def test_retry_then_success(tmp_path):
    state = {"n": 0}

    def flaky(endpoint, payload, headers, timeout):
        state["n"] += 1
        if state["n"] < 3:
            return 503, {}
        return 200, {"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]}

    gw = Gateway(GatewayConfig(cache_dir=str(tmp_path)), transport=flaky)
    (t,) = gw.complete_prompt(PROMPT, n=1)
    assert t.text == "ok" and state["n"] == 3


@pytest.mark.usefixtures("no_backoff")
def test_no_partial_results_on_midway_failure(tmp_path):
    state = {"n": 0}

    def fails_later(endpoint, payload, headers, timeout):
        state["n"] += 1
        if state["n"] >= 3:
            return 500, {}
        return 200, {"choices": [{"message": {"content": "x"}, "finish_reason": "stop"}]}

    gw = Gateway(
        GatewayConfig(cache_dir=str(tmp_path), retry_budget=0),
        transport=fails_later,
    )
    with pytest.raises(BudgetExhausted):
        gw.complete_prompt(PROMPT, n=5)


@pytest.mark.usefixtures("no_backoff")
def test_budget_exhausted():
    def always_down(endpoint, payload, headers, timeout):
        return 500, {}

    gw = Gateway(GatewayConfig(retry_budget=2), transport=always_down)
    with pytest.raises(BudgetExhausted):
        gw.complete_prompt(PROMPT, n=1)


def test_retries_wait_the_fixed_backoff_doubling(monkeypatch):
    waits = []
    monkeypatch.setattr(gateway.time, "sleep", waits.append)

    def always_busy(endpoint, payload, headers, timeout):
        return 429, {}

    gw = Gateway(GatewayConfig(retry_budget=3), transport=always_busy)
    with pytest.raises(BudgetExhausted):
        gw.complete_prompt(PROMPT, n=1)
    assert gateway.BACKOFF == 0.5
    assert waits == [0.5, 1.0, 2.0]


@pytest.mark.usefixtures("no_backoff")
def test_client_error_no_retry():
    calls = []

    def bad_request(endpoint, payload, headers, timeout):
        calls.append(1)
        return 400, {}

    gw = Gateway(GatewayConfig(retry_budget=3), transport=bad_request)
    with pytest.raises(gateway.GatewayError):
        gw.complete_prompt(PROMPT, n=1)
    assert len(calls) == 1


@pytest.mark.usefixtures("no_backoff")
def test_failed_fetch_leaves_the_key_free():
    statuses = [400, 200]
    calls = []

    def bad_then_ok(endpoint, payload, headers, timeout):
        calls.append(1)
        return statuses[len(calls) - 1], {
            "choices": [{"message": {"content": "second"}, "finish_reason": "stop"}]
        }

    gw = Gateway(GatewayConfig(retry_budget=3), transport=bad_then_ok)
    with pytest.raises(gateway.GatewayError):
        gw.complete_prompt(PROMPT, n=1)
    (t,) = gw.complete_prompt(PROMPT, n=1)
    assert t.text == "second" and not t.cached
    assert len(calls) == 2


class HtmlResponse:
    def __init__(self, status_code):
        self.status_code = status_code
        self.content = b"<html><body>denied</body></html>"

    def json(self):
        return json.loads(self.content)


@pytest.mark.usefixtures("no_backoff")
@pytest.mark.parametrize(
    "status, error, calls",
    [(401, gateway.GatewayError, 1), (503, BudgetExhausted, 3), (200, gateway.GatewayError, 1)],
)
def test_http_transport_non_json_body_lets_the_status_decide(monkeypatch, status, error, calls):
    posted = []

    def post(endpoint, json=None, headers=None, timeout=None):
        posted.append(endpoint)
        return HtmlResponse(status)

    monkeypatch.setattr("requests.post", post)
    gw = Gateway(GatewayConfig(retry_budget=2))
    with pytest.raises(error) as info:
        gw.complete_prompt(PROMPT, n=1)
    assert len(posted) == calls
    if status != 503:
        assert type(info.value) is gateway.GatewayError and info.value.status == status


def test_coalescing_without_disk_cache():
    calls = []

    def slow(endpoint, payload, headers, timeout):
        calls.append(1)
        import time

        time.sleep(0.03)
        return 200, {"choices": [{"message": {"content": "memo"}, "finish_reason": "stop"}]}

    gw = Gateway(GatewayConfig(), transport=slow)  # no cache_dir
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(gw.complete_prompt(PROMPT, n=1)[0].text))
        for _ in range(4)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert results == ["memo"] * 4
    assert len(calls) == 1


def test_concurrent_identical_requests_coalesce(tmp_path):
    lock = threading.Lock()
    calls = []

    def slow(endpoint, payload, headers, timeout):
        with lock:
            calls.append(1)
        import time

        time.sleep(0.05)
        return 200, {"choices": [{"message": {"content": "one"}, "finish_reason": "stop"}]}

    gw = Gateway(GatewayConfig(cache_dir=str(tmp_path)), transport=slow)
    results = []

    def worker():
        results.append(gw.complete_prompt(PROMPT, n=1)[0].text)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert results == ["one"] * 4
    assert len(calls) == 1


# -- program extraction -----------------------------------------------------------


def test_extract_programs(inv):
    text = """Some prose.

```python
action = BasicAction(predicates=[lambda x: x == 'a'], change_pos=[0], mapping_fn=[lambda x: 'e'])
```

```python
action = BasicAction(predicates=[lambda x: x == 't'], change_pos=[0], mapping_fn=[lambda x: '!'])
```
"""
    parsed = extract_programs(Transcript(text, prompt_hash="ff" * 32, sample_index=3), inv)
    assert len(parsed.laws) == 2


def test_extract_programs_prose_only(inv):
    parsed = extract_programs(Transcript("nothing to see"), inv)
    assert not parsed.laws


def test_extract_programs_redefinition_diagnostic(inv):
    text = (
        "class BasicAction:\n    pass\n\n"
        "BasicAction(predicates=[lambda x: x == 'a'], change_pos=[0], mapping_fn=[lambda x: 'e'])\n"
    )
    parsed = extract_programs(Transcript(text), inv)
    assert len(parsed.laws) == 1
    assert any(d.code == "redefinition" for d in parsed.diagnostics)


def test_wire_contract_and_cache_file_names(monkeypatch, tmp_path):
    monkeypatch.setenv("SOUNDLAW_API_KEY", "sk-test")
    seen = []

    def transport(endpoint, payload, headers, timeout):
        seen.append((endpoint, payload, headers))
        return 200, {"choices": [{"message": {"content": "ok"}}]}

    gw = Gateway(GatewayConfig(cache_dir=str(tmp_path)), transport=transport)
    transcripts = gw.complete_prompt("p", n=2)
    assert [t.text for t in transcripts] == ["ok", "ok"]
    assert len(seen) == 2
    for endpoint, payload, headers in seen:
        assert endpoint == GatewayConfig.endpoint
        assert headers["Authorization"] == "Bearer sk-test"
        assert payload == {
            "model": GatewayConfig.model,
            "messages": [{"role": "user", "content": "p"}],
            "temperature": GatewayConfig.temperature,
            "max_tokens": GatewayConfig.max_tokens,
            "n": 1,
        }
    # the cache key's JSON must not move, so caches written earlier keep hitting
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "24941f78e8a076c9dec0a2a9770c72fb8e92a655987ac06097ce43a081762767.json",
        "ed74810c3713c474cb598031aba1d52b092b255ba1cce1a83c3bb3cf58ffbf56.json",
    ]
    with pytest.raises(gateway.GatewayError, match="sample count must be >= 1"):
        gw.complete_prompt("p", n=0)
