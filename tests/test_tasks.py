import concurrent.futures
import json

import pytest

from soundlaw.dsl import SchemaError, lower_classical, parse_classical
from soundlaw.tasks import (
    PBETask,
    map_in_order,
    read_tasks,
    task_from_doc,
    task_to_json,
    validate_task,
    word_to_str,
    str_to_word,
    write_tasks,
)


def make_task(inv, ident="t-0"):
    law = lower_classical(parse_classical("t > d / _ #"), inv)
    inputs = (inv.segment("sunt"), inv.segment("tapere"))
    outputs = (inv.segment("sund"), inv.segment("tapere"))
    return PBETask(ident, "rp-ri", inputs, outputs, law, {"seed": 1, "source": {"generator": "x"}})


def test_word_serialization():
    assert word_to_str(("tʰ", "u", "m")) == "tʰ u m"
    assert str_to_word("tʰ u m") == ("tʰ", "u", "m")
    assert str_to_word("") == ()


def test_length_mismatch_rejected(inv):
    with pytest.raises(SchemaError):
        PBETask("x", "rp-ri", (("a",),), (), None, {})


def test_json_roundtrip(inv):
    task = make_task(inv)
    assert task_from_doc(json.loads(task_to_json(task))) == task


def test_file_roundtrip_bytes(tmp_path, inv):
    tasks = [make_task(inv, f"t-{i}") for i in range(4)]
    path = tmp_path / "tasks.jsonl"
    write_tasks(path, tasks)
    first = path.read_bytes()
    again = read_tasks(path)
    write_tasks(path, again)
    assert path.read_bytes() == first
    assert again == tasks


def test_read_rejects_bad_line(tmp_path, inv):
    path = tmp_path / "tasks.jsonl"
    path.write_text('{"id": "a", "condition": "rp-ri", "inputs": ["a"], "outputs": []}\n')
    with pytest.raises(SchemaError) as err:
        read_tasks(path)
    assert "line 1" in str(err.value)


def test_read_rejects_repeated_task_id(tmp_path, inv):
    path = tmp_path / "tasks.jsonl"
    write_tasks(path, [make_task(inv, "t-0"), make_task(inv, "t-1"), make_task(inv, "t-0")])
    with pytest.raises(SchemaError) as err:
        read_tasks(path)
    assert str(err.value) == "line 3: task id 't-0' repeats line 1"


def test_validation_surfaces_disagreement(inv):
    task = make_task(inv)
    broken = PBETask(
        task.id, task.condition, task.inputs, (inv.segment("sunt"), inv.segment("tapere")),
        task.gold_law, task.provenance,
    )
    warnings = validate_task(broken, inv)
    assert any("disagree" in w for w in warnings)
    assert not validate_task(task, inv)


def test_validation_flags_inert_gold(inv):
    law = lower_classical(parse_classical("t > d / _ #"), inv)
    task = PBETask(
        "i-0", "rp-ri", (inv.segment("ma"),), (inv.segment("ma"),), law, {}
    )
    warnings = validate_task(task, inv)
    assert any("inert" in w for w in warnings)


@pytest.mark.parametrize("count, jobs, workers", [(10, 16, 10), (5, 4, 3), (4, 3, 2), (100, 2, 2), (9, 4, 3)])
def test_map_in_order_starts_one_worker_per_chunk(monkeypatch, count, jobs, workers):
    """The pool gets no more workers than chunks; a fake executor records
    the request and maps in this process, so no process starts."""
    requests = []

    class InProcessPool:
        def __init__(self, max_workers):
            requests.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            chunks = [items[i:i + chunksize] for i in range(0, len(items), chunksize)]
            assert len(chunks) == max(requests)
            return [fn(x) for chunk in chunks for x in chunk]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert map_in_order(str, range(count), jobs) == [str(x) for x in range(count)]
    assert requests == [workers]
