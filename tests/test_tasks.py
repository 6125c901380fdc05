import json

import pytest

from soundlaw.dsl import SchemaError, lower_classical, parse_classical
from soundlaw.tasks import (
    PBETask,
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
