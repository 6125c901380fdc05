import dataclasses
import functools
import hashlib
import io
import json
from importlib.resources import files
from pathlib import Path

import pytest

from soundlaw import kernels
from soundlaw.cli import main
from soundlaw.tasks import read_tasks

FIXTURES = Path(__file__).parent / "data" / "rp_li_fixtures.jsonl"
DEMO_CASCADE = files("soundlaw") / "data" / "demo_cascade.rules"
DEMO_LEXICON = files("soundlaw") / "data" / "demo_lexicon.txt"


def run(*argv):
    return main([str(a) for a in argv])


def test_tokenize(capsys):
    assert run("tokenize", "tʰum", "tsar") == 0
    out = capsys.readouterr().out
    assert out == "tʰ u m\nts a r\n"


def test_tokenize_preprocessed(capsys):
    assert run("tokenize", "--preprocessed", "am") == 0
    assert capsys.readouterr().out == "# @ a @ m @ #\n"


def test_apply_inline_rule(capsys):
    assert run("apply", "-r", "t > d / _ #", "sunt", "tapere") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["s u n t\ts u n d", "t a p e r e\tt a p e r e"]


def test_apply_malformed_rule_exit_2(capsys):
    assert run("apply", "-r", "t d / _", "sunt") == 2


def test_apply_unsegmentable_word_exit_2(capsys):
    assert run("apply", "-r", "t > d / _ #", "sunt9") == 2


def test_tokenize_table_with_a_spaced_symbol_exit_3(tmp_path, capsys):
    table = tmp_path / "table.tsv"
    table.write_text("segment\tsyl\na\t+\nt s\t-\n", encoding="utf-8")
    assert run("tokenize", "--table", table, "tsa") == 3
    assert "MalformedRow" in capsys.readouterr().err


@pytest.mark.parametrize("rows, count", [("", 0), ("a\t+\n", 1)], ids=["header only", "one segment"])
def test_rp_ri_on_a_table_of_fewer_than_two_segments_exit_5(tmp_path, capsys, rows, count):
    table = tmp_path / "table.tsv"
    table.write_text("segment\tsyl\n" + rows, encoding="utf-8")
    assert run("datagen", "--condition", "rp-ri", "--count", "3", "--table", table, "--out", tmp_path / "t.jsonl") == 5
    assert capsys.readouterr().err == (
        "error: GenerationError: rp-ri needs two segments to draw a replacement unlike a literal slot's"
        f" phone; the feature table has {count}\n"
    )
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("args, field", [
    (("--count", "-1"), "count must be >= 0"),
    (("--count", "3", "--retry-budget", "0"), "retry_budget must be >= 1"),
    (("--count", "3", "--retry-budget", "-3"), "retry_budget must be >= 1"),
], ids=["negative-count", "no-retry", "negative-retry-budget"])
def test_datagen_rejects_a_negative_count_and_a_retry_budget_below_1_exit_5(tmp_path, capsys, args, field):
    assert run("datagen", "--condition", "rp-ri", *args, "--out", tmp_path / "t.jsonl") == 5
    assert capsys.readouterr().err == f"error: GenerationError: {field}\n"
    assert not (tmp_path / "t.jsonl").exists()


def test_datagen_of_no_task_writes_an_empty_file(tmp_path):
    assert run("datagen", "--condition", "rp-ri", "--count", "0", "--out", tmp_path / "t.jsonl") == 0
    assert (tmp_path / "t.jsonl").read_bytes() == b""


@pytest.mark.parametrize("condition", ["rp-li", "rp-pi"])
def test_llm_datagen_on_a_seed_lexicon_of_fewer_than_five_words_exit_5(tmp_path, capsys, condition):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("sunt\ntapere\nam\n", encoding="utf-8")
    argv = ("datagen", "--condition", condition, "--cache-only", "--fixtures", FIXTURES, "--count", "2",
            "--seed-lexicon", seeds, "--out", tmp_path / "t.jsonl")
    assert run(*argv) == 5
    assert capsys.readouterr().err == (
        f"error: GenerationError: {condition} prompts take 5 seed words; the seed pool holds 3\n"
    )
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("argv, first_line", [
    (("tokenize", "--lexicon", "in.txt"), "sunt"),
    (("derive", "sunt", "--cascade", "in.txt"), "t > d / _ #"),
    (("tokenize", "a", "--table", "in.txt"), "segment\tsyl"),
    (("datagen", "--condition", "idp-pi", "--count", "1", "--out", "x.jsonl", "--rules", "in.txt"),
     "t > d / _ #"),
    (("datagen", "--condition", "rp-li", "--cache-only", "--fixtures", FIXTURES, "--count", "1",
      "--out", "x.jsonl", "--seed-lexicon", "in.txt"), "sunt"),
    (("apply", "sunt", "--law-file", "in.txt"), "t > d / _ #"),
    (("parse-law", "--input", "in.txt"), "t > d / _ #"),
], ids=["lexicon", "cascade", "table", "rules", "seed-lexicon", "law-file", "parse-law-input"])
def test_text_input_that_is_no_utf_8_exit_2(argv, first_line, tmp_path, monkeypatch, capsys):
    """A byte that is no UTF-8 exited 3 with a bare UnicodeDecodeError."""
    monkeypatch.chdir(tmp_path)
    Path("in.txt").write_bytes(first_line.encode() + b"\n\xff\n")
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: UndecodableText: in.txt line 2: ")
    assert not Path("x.jsonl").exists()


@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"), ("directory", "Is a directory")],
                         ids=["missing", "directory"])
@pytest.mark.parametrize("argv", [
    ("tokenize", "--lexicon", "in.txt"),
    ("tokenize", "a", "--table", "in.txt"),
    ("apply", "sunt", "--law-file", "in.txt"),
    ("apply", "-r", "t > d / _ #", "--lexicon", "in.txt"),
    ("derive", "sunt", "--cascade", "in.txt"),
    ("derive", "--cascade", DEMO_CASCADE, "--lexicon", "in.txt"),
    ("parse-law", "--input", "in.txt"),
    ("datagen", "--condition", "rp-ri", "--count", "1", "--out", "x.jsonl", "--config", "in.txt"),
    ("datagen", "--condition", "rp-li", "--cache-only", "--count", "1", "--out", "x.jsonl", "--fixtures", "in.txt"),
    ("datagen", "--condition", "rp-li", "--cache-only", "--fixtures", FIXTURES, "--count", "1",
     "--out", "x.jsonl", "--seed-lexicon", "in.txt"),
    ("datagen", "--condition", "idp-pi", "--count", "1", "--out", "x.jsonl", "--rules", "in.txt"),
    ("datagen", "--condition", "idp-pi", "--count", "1", "--out", "x.jsonl", "--lexicon", "in.txt"),
    ("bench", "--out", "x.jsonl", "--cascade", "in.txt"),
    ("bench", "--out", "x.jsonl", "--lexicon", "in.txt"),
    ("eval", "--out", "x", "--samples", "samples.jsonl", "--tasks", "in.txt"),
    ("eval", "--out", "x", "--tasks", "tasks.jsonl", "--samples", "in.txt"),
    ("stats", "-y", "y.json", "-x", "in.txt"),
    ("stats", "-x", "y.json", "-y", "in.txt"),
    ("report", "--eval", "in.txt"),
], ids=["tokenize-lexicon", "table", "law-file", "apply-lexicon", "derive-cascade", "derive-lexicon",
        "parse-law-input", "config", "fixtures", "seed-lexicon", "rules", "datagen-lexicon", "bench-cascade",
        "bench-lexicon", "tasks", "samples", "stats-x", "stats-y", "report-eval"])
def test_input_file_that_cannot_be_opened_exit_2(argv, kind, reason, tmp_path, monkeypatch, capsys):
    """A missing input file exited 3 with a bare FileNotFoundError."""
    monkeypatch.chdir(tmp_path)
    Path("tasks.jsonl").write_text('{"id": "x", "condition": "rp-ri", "inputs": ["a"], "outputs": ["e"]}\n')
    Path("samples.jsonl").write_text('{"task_id": "x", "sample_index": 0, "program": null}\n')
    Path("y.json").write_text("[1.0, 2.0]")
    if kind == "directory":
        Path("in.txt").mkdir()
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: UnreadableInput: in.txt: {reason}\n"
    assert not Path("x.jsonl").exists() and not Path("x.json").exists()


def test_apply_empty_lexicon(tmp_path, capsys):
    lex = tmp_path / "empty.txt"
    lex.write_text("")
    assert run("apply", "-r", "t > d / _ #", "--lexicon", lex) == 0
    assert capsys.readouterr().out == ""


def test_derive_trace(tmp_path, capsys):
    cascade = tmp_path / "c.rules"
    cascade.write_text("a > e / _ #\ne > i / _ #\n")
    assert run("derive", "--cascade", cascade, "--trace", "ta", "ko") == 0
    out = capsys.readouterr().out
    assert "t a\tt i" in out
    assert "== a > e / _ #" in out


def test_parse_law_roundtrip(capsys):
    assert run("parse-law", "-r", "a > e / _ j") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["change_pos"] == [0]


def test_parse_law_constructor(capsys):
    text = "BasicAction(predicates=[lambda x: x == 'a'], change_pos=[0], mapping_fn=[lambda x: 'e'])"
    assert run("parse-law", "-r", text) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["predicates"] == [{"kind": "is", "args": ["a"]}]


@pytest.mark.parametrize(
    "argv",
    [("-r", ""), ("-r", "# a comment only\n\n"), ("--input", "comments.rules")],
    ids=["empty-rule", "comment-rule", "comment-file"],
)
def test_parse_law_without_rule_line_exit_2(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "comments.rules").write_text("# a comment\n\n   \n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("a > e / _ j\n"))  # must stay unread
    assert run("parse-law", *argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("encoding, errors", [("utf-8", "strict"), ("ascii", "surrogateescape")],
                         ids=["utf-8-locale", "posix-locale"])
def test_parse_law_stdin_is_read_as_utf_8_whatever_the_locale(encoding, errors, monkeypatch, capsys):
    """parse-law decodes its stdin bytes as `read_text` decodes a file: a
    byte that is no UTF-8 exits 2 naming <stdin> and its line, under either
    locale's decoder, and '\\r\\n' and '\\r' end lines."""
    def stdin(data):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding=encoding, errors=errors))

    stdin(b"# l\xc3\xa4ut\r\na > e / _ j\r\n\r\n\xc9\x99 > e / _ #\r")
    assert run("parse-law") == 0
    laws = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [doc["mappings"][0]["phones"] for doc in laws] == [["e"], ["e"]]
    assert laws[1]["predicates"][0]["args"] == ["ə"]
    stdin(b"a > e / _ j\n\na > e / _ \xff\n")
    assert run("parse-law") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: UndecodableText: <stdin> line 3: ") and captured.out == ""


@pytest.mark.parametrize("text", ["# a comment only\n\n", "[]\n"], ids=["comment-only", "empty-array"])
@pytest.mark.parametrize("command", ["derive", "bench"])
def test_cascade_holding_no_law_exit_2(command, text, tmp_path, capsys):
    cascade = tmp_path / "empty.rules"
    cascade.write_text(text)
    out = tmp_path / "x.jsonl"
    argv = ("derive", "--cascade", cascade, "tap") if command == "derive" else (
        "bench", "--cascade", cascade, "--out", out)
    assert run(*argv) == 2
    assert "no parseable law" in capsys.readouterr().err
    assert not out.exists()


def test_parse_law_output_is_law_text_to_every_command(tmp_path, capsys):
    """parse-law prints one JSON law per line; parse-law, apply, derive and
    bench read those lines with the outputs of the classical source."""
    classical = tmp_path / "c.rules"
    classical.write_text(DEMO_CASCADE.read_text(encoding="utf-8"), encoding="utf-8")
    assert run("parse-law", "--input", classical) == 0
    lines = capsys.readouterr().out
    docs = tmp_path / "c.jsonl"
    docs.write_text(lines, encoding="utf-8")
    assert run("parse-law", "--input", docs) == 0
    assert capsys.readouterr().out == lines
    first = tmp_path / "first.jsonl"
    first.write_text(lines.splitlines()[0] + "\n", encoding="utf-8")
    applied = []
    for argv in (("--law-file", first), ("-r", "k > ʔ / _ #")):
        assert run("apply", *argv, "kak", "sunt") == 0
        applied.append(capsys.readouterr().out)
    assert applied == ["k a k\tk a ʔ\ns u n t\ts u n t\n"] * 2
    outputs = []
    for cascade in (classical, docs):
        assert run("derive", "--cascade", cascade, "--lexicon", DEMO_LEXICON) == 0
        out = tmp_path / f"{cascade.suffix[1:]}.bench.jsonl"
        assert run("bench", "--cascade", cascade, "--out", out) == 0
        tasks = [(t.id, t.inputs, t.outputs, t.gold_law) for t in read_tasks(out)]
        outputs.append((capsys.readouterr().out, tasks))
    assert outputs[0] == outputs[1] and len(outputs[0][1]) == 10


T_D_JSON = (
    '{"predicates": [{"kind": "is", "args": ["t"]}, {"kind": "is", "args": ["@"]}, '
    '{"kind": "is", "args": ["#"]}], "change_pos": [0], "mappings": [{"kind": "replace", "phones": ["d"]}]}'
)
# a slot that matches only '#', at the change position
EDIT_ON_BOUNDARY_JSON = (
    '{"predicates": [{"kind": "not-class", "args": ["is_not_boundary"]}], "change_pos": [0], '
    '"mappings": [{"kind": "replace", "phones": ["a"]}]}'
)
T_D_CONSTRUCTOR = (
    "BasicAction(predicates=[lambda x: x == 't', lambda x: x == '@', lambda x: x == '#'], "
    "change_pos=[0], mapping_fn=[lambda x: 'd'])\n"
)


@pytest.mark.parametrize(
    "command, text, code, err",
    [
        ("apply", f"[{T_D_JSON}]", 0, ""),
        ("apply", "a > e / _ j\nt > d / _ #\n", 2, "apply takes one law, the text holds 2"),
        ("apply", f"{T_D_JSON}\n{T_D_JSON}\n", 2, "apply takes one law, the text holds 2"),
        ("apply", EDIT_ON_BOUNDARY_JSON, 6, "change position 0 targets a separator/boundary slot"),
        ("derive", T_D_CONSTRUCTOR, 0, ""),
        ("derive", '[{"predicates": ', 6, "SchemaError"),
        ("derive", T_D_CONSTRUCTOR + "BasicAction(predicates=[lambda x: foo(x)])", 2, "bad-constructor"),
    ],
    ids=["apply-json-array", "apply-two-rules", "apply-two-json-lines", "apply-edit-on-boundary", "derive-constructors",
         "derive-malformed-json", "derive-bad-constructor"],
)
def test_law_file_in_any_surface(command, text, code, err, tmp_path, capsys):
    laws = tmp_path / "laws.txt"
    laws.write_text(text, encoding="utf-8")
    option = {"apply": "--law-file", "derive": "--cascade"}[command]
    assert run(command, option, laws, "sunt") == code
    captured = capsys.readouterr()
    assert captured.out == ("s u n t\ts u n d\n" if code == 0 else "")
    assert err in captured.err


def test_datagen_rp_ri_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert run("datagen", "--condition", "rp-ri", "--count", "5", "--seed", "7", "--out", out) == 0
    assert out1.read_bytes() == out2.read_bytes()
    tasks = read_tasks(out1)
    assert len(tasks) == 5 and all(t.n_examples == 50 for t in tasks)
    manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    assert manifest["command"] == "datagen"
    assert str(out1) in manifest["outputs"]


def test_datagen_rp_li_requires_transcript_source(tmp_path):
    out = tmp_path / "x.jsonl"
    code = run(
        "datagen", "--condition", "rp-li", "--cache-only", "--count", "1",
        "--seed", "11", "--out", out,
    )
    assert code == 4  # cache-only with no fixtures and no cache
    assert not out.exists()


def test_datagen_rp_li_fixture_replay(tmp_path):
    out = tmp_path / "replay.jsonl"
    code = run(
        "datagen", "--condition", "rp-li", "--cache-only", "--fixtures", FIXTURES,
        "--count", "5", "--seed", "11", "--out", out,
    )
    assert code == 0
    tasks = read_tasks(out)
    assert len(tasks) == 5


@pytest.mark.parametrize("line", [
    "not json",
    '{"prompt_hash": "h", "sample_index": 0}',
    '{"prompt_hash": "h", "sample_index": "0", "content": "c"}',
    '{"prompt_hash": "h", "sample_index": 0.5, "content": "c"}',
    '{"prompt_hash": "h", "sample_index": 0, "content": 5}',
    '{"prompt_hash": "h", "sample_index": true, "content": "c"}',
    '{"prompt_hash": ["h"], "sample_index": 0, "content": "c"}',
    "[1, 2]",
], ids=["not-json", "no-content", "index-a-string", "index-a-float", "content-not-a-string",
        "index-a-bool", "hash-not-a-string", "not-an-object"])
def test_datagen_bad_fixtures_line_exit_6(line, tmp_path, capsys):
    fixtures = tmp_path / "bad.jsonl"
    fixtures.write_text('{"prompt_hash": "h", "sample_index": 0, "content": "c"}\n' + line + "\n")
    out = tmp_path / "x.jsonl"
    code = run(
        "datagen", "--condition", "rp-li", "--cache-only", "--fixtures", fixtures,
        "--count", "1", "--seed", "11", "--out", out,
    )
    assert code == 6
    assert capsys.readouterr().err.startswith(f"error: SchemaError: {fixtures} line 2: ")
    assert not out.exists()


def test_datagen_idp_pi_bundled(tmp_path):
    out = tmp_path / "idp.jsonl"
    assert run("datagen", "--condition", "idp-pi", "--count", "3", "--seed", "2", "--out", out) == 0
    tasks = read_tasks(out)
    assert len(tasks) == 3 and all(t.condition == "idp-pi" for t in tasks)


def test_bench_and_eval_roundtrip(tmp_path, capsys):
    bench_out = tmp_path / "bench.jsonl"
    assert run("bench", "--pair", "demo", "--seed", "0", "--out", bench_out) == 0
    tasks = read_tasks(bench_out)
    stats = json.loads((tmp_path / "bench.jsonl.stats.json").read_text())
    assert stats["task_count"] == len(tasks) == 10

    samples = tmp_path / "samples.jsonl"
    with open(samples, "w", encoding="utf-8") as fh:
        for task in tasks:
            from soundlaw.dsl import law_to_doc

            fh.write(json.dumps({"task_id": task.id, "sample_index": 0, "program": law_to_doc(task.gold_law)}) + "\n")
    prefix = tmp_path / "report"
    assert run("eval", "--tasks", bench_out, "--samples", samples, "--out", prefix) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["aggregates"]["pass_rate"] == 1.0
    md = (tmp_path / "report.md").read_text()
    assert "pass_rate" in md and "Avg" in md
    # report subcommand renders from the saved json
    assert run("report", "--eval", tmp_path / "report.json", "--format", "md") == 0
    assert "Avg" in capsys.readouterr().out


def test_cascade_output_bytes_are_pinned(tmp_path, monkeypatch):
    """derive and bench on the bundled demo cascade and lexicon, byte for byte
    (recorded on CPython 3.11).  bench records the cascade path in each task,
    so both run on copies by a relative path."""
    for source in (DEMO_CASCADE, DEMO_LEXICON):
        (tmp_path / source.name).write_bytes(source.read_bytes())
    monkeypatch.chdir(tmp_path)
    inputs = ("--cascade", DEMO_CASCADE.name, "--lexicon", DEMO_LEXICON.name)
    assert run("derive", *inputs, "--out", "derive.txt") == 0
    assert run("bench", *inputs, "--seed", "3", "--out", "tasks.jsonl") == 0
    names = ("derive.txt", "tasks.jsonl", "tasks.jsonl.stats.json")
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names} == {
        "derive.txt": "27124d9f76101afb73cdd295a5deb845ac0d62de635cb3a87ba5f1fab9baa93a",
        "tasks.jsonl": "42baeed59c503fe5d92531ac00b21595e0491c42ef4c1aab5bdc36117df095e4",
        "tasks.jsonl.stats.json": "ed26160a8fe427191bfc9dffc55d2655bc5084bc71038ef663515dc5a98f866e",
    }


def write_eval_inputs(tmp_path):
    """Tasks whose gold law reproduces the stored outputs, one whose stored
    outputs disagree with it, and one whose gold law is inert (and so also
    disagrees); each is sampled with its gold law, another law and nothing."""
    from soundlaw.dsl import law_to_doc, lower_classical, parse_classical
    from soundlaw.phonology import default_inventory
    from soundlaw.rules import apply_to_lexicon
    from soundlaw.tasks import PBETask, write_tasks

    inv = default_inventory()
    rules = ("t > d / _ #", "a > e / _ #", "k > g / a _", "u > o / _ n")
    words = [inv.segment(w) for w in ("sunt", "kata", "takun", "muna", "pak", "tapere")]
    tasks = []
    for i, rule in enumerate(rules):
        gold = lower_classical(parse_classical(rule), inv)
        tasks.append(PBETask(f"ok-{i}", "rp-ri", tuple(words), tuple(apply_to_lexicon(gold, words, inv)[0]), gold))
    gold = tasks[0].gold_law
    bad = (inv.segment("sund"), inv.segment("kata"), inv.segment("takum")) + tuple(words[3:])
    tasks.append(PBETask("bad", "rp-ri", tuple(words), bad, gold))
    inert = tuple(inv.segment(w) for w in ("ma", "pi"))
    tasks.append(PBETask("inert", "rp-ri", inert, (inv.segment("me"), inv.segment("pi")), gold))
    write_tasks(tmp_path / "t.jsonl", tasks)
    other = law_to_doc(lower_classical(parse_classical("n > m / _ #"), inv))
    with open(tmp_path / "s.jsonl", "w", encoding="utf-8") as fh:
        for task in tasks:
            for index, program in enumerate((law_to_doc(task.gold_law), other, None)):
                fh.write(json.dumps({"task_id": task.id, "sample_index": index, "program": program}) + "\n")
    return inv, {t.id: t for t in tasks}


def test_eval_scores_gold_law_by_its_reexecuted_outputs(tmp_path, capsys):
    from soundlaw.evaluation import reward
    from soundlaw.rules import apply_law_word

    inv, tasks = write_eval_inputs(tmp_path)
    assert run("eval", "--tasks", tmp_path / "t.jsonl", "--samples", tmp_path / "s.jsonl", "--out", tmp_path / "r") == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning")]
    assert warnings == [
        "warning: task bad: stored outputs disagree with re-executed gold law",
        "warning: task inert: stored outputs disagree with re-executed gold law",
        "warning: task inert: gold law is inert on the stored inputs",
    ]
    rewards = {e["task_id"]: e["rewards"] for e in json.loads((tmp_path / "r.json").read_text())["per_task"]}
    assert all(rewards[f"ok-{i}"][0] == 1.0 for i in range(4))
    for task_id in ("bad", "inert"):
        task = tasks[task_id]
        rerun = [apply_law_word(task.gold_law, w, inv) for w in task.inputs]
        assert rewards[task_id][0] == float(reward(task.inputs, rerun, task.outputs)) != 1.0
    assert rewards["inert"][0] == 0.0


def test_eval_tasks_sharing_an_id_exit_6(tmp_path, capsys):
    """Two tasks with one id (as when two datagen outputs are concatenated)
    would be scored on one sample set, so eval refuses the tasks file."""
    from soundlaw.tasks import write_tasks

    _, tasks = write_eval_inputs(tmp_path)
    good, bad = tasks["ok-0"], tasks["bad"]
    write_tasks(tmp_path / "dup.jsonl", [dataclasses.replace(good, id="dup"), dataclasses.replace(bad, id="dup")])
    assert run("eval", "--tasks", tmp_path / "dup.jsonl", "--samples", tmp_path / "s.jsonl", "--out", tmp_path / "r") == 6
    assert capsys.readouterr().err == "error: SchemaError: line 2: task id 'dup' repeats line 1\n"
    assert not (tmp_path / "r.json").exists()


def test_eval_jobs_2_is_byte_identical(tmp_path, capsys):
    write_eval_inputs(tmp_path)
    runs = []
    for jobs in ("1", "2"):
        argv = ("eval", "--tasks", tmp_path / "t.jsonl", "--samples", tmp_path / "s.jsonl", "--jobs", jobs)
        assert run(*argv, "--out", tmp_path / f"r{jobs}") == 0
        files = [(tmp_path / f"r{jobs}{ext}").read_bytes() for ext in (".json", ".md")]
        runs.append((capsys.readouterr().err, files))
    assert runs[0] == runs[1]


def test_eval_schema_error_exit_6(tmp_path):
    tasks = tmp_path / "t.jsonl"
    tasks.write_text('{"id": "x", "condition": "rp-ri", "inputs": ["a"], "outputs": ["a", "b"]}\n')
    samples = tmp_path / "s.jsonl"
    samples.write_text('{"task_id": "x", "sample_index": 0, "program": null}\n')
    assert run("eval", "--tasks", tasks, "--samples", samples, "--out", tmp_path / "r") == 6


TASK_X = '{"id": "x", "condition": "rp-ri", "inputs": ["a"], "outputs": ["e"]}\n'
SAMPLE_X = '{"task_id": "x", "sample_index": 0, "program": null}\n'
LAW_A_E = ('{"predicates": [{"kind": "is", "args": ["a"]}], "change_pos": [0], '
           '"mappings": [{"kind": "replace", "phones": ["e"]}]}')


def second_sample(program: str) -> str:
    return SAMPLE_X + '{"task_id": "x", "sample_index": 1, "program": %s}\n' % program


@pytest.mark.parametrize("tasks_text, samples_text, where", [
    (TASK_X + "[1, 2]\n", SAMPLE_X, "line 2"),  # a task that is no object
    (TASK_X.replace('["a"]', "[5]"), SAMPLE_X, "line 1"),  # a word that is no string
    (TASK_X, SAMPLE_X + '{"task_id": "x", "sample_index": 1, "raw_text": 5}\n', "samples line 2"),
    (TASK_X, second_sample("5"), "samples line 2"),
    # a string where an array belongs would read as its characters
    (TASK_X.replace('["a"]', '"a"').replace('["e"]', '"e"'), SAMPLE_X, "line 1"),
    (TASK_X, second_sample(LAW_A_E.replace('"args": ["a"]', '"args": "a"')), "samples line 2"),
    (TASK_X, second_sample(LAW_A_E.replace('"phones": ["e"]', '"phones": "e"')), "samples line 2"),
    (TASK_X, second_sample(LAW_A_E.replace('"change_pos": [0]', '"change_pos": "0"')),
     "samples line 2"),
    # a value of the wrong JSON type exited 3, or was read as another value
    (TASK_X.replace("}", ', "provenance": 5}'), SAMPLE_X, "line 1"),
    (TASK_X.replace("}", ', "provenance": {"source": 5}}'), SAMPLE_X, "line 1"),
    (TASK_X.replace('"x"', '["x"]'), SAMPLE_X, "line 1"),
    (TASK_X, second_sample(LAW_A_E.replace('"change_pos": [0]', '"change_pos": [0.7]')),
     "samples line 2"),
    (TASK_X, SAMPLE_X.replace('"sample_index": 0', '"sample_index": "0"'), "samples line 1"),
    # two slots, so that `true` read as position 1 lies in the window
    (TASK_X, second_sample(LAW_A_E.replace('"change_pos": [0]', '"change_pos": [true]').replace(
        '"predicates": [', '"predicates": [{"kind": "is", "args": ["a"]}, ')), "samples line 2"),
    (TASK_X, SAMPLE_X.replace('"sample_index": 0', '"sample_index": 0.9'), "samples line 1"),
    (TASK_X, SAMPLE_X.replace('"x"', '["x"]'), "samples line 1"),
    (TASK_X, SAMPLE_X + "[1, 2]\n", "samples line 2: not a JSON object"),
    # a byte that is no UTF-8 exited 3 with a bare UnicodeDecodeError
    (TASK_X, SAMPLE_X.encode() + b'{"task_id": "x", "sample_index": 1, "raw_text": "\xff"}\n',
     "samples line 2"),
    (TASK_X.encode().replace(b'"e"', b'"\xff"'), SAMPLE_X, "line 1"),
    # only an absent or null gold law means none; a falsy one was read as none
    (TASK_X.replace("}", ', "gold_law": []}'), SAMPLE_X, "line 1"),
    (TASK_X.replace("}", ', "gold_law": 0}'), SAMPLE_X, "line 1"),
    (TASK_X.replace("}", ', "gold_law": ""}'), SAMPLE_X, "line 1"),
    (TASK_X.replace("}", ', "gold_law": false}'), SAMPLE_X, "line 1"),
    # an item of args or phones that is no string exited 3, or matched nothing
    (TASK_X, second_sample(LAW_A_E.replace('"phones": ["e"]', '"phones": [[1]]')), "samples line 2"),
    (TASK_X.replace("}", ', "gold_law": %s}' % LAW_A_E.replace('"phones": ["e"]', '"phones": [[1]]')),
     SAMPLE_X, "line 1"),
    *[(TASK_X, second_sample(LAW_A_E.replace('"args": ["a"]', f'"args": [{arg}]')), "samples line 2")
      for arg in ("5", "null", "true", "1.5", '""')],
    # a condition or a language pair that is no string passed with exit 0
    *[(TASK_X.replace('"rp-ri"', condition), SAMPLE_X, "line 1") for condition in ("5", "null", "[1]", "{}")],
    (TASK_X.replace("}", ', "provenance": {"source": {"language_pair": null}}}'), SAMPLE_X, "line 1"),
    (TASK_X.replace("}", ', "provenance": {"source": {"language_pair": 5}}}'), SAMPLE_X, "line 1"),
    # a word that is no string failed inside the word reader, naming no field
    (TASK_X.replace('"inputs": ["a"]', '"inputs": [null]'), SAMPLE_X, "line 1"),
    (TASK_X.replace('"outputs": ["e"]', '"outputs": [1]'), SAMPLE_X, "line 1"),
    (TASK_X.replace('"outputs": ["e"]', '"outputs": [["e"]]'), SAMPLE_X, "line 1"),
], ids=["task-not-an-object", "word-not-a-string", "raw-text-not-a-string",
        "program-not-an-object", "words-not-an-array", "args-not-an-array",
        "phones-not-an-array", "change-pos-not-an-array", "provenance-not-an-object",
        "source-not-an-object", "id-not-a-string", "change-pos-a-float", "sample-index-a-string",
        "change-pos-a-bool", "sample-index-a-float", "task-id-not-a-string", "sample-not-an-object",
        "sample-not-utf-8", "task-not-utf-8", "gold-law-an-array", "gold-law-zero",
        "gold-law-empty-string", "gold-law-false", "phones-item-an-array",
        "gold-law-phones-item-an-array", "args-item-a-number", "args-item-null", "args-item-a-bool",
        "args-item-a-float", "args-item-empty", "condition-a-number", "condition-null",
        "condition-an-array", "condition-an-object", "language-pair-null",
        "language-pair-a-number", "inputs-item-null", "outputs-item-a-number",
        "outputs-item-an-array"])
def test_eval_wrong_json_shape_exit_6(tasks_text, samples_text, where, tmp_path, capsys):
    tasks, samples = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
    for path, text in ((tasks, tasks_text), (samples, samples_text)):
        path.write_bytes(text if type(text) is bytes else text.encode())
    assert run("eval", "--tasks", tasks, "--samples", samples, "--out", tmp_path / "r") == 6
    assert capsys.readouterr().err.startswith(f"error: SchemaError: {where}: ")


@pytest.mark.parametrize("field, old", [("inputs", '["a"]'), ("outputs", '["e"]')])
def test_eval_task_word_that_is_no_string_names_its_field(field, old, tmp_path, capsys):
    tasks, samples = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
    tasks.write_text(TASK_X.replace(f'"{field}": {old}', f'"{field}": [1]'))
    samples.write_text(SAMPLE_X)
    assert run("eval", "--tasks", tasks, "--samples", samples, "--out", tmp_path / "r") == 6
    err = capsys.readouterr().err
    assert err == f"error: SchemaError: line 1: {field} must hold strings, not [1]\n"


LAW_DOC = json.loads(LAW_A_E)
VALID_TASK = {"id": "x", "condition": "rp-ri", "inputs": ["a"], "outputs": ["e"], "gold_law": LAW_DOC,
              "provenance": {"seed": 0, "source": {"language_pair": "p"}}}
VALID_SAMPLES = [
    {"task_id": "x", "sample_index": 0, "program": LAW_DOC},
    {"task_id": "x", "sample_index": 1,
     "raw_text": "BasicAction(predicates=[lambda x: x == 'a'], change_pos=[0], mapping_fn=[lambda x: 'e'])"},
]
# one value of each JSON kind
JSON_KINDS = {"null": None, "bool": True, "int": 1, "float": 1.5, "string": "s", "array": ["s"], "object": {}}
LAW_FIELDS = [("predicates",), ("predicates", 0), ("predicates", 0, "kind"), ("predicates", 0, "args"),
              ("predicates", 0, "args", 0), ("change_pos",), ("change_pos", 0), ("mappings",),
              ("mappings", 0), ("mappings", 0, "kind"), ("mappings", 0, "phones"),
              ("mappings", 0, "phones", 0)]
REQUIRED_LAW_FIELDS = [("predicates",), ("predicates", 0, "kind"), ("predicates", 0, "args"), ("change_pos",),
                       ("mappings",), ("mappings", 0, "kind"), ("mappings", 0, "phones")]
# every field eval reads, as (line: 0 for the task, 1 or 2 for a sample, path),
# mapped to the kinds besides its own that it accepts: with any other kind
# eval exits 6 naming the line
EVAL_FIELDS = {
    **{(0, path): () for path in [("id",), ("condition",), ("inputs",), ("inputs", 0), ("outputs",),
                                   ("outputs", 0), ("provenance",), ("provenance", "source"),
                                   ("provenance", "source", "language_pair")]},
    (0, ("gold_law",)): ("null",),
    **{(0, ("gold_law", *path)): () for path in LAW_FIELDS},
    (1, ("task_id",)): (), (1, ("sample_index",)): (), (1, ("program",)): ("null",),
    **{(1, ("program", *path)): () for path in LAW_FIELDS},
    (2, ("raw_text",)): (),
}
# fields whose absence is a schema error; dropping any other read field exits 0
REQUIRED_FIELDS = [
    *[(0, (key,)) for key in ("id", "condition", "inputs", "outputs")],
    *[(0, ("gold_law", *path)) for path in REQUIRED_LAW_FIELDS],
    (1, ("task_id",)), (1, ("sample_index",)),
    *[(1, ("program", *path)) for path in REQUIRED_LAW_FIELDS],
]


def eval_field_cases():
    """(case name, records, where): records are the task then the samples,
    one field changed, and where is the line the error names (None: exit 0)."""
    valid = [VALID_TASK, *VALID_SAMPLES]
    where = ["line 1", "samples line 1", "samples line 2"]

    def changed(line, path, kind):
        """The records with the field at `path` set to the value of `kind`,
        or dropped (kind None)."""
        records = json.loads(json.dumps(valid))  # gold_law and program share no object
        *head, last = path
        node = records[line]
        for key in head:
            node = node[key]
        if kind is None:
            del node[last]
        else:
            node[last] = JSON_KINDS[kind]
        return records

    yield "valid", valid, None
    for (line, path), accepted in EVAL_FIELDS.items():
        name = ".".join(map(str, path))
        own = type(functools.reduce(lambda node, key: node[key], path, valid[line]))
        for kind, value in JSON_KINDS.items():
            if type(value) is not own:
                yield f"{name}={kind}", changed(line, path, kind), None if kind in accepted else where[line]
        if not isinstance(path[-1], int):  # an array item is no field to drop
            required = (line, path) in REQUIRED_FIELDS
            yield f"{name} dropped", changed(line, path, None), where[line] if required else None


def test_every_json_kind_of_every_eval_field_exits_0_or_6_naming_its_line(tmp_path, capsys):
    """Each field eval reads takes each JSON kind in turn, and each field is
    dropped in turn: eval exits 0 where the field accepts it, else 6 naming
    the line, and never 3."""
    tasks, samples = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
    wrong = []
    for name, (task, *sample_docs), where in eval_field_cases():
        tasks.write_text(json.dumps(task) + "\n", encoding="utf-8")
        samples.write_text("".join(json.dumps(doc) + "\n" for doc in sample_docs), encoding="utf-8")
        code = run("eval", "--tasks", tasks, "--samples", samples, "--out", tmp_path / "r")
        err = capsys.readouterr().err
        if where is None and code != 0:
            wrong.append((name, code, err))
        elif where and (code != 6 or not err.startswith(f"error: SchemaError: {where}: ")):
            wrong.append((name, code, err))
    assert wrong == []


def test_eval_repeated_sample_index_exit_6(tmp_path, capsys):
    tasks = tmp_path / "t.jsonl"
    tasks.write_text('{"id": "x", "condition": "rp-ri", "inputs": ["a"], "outputs": ["e"]}\n')
    samples = tmp_path / "s.jsonl"
    samples.write_text(
        '{"task_id": "x", "sample_index": 0, "program": null}\n'
        '{"task_id": "x", "sample_index": 1, "program": null}\n'
        '{"task_id": "x", "sample_index": 0, "program": null}\n'
    )
    assert run("eval", "--tasks", tasks, "--samples", samples, "--out", tmp_path / "r") == 6
    err = capsys.readouterr().err
    assert "line 3" in err and "line 1" in err
    assert not (tmp_path / "r.json").exists()


DATAGEN_RP_RI = ("datagen", "--condition", "rp-ri", "--count", "1", "--out", "x.jsonl", "--config")
DATAGEN_RP_LI = ("datagen", "--condition", "rp-li", "--cache-only", "--fixtures", FIXTURES,
                 "--count", "1", "--out", "x.jsonl", "--config")


@pytest.mark.parametrize("argv, text", [
    (DATAGEN_RP_RI, "[1, 2]"),
    (DATAGEN_RP_LI, "[1, 2]"),
    (DATAGEN_RP_RI, "{not json"),
    (("stats", "-y", "y.json", "-x"), '["a"]'),
    (("stats", "-y", "y.json", "-x"), '{"per_task": [{"task_id": "a", "passed": true}]}'),
    (("report", "--eval"), '{"x": 1}'),
    (("report", "--eval"), '{"aggregates": {"per_language_pair": 3}}'),
    (("report", "--eval"), "nope"),
    # config values were cast after reading (exit 3, or silently misread)
    (DATAGEN_RP_LI, '{"temperature": "hot"}'),
    (DATAGEN_RP_LI, '{"cache_only": "no"}'),
    (DATAGEN_RP_LI, '{"max_tokens": 1.9}'),
    (DATAGEN_RP_LI, '{"retry_budget": true}'),
    (DATAGEN_RP_LI, '{"endpoint": 5}'),
    (DATAGEN_RP_LI, '{"cache_dir": 7}'),
    (DATAGEN_RP_LI, '{"temprature": 1}'),
    # stats read strings and booleans as numbers and any `passed` as a truth value
    (("stats", "-y", "y.json", "-x"), '["1.5", 2.0]'),
    (("stats", "-y", "y.json", "-x"), "[true, 2.0]"),
    (("stats", "-y", "y.json", "-x"), '{"per_task": [{"rewards": ["1.0"]}, {"rewards": [1.0]}]}'),
    (("stats", "--property", "passing_programs", "-y", "y.json", "-x"),
     '{"per_task": [{"rewards": [true]}, {"rewards": [1.0]}]}'),
    (("stats", "--property", "pass_rate", "-y", "y.json", "-x"),
     '{"per_task": [{"passed": "no"}, {"passed": true}]}'),
], ids=["config-rp-ri-an-array", "config-rp-li-an-array", "config-not-json", "stats-not-a-number",
        "stats-no-rewards", "report-no-aggregates", "report-pairs-not-an-object", "report-not-json",
        "config-temperature-a-string", "config-cache-only-a-string", "config-max-tokens-a-float",
        "config-retry-budget-a-bool", "config-endpoint-a-number", "config-cache-dir-a-number",
        "config-unknown-key", "stats-a-numeric-string", "stats-a-bool", "stats-reward-a-string",
        "stats-reward-a-bool", "stats-passed-a-string"])
def test_json_file_of_the_wrong_shape_exit_6(argv, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("in.json").write_text(text)
    Path("y.json").write_text("[1.0, 2.0]")
    assert run(*argv, "in.json") == 6
    assert capsys.readouterr().err.startswith("error: SchemaError: in.json: ")
    assert not Path("x.jsonl").exists()


VALID_FIXTURE = {"prompt_hash": "h", "sample_index": 0, "content": "c"}
VALID_CONFIG = {"endpoint": "http://localhost:1", "model": "m", "temperature": 0.5, "max_tokens": 9,
                "retry_budget": 0, "cache_dir": "cache", "cache_only": True}


def json_document_cases(doc, accepted, required, wrap=lambda obj: obj):
    """(case name, file bytes, fails) of a JSON object: the object, another
    JSON kind in its place, each field set to each JSON kind besides its own
    and each field dropped, and the object with a byte that is no UTF-8.
    `accepted` maps a field to the other kinds it takes; `required` names
    the fields whose absence fails.  `wrap` puts the object, or what stands
    in its place, into the document the file holds."""
    def encoded(value):
        return json.dumps(wrap(value)).encode()

    yield "valid", encoded(doc), False
    for kind, value in JSON_KINDS.items():
        if type(value) is not dict:
            yield f"document={kind}", encoded(value), True
    for key, own in doc.items():
        for kind, value in JSON_KINDS.items():
            if type(value) is not type(own):
                yield f"{key}={kind}", encoded({**doc, key: value}), kind not in accepted.get(key, ())
        yield f"{key} dropped", encoded({k: v for k, v in doc.items() if k != key}), key in required
    yield "not UTF-8", encoded(doc).replace(b'": "', b'": "\xff', 1), True


@pytest.mark.parametrize("option", ["--fixtures", "--config"])
def test_every_json_kind_of_every_fixtures_and_config_field_exits_0_or_6_naming_its_line_or_file(
        option, tmp_path, monkeypatch, capsys):
    """A fixtures line (after the recorded ones) or a --config file takes each
    case of `json_document_cases` in turn: the rp-li replay exits 0 where the
    reader accepts it, else 6 naming the line or the file, and never 3."""
    monkeypatch.chdir(tmp_path)
    recorded = FIXTURES.read_bytes()
    if option == "--fixtures":  # every field of a fixture is required, and takes one kind
        cases = json_document_cases(VALID_FIXTURE, {}, VALID_FIXTURE)
        before, where = recorded, f"in.json line {len(recorded.splitlines()) + 1}"
        argv = ("--fixtures", "in.json")
    else:  # every key of a config is optional
        cases = json_document_cases(VALID_CONFIG, {"temperature": ("int",)}, ())
        before, where = b"", "in.json"
        argv = ("--fixtures", FIXTURES, "--config", "in.json")
    wrong = []
    for name, text, fails in cases:
        Path("in.json").write_bytes(before + text + b"\n")
        code = run("datagen", "--condition", "rp-li", "--cache-only", *argv, "--count", "1", "--seed", "11",
                   "--out", "x.jsonl")
        err = capsys.readouterr().err
        if code != (6 if fails else 0) or fails and not err.startswith(f"error: SchemaError: {where}: "):
            wrong.append((name, code, err))
    assert wrong == []


ALL_KINDS = tuple(JSON_KINDS)
EVAL_PAIR = {"n_tasks": 1, "pass_rate": 1.0, "reward_at_1": 1.0, "reward_at_3": None}
EVAL_ENTRY = {"task_id": "a", "passed": True, "reward_at_1": 1.0, "reward_at_3": None, "rewards": [1.0]}
EVAL_AGGREGATES = {**EVAL_PAIR, "per_language_pair": {"all": EVAL_PAIR}}
EVAL_REPORT = {"per_task": [EVAL_ENTRY], "aggregates": EVAL_AGGREGATES}


def eval_report_cases(reads):
    """`json_document_cases` of each object of an eval report, put back into
    the report: `reads` maps each object's name to (the fields the command
    reads, mapped to the other kinds they take; the fields it needs), and
    a field it does not read takes every kind and may be dropped."""
    objects = {
        "report": (EVAL_REPORT, lambda obj: obj),
        "per_task[0]": (EVAL_ENTRY, lambda obj: {**EVAL_REPORT, "per_task": [obj]}),
        "aggregates": (EVAL_AGGREGATES, lambda obj: {**EVAL_REPORT, "aggregates": obj}),
        "per_language_pair": (EVAL_AGGREGATES["per_language_pair"],
                              lambda obj: {**EVAL_REPORT, "aggregates": {**EVAL_AGGREGATES, "per_language_pair": obj}}),
        "per_language_pair.all": (EVAL_PAIR, lambda obj: {
            **EVAL_REPORT, "aggregates": {**EVAL_AGGREGATES, "per_language_pair": {"all": obj}}}),
    }
    for name, (doc, wrap) in objects.items():
        if name not in reads:
            continue
        read, required = reads[name]
        accepted = {key: read[key] if key in read else ALL_KINDS for key in doc}
        for case, text, fails in json_document_cases(doc, accepted, required, wrap):
            yield f"{name}: {case}", text, fails


def rewards_read(prop):
    """What `stats --property prop` reads of an eval report."""
    entry = ({"passed": ()}, ("passed",)) if prop == "pass_rate" else ({"rewards": ()}, ("rewards",))
    return {"report": ({"per_task": ()}, ("per_task",)), "per_task[0]": entry}


@pytest.mark.parametrize("prop", ["reward_per_program", "passing_programs", "pass_rate"])
@pytest.mark.parametrize("side", ["-x", "-y"])
def test_every_json_kind_of_every_stats_sample_field_exits_0_or_6_naming_its_file(
        side, prop, tmp_path, monkeypatch, capsys):
    """An eval report given to stats as either sample takes each case of
    `json_document_cases` in each of its objects, and each JSON kind as a
    reward: stats exits 0 where the reader accepts it, else 6 naming the
    file, and never 3."""
    monkeypatch.chdir(tmp_path)
    Path("other.json").write_text("[-7.0]")
    reads = rewards_read(prop)
    cases = list(eval_report_cases(reads))
    for kind, value in JSON_KINDS.items():  # a reward of each kind
        text = json.dumps({**EVAL_REPORT, "per_task": [{**EVAL_ENTRY, "rewards": [value]}]}).encode()
        cases.append((f"rewards[0]={kind}", text, prop != "pass_rate" and kind not in ("int", "float")))
    other = "-y" if side == "-x" else "-x"
    wrong = []
    for name, text, fails in cases:
        Path("in.json").write_bytes(text)
        code = run("stats", "--property", prop, side, "in.json", other, "other.json")
        err = capsys.readouterr().err
        if code != (6 if fails else 0) or fails and not err.startswith("error: SchemaError: in.json: "):
            wrong.append((name, code, err))
    assert len(cases) > 60 and wrong == []


REPORT_READS = {
    # the tables read each metric of each language pair, a number or null
    "md": {
        "report": ({"aggregates": ()}, ("aggregates",)),
        "aggregates": ({"per_language_pair": ()}, ("per_language_pair",)),
        "per_language_pair": ({"all": ()}, ("all",)),
        "per_language_pair.all": ({"pass_rate": ("int", "null"), "reward_at_1": ("int", "null"),
                                   "reward_at_3": ("int", "float")},
                                  ("pass_rate", "reward_at_1", "reward_at_3")),
    },
    # the JSON form prints the aggregates object as it is
    "json": {"report": ({"aggregates": ()}, ("aggregates",)), "aggregates": ({}, ())},
}


@pytest.mark.parametrize("form", ["md", "json"])
def test_every_json_kind_of_every_report_field_exits_0_or_6_naming_its_file(form, tmp_path, monkeypatch, capsys):
    """An eval report given to `report --eval` takes each case of
    `json_document_cases` in each of its objects: report exits 0 where the
    reader accepts it, else 6 naming the file, and never 3."""
    monkeypatch.chdir(tmp_path)
    cases = list(eval_report_cases(REPORT_READS[form]))
    wrong = []
    for name, text, fails in cases:
        Path("in.json").write_bytes(text)
        code = run("report", "--eval", "in.json", "--format", form, "--out", "r.txt")
        err = capsys.readouterr().err
        if code != (6 if fails else 0) or fails and not err.startswith("error: SchemaError: in.json: "):
            wrong.append((name, code, err))
    assert len(cases) > 30 and wrong == []


def test_gateway_settings_are_the_config_overlaid_by_the_given_flags(tmp_path, monkeypatch):
    from soundlaw import datagen, gateway

    seen = []

    def gen_llm_tasks(condition, gw, pool, cfg, count, inv):
        seen.append(gw.config)
        return []

    monkeypatch.setattr(datagen, "gen_llm_tasks", gen_llm_tasks)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "endpoint": "http://e", "model": "from-config", "temperature": 1, "max_tokens": 9,
        "retry_budget": 0, "cache_dir": "from-config", "cache_only": False,
    }))
    out = tmp_path / "x.jsonl"
    base = ("datagen", "--condition", "rp-li", "--count", "1", "--config", config, "--out", out)
    assert run(*base) == 0
    assert run(*base, "--model", "m", "--temperature", "0.5", "--cache-dir", "d", "--cache-only",
               "--endpoint", "http://f") == 0
    assert seen == [
        gateway.GatewayConfig(endpoint="http://e", model="from-config", temperature=1.0,
                              max_tokens=9, retry_budget=0, cache_dir="from-config"),
        gateway.GatewayConfig(endpoint="http://f", model="m", temperature=0.5, max_tokens=9,
                              retry_budget=0, cache_dir="d", cache_only=True),
    ]
    assert type(seen[0].temperature) is float  # 1 and 1.0 would key the cache apart


def test_gateway_config_fields_are_the_config_keys():
    from soundlaw import cli, gateway

    assert set(cli.CONFIG_FIELDS) == {f.name for f in dataclasses.fields(gateway.GatewayConfig)}


def test_stats_alpha_only(capsys):
    assert run("stats", "--alpha", "0.05", "--m", "7") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha_adjusted"] == pytest.approx(0.05 / 7)


@pytest.mark.parametrize("flag", ["-x", "-y"])
def test_stats_one_sample_without_the_other_exit_2(flag, tmp_path, capsys):
    sample = tmp_path / "s.json"
    sample.write_text("[1.0, 2.0, 3.0]")
    assert run("stats", flag, sample) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stats compares two samples: give both -x and -y, or neither\n"


def test_stats_comparison(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps([1.0, 2.0, 3.5, 4.0, 6.0, 8.0, 1.5, 9.0]))
    y.write_text(json.dumps([2.0, 3.0, 3.0, 5.0, 7.0, 9.5, 2.5, 10.0]))
    assert run("stats", "-x", x, "-y", y, "--alternative", "less", "--alpha", "0.05", "--m", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 8 and 0 < doc["p"] <= 1
    assert doc["alpha_adjusted"] == 0.025
    assert doc["significant"] == (doc["p"] < 0.025)


def test_stats_property_extraction(tmp_path, capsys):
    report = {
        "per_task": [
            {"task_id": "a", "passed": True, "rewards": [1.0, 0.5]},
            {"task_id": "b", "passed": False, "rewards": [0.0, -1.0]},
        ]
    }
    x = tmp_path / "r1.json"
    x.write_text(json.dumps(report))
    y = tmp_path / "r2.json"
    report2 = {
        "per_task": [
            {"task_id": "a", "passed": False, "rewards": [0.5, 0.25]},
            {"task_id": "b", "passed": False, "rewards": [-0.5, -1.0]},
        ]
    }
    y.write_text(json.dumps(report2))
    assert run("stats", "-x", x, "-y", y, "--property", "reward_per_program") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3  # the one zero difference was dropped


@pytest.mark.parametrize(
    "argv",
    [
        ("tokenize", "--seed", "1", "am"),
        ("bench", "--jobs", "2", "--out", "b.jsonl"),
        ("stats", "--table", "t.tsv"),
        ("report", "--seed", "1", "--eval", "r.json"),
        ("eval", "--config", "c.json", "--tasks", "t.jsonl", "--samples", "s.jsonl", "--out", "r"),
        ("stats", "--test", "wilcoxon"),
    ],
)
def test_option_the_subcommand_does_not_read_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # nothing lands in the checkout if the run goes ahead
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_manifest_reproducibility(tmp_path):
    out = tmp_path / "m.jsonl"
    assert run("datagen", "--condition", "rp-ri", "--count", "3", "--seed", "5", "--out", out) == 0
    manifest = json.loads((tmp_path / "m.jsonl.manifest.json").read_text())
    recorded = manifest["outputs"][str(out)]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded


def test_manifest_records_the_kernel_backend(tmp_path):
    out = tmp_path / "k.jsonl"
    assert run("datagen", "--condition", "idp-pi", "--count", "1", "--out", out) == 0
    manifest = json.loads((tmp_path / "k.jsonl.manifest.json").read_text())
    assert manifest["kernels"] == {"backend": kernels.BACKEND, "reason": kernels.BACKEND_REASON}
    assert manifest["kernels"]["backend"] in ("c", "python") and manifest["kernels"]["reason"]


def test_manifest_hashes_the_table_and_config_files(tmp_path):
    table, config = tmp_path / "table.tsv", tmp_path / "gateway.json"
    bundled = (files("soundlaw") / "data" / "feature_table.tsv").read_text("utf-8")
    hashes = []
    for i, (table_text, config_text) in enumerate([(bundled, "{}"), ("# edited\n" + bundled, '{"cache_only": true}')]):
        table.write_text(table_text, encoding="utf-8")
        config.write_text(config_text, encoding="utf-8")
        out = tmp_path / f"m{i}.jsonl"
        argv = ("datagen", "--condition", "rp-ri", "--count", "2", "--table", table, "--config", config)
        assert run(*argv, "--out", out) == 0
        inputs = json.loads((tmp_path / f"m{i}.jsonl.manifest.json").read_text())["inputs"]
        hashes.append((inputs[str(table)], inputs[str(config)]))
    assert hashes[0][0] != hashes[1][0] and hashes[0][1] != hashes[1][1]


def test_manifest_records_the_parsed_argv_and_options(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--seed", "0", "--distractor-min", "5", "--out", "bm.jsonl"]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "bm.jsonl.manifest.json").read_text())
    assert manifest["argv"] == argv
    assert manifest["options"] == {
        "table": None, "out": "bm.jsonl", "seed": 0, "cascade": None, "lexicon": None,
        "pair": "demo", "distractor_fraction": 0.15, "distractor_min": 5,
    }
