"""Command-line interface.

Subcommands: tokenize, apply, derive, parse-law, datagen, bench, eval,
stats, report.  datagen, bench and eval write a sidecar manifest with
hashes of their inputs and outputs so results can be reproduced exactly,
and the kernel backend that ran with the reason it was chosen.

Exit codes: 0 ok, 2 parse error, 3 application error, 4 gateway error,
5 generation error, 6 schema error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from importlib.resources import files
from pathlib import Path

from . import __version__, benchmark, datagen, dsl, evaluation, gateway, kernels, stats as stats_mod
from .phonology import (
    PhonologyError,
    SegmentInventory,
    UndecodableText,
    UnreadableInput,
    UnsegmentableInput,
    decode_text,
    default_inventory,
    load_feature_table_file,
    load_lexicon,
    preprocess,
    read_text,
)
from .rules import NonCanonicalTokenSeq, RuleError, SoundLaw, apply_cascade, apply_to_lexicon
from .tasks import read_json, read_jsonl, read_tasks, validate_task, word_to_str, write_tasks

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_APPLY = 3
EXIT_GATEWAY = 4
EXIT_GENERATION = 5
EXIT_SCHEMA = 6


class CliError(Exception):
    def __init__(self, message: str, code: int):
        self.code = code
        super().__init__(message)


def _classify(exc: Exception) -> int:
    if isinstance(exc, (dsl.SchemaError, evaluation.EvaluationError)):
        return EXIT_SCHEMA
    if isinstance(exc, (dsl.DslError, UnsegmentableInput, UndecodableText, UnreadableInput)):
        return EXIT_PARSE
    if isinstance(exc, gateway.GatewayError):
        return EXIT_GATEWAY
    if isinstance(exc, (datagen.GenerationError, benchmark.BenchmarkError)):
        return EXIT_GENERATION
    if isinstance(exc, (RuleError, NonCanonicalTokenSeq, PhonologyError)):
        return EXIT_APPLY
    if isinstance(exc, stats_mod.StatsError):
        return EXIT_SCHEMA
    return EXIT_APPLY


# ---------------------------------------------------------------------------
# shared helpers


def _inventory(args) -> SegmentInventory:
    if args.table:
        return load_feature_table_file(args.table)
    return default_inventory()


def _read_words(args, inv: SegmentInventory):
    words = []
    if args.lexicon:
        words.extend(load_lexicon(args.lexicon, inv))
    for raw in args.words:
        words.append(inv.segment(raw))
    return words


def _read_laws(text: str, inv: SegmentInventory) -> list[tuple[str, SoundLaw]]:
    """Every (label, law) of a law text; its diagnostics are warnings and a
    text holding no law is a parse error."""
    laws, diagnostics = dsl.read_laws(text, inv)
    for diag in diagnostics:
        print(f"warning: {diag.code}: {diag.message}", file=sys.stderr)
    if not laws:
        raise CliError("no parseable law in input", EXIT_PARSE)
    return laws


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, primary_out, inputs, outputs, started: str):
    # the feature table and datagen's config change the output bytes as well
    inputs = [*inputs, vars(args).get("table"), vars(args).get("config")]
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "package_version": __version__,
        "kernels": {"backend": kernels.BACKEND, "reason": kernels.BACKEND_REASON},
        "options": {k: v for k, v in vars(args).items() if k not in ("func", "argv", "command")},
        "inputs": {str(p): _sha256_file(p) for p in inputs if p and Path(p).exists()},
        "outputs": {str(p): _sha256_file(p) for p in outputs if p and Path(p).exists()},
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    path = str(primary_out) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2)
    return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _print_or_write(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# every key a `--config` file may set, with its JSON type(s)
CONFIG_FIELDS = {
    "endpoint": str,
    "model": str,
    "temperature": (int, float),
    "max_tokens": int,
    "retry_budget": int,
    "cache_dir": str,
    "cache_only": bool,
}


def _load_config(args) -> dict:
    def parse(doc):
        config = {}
        for key in dsl.json_object(doc):
            if key not in CONFIG_FIELDS:
                raise dsl.SchemaError(f"unknown key {key!r}")
            config[key] = dsl.json_field(doc, key, CONFIG_FIELDS[key])
        if "temperature" in config:  # 1 and 1.0 would key the gateway cache apart
            config["temperature"] = float(config["temperature"])
        return config

    return read_json(args.config, parse) if args.config else {}


def _gateway_from_args(args, config: dict) -> gateway.Gateway:
    # the flags that were given win over the --config values
    flags = {
        "endpoint": args.endpoint,
        "model": args.model,
        "temperature": args.temperature,
        "cache_dir": args.cache_dir,
        "cache_only": args.cache_only or None,
    }
    settings = {**config, **{key: value for key, value in flags.items() if value is not None}}
    fixtures = {}
    for path in args.fixtures or []:  # a later file wins
        fixtures.update(gateway.load_fixtures(path))
    return gateway.Gateway(gateway.GatewayConfig(**settings), fixtures=fixtures)


# ---------------------------------------------------------------------------
# subcommands


def cmd_tokenize(args) -> int:
    inv = _inventory(args)
    lines = []
    for word in _read_words(args, inv):
        if args.preprocessed:
            lines.append(" ".join(preprocess(word)))
        else:
            lines.append(word_to_str(word))
    _print_or_write("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def cmd_apply(args) -> int:
    inv = _inventory(args)
    if args.rule:
        text = args.rule
    elif args.law_file:
        text = read_text(args.law_file)
    else:
        raise CliError("no rule given: use -r/--rule or --law-file", EXIT_PARSE)
    laws = _read_laws(text, inv)
    if len(laws) > 1:
        raise CliError(f"apply takes one law, the text holds {len(laws)}", EXIT_PARSE)
    law = laws[0][1]
    words = _read_words(args, inv)
    outputs, changed = apply_to_lexicon(law, words, inv)
    lines = []
    for word, out, ch in zip(words, outputs, changed):
        if args.changed_only and not ch:
            continue
        lines.append(f"{word_to_str(word)}\t{word_to_str(out)}")
    _print_or_write("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def cmd_derive(args) -> int:
    inv = _inventory(args)
    cascade = benchmark.load_cascade_file(args.cascade, inv)
    words = _read_words(args, inv)
    stages = apply_cascade(cascade, words, inv)
    lines = []
    if args.trace:
        for stage in stages:
            n = sum(stage.changed)
            lines.append(f"== {stage.label} ({n} changed)")
            for w, o, ch in zip(stage.inputs, stage.outputs, stage.changed):
                if ch:
                    lines.append(f"  {word_to_str(w)}\t->\t{word_to_str(o)}")
    for word, out in zip(words, stages[-1].outputs):
        lines.append(f"{word_to_str(word)}\t{word_to_str(out)}")
    _print_or_write("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def cmd_parse_law(args) -> int:
    inv = _inventory(args)
    if args.rule is not None:
        text = args.rule
    elif args.input:
        text = read_text(args.input)
    else:
        text = decode_text(sys.stdin.buffer.read(), "<stdin>")
    laws = _read_laws(text, inv)
    _print_or_write("\n".join(dsl.print_law(law) for _, law in laws) + "\n", args.out)
    return EXIT_OK


def _bundled(name: str) -> Path:
    return files("soundlaw") / "data" / name


def cmd_datagen(args) -> int:
    started = _now()
    inv = _inventory(args)
    config = _load_config(args)
    cfg = datagen.GenConfig(
        n_examples=args.n_examples,
        seed=args.seed,
        retry_budget=args.retry_budget,
    )
    inputs_used: list[str] = []
    if args.condition == "rp-ri":
        tasks = datagen.gen_rp_ri(cfg, args.count, inv, jobs=args.jobs)
    elif args.condition in ("rp-li", "rp-pi"):
        gw = _gateway_from_args(args, config)
        if args.condition == "rp-li":
            pool_path = args.seed_lexicon or str(_bundled("nonce_words.txt"))
        else:
            pool_path = args.seed_lexicon or str(_bundled("demo_protolexicon_poc.txt"))
        inputs_used.append(pool_path)
        pool = load_lexicon(pool_path, inv)
        tasks = datagen.gen_llm_tasks(args.condition, gw, pool, cfg, args.count, inv)
    else:  # idp-pi, the last of argparse's choices
        rules_path = args.rules or str(_bundled("demo_rules.txt"))
        lex_path = args.lexicon or str(_bundled("demo_protolexicon_poc.txt"))
        inputs_used.extend([rules_path, lex_path])
        db = dsl.load_rule_db_file(rules_path, inv)
        lexicon = load_lexicon(lex_path, inv)
        tasks = datagen.gen_idp_pi(db, lexicon, cfg, args.count, inv)
    write_tasks(args.out, tasks)
    _write_manifest(args, args.out, inputs_used + (args.fixtures or []), [args.out], started)
    print(f"wrote {len(tasks)} tasks to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    started = _now()
    inv = _inventory(args)
    cascade_path = args.cascade or str(_bundled("demo_cascade.rules"))
    lexicon_path = args.lexicon or str(_bundled("demo_lexicon.txt"))
    cascade = benchmark.load_cascade_file(cascade_path, inv)
    lexicon = load_lexicon(lexicon_path, inv)
    spec = benchmark.BenchmarkSpec(
        cascade=cascade,
        lexicon=tuple(lexicon),
        language_pair=args.pair,
        distractor_fraction=args.distractor_fraction,
        distractor_min=args.distractor_min,
        seed=args.seed,
    )
    tasks, warnings = benchmark.build_single_law_dataset(spec, inv)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    write_tasks(args.out, tasks)
    stats_path = str(args.out) + ".stats.json"
    Path(stats_path).write_text(
        benchmark.stats_to_json(benchmark.dataset_stats(tasks)) + "\n", encoding="utf-8"
    )
    _write_manifest(args, args.out, [cascade_path, lexicon_path], [args.out, stats_path], started)
    print(f"wrote {len(tasks)} tasks to {args.out}", file=sys.stderr)
    return EXIT_OK


def _load_samples(path, inv: SegmentInventory) -> dict[str, list]:
    """samples JSONL of {task_id, sample_index, program | raw_text} ->
    {task_id: [candidate-by-index, ...]}; a task's sample index may occur only
    once (see `read_jsonl`)."""

    def parse(doc):
        task_id, index = dsl.json_field(doc, "task_id", str), dsl.json_field(doc, "sample_index", int)
        if doc.get("program") is not None:
            return task_id, index, dsl.doc_to_law(doc["program"])
        if "raw_text" in doc:
            laws = dsl.parse_program_text(dsl.json_field(doc, "raw_text", str), inv).laws
            return task_id, index, list(laws) if laws else None
        return task_id, index, None

    samples = read_jsonl(path, parse, "samples line", key=lambda s: f"task {s[0]!r} sample {s[1]}")
    by_task: dict[str, list] = {}
    for task_id, _, candidate in sorted(samples, key=lambda s: s[1]):  # index order within a task
        by_task.setdefault(task_id, []).append(candidate)
    return by_task


def cmd_eval(args) -> int:
    started = _now()
    inv = _inventory(args)
    tasks = read_tasks(args.tasks)
    samples = _load_samples(args.samples, inv)
    scored_tasks = []
    pairs = []
    for task in tasks:
        cands = samples.get(task.id)
        if not cands:
            print(f"warning: no samples for task {task.id}, skipped", file=sys.stderr)
            continue
        pairs.append((task, cands))
        scored_tasks.append(task)
    if not pairs:
        raise evaluation.EmptyDataset("no task had samples")
    for task in scored_tasks:
        for warning in validate_task(task, inv):
            print(f"warning: {warning}", file=sys.stderr)
    reports = evaluation.evaluate_many(pairs, inv, char_level=args.char_level, jobs=args.jobs)
    doc = evaluation.summarize(reports, scored_tasks)
    json_path = f"{args.out}.json"
    md_path = f"{args.out}.md"
    Path(json_path).write_text(
        json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    Path(md_path).write_text(evaluation.report_tables(doc), encoding="utf-8")
    _write_manifest(args, json_path, [args.tasks, args.samples], [json_path, md_path], started)
    agg = doc["aggregates"]
    print(
        f"pass_rate={agg['pass_rate']:.4f} reward@1={agg['reward_at_1']:.4f} over {agg['n_tasks']} tasks",
        file=sys.stderr,
    )
    return EXIT_OK


def _stats_vector(path, prop: str) -> list[float]:
    """One sample of `stats`: a flat JSON array of numbers, or `prop` of an
    eval report."""

    def numbers(values) -> list[float]:
        for v in values:
            if type(v) not in (int, float):  # no string, and `true` is no number
                raise dsl.SchemaError(f"sample values must be int or float, not {type(v).__name__}")
        return [float(v) for v in values]

    def parse(doc):
        if type(doc) is list:
            return numbers(doc)
        if type(doc) is not dict or "per_task" not in doc:
            raise dsl.SchemaError("neither a flat array nor an eval report")
        out: list[float] = []
        for entry in dsl.json_field(doc, "per_task", list):
            if prop == "reward_per_program":
                out.extend(numbers(dsl.json_field(entry, "rewards", list)))
            elif prop == "passing_programs":
                out.append(float(numbers(dsl.json_field(entry, "rewards", list)).count(1.0)))
            else:  # pass_rate, the last of argparse's choices
                out.append(1.0 if dsl.json_field(entry, "passed", bool) else 0.0)
        return out

    return read_json(path, parse)


def cmd_stats(args) -> int:
    alpha_adjusted = stats_mod.bonferroni(args.alpha, args.m)
    doc: dict = {
        "test": "wilcoxon-signed-rank",
        "alpha": args.alpha,
        "m": args.m,
        "alpha_adjusted": alpha_adjusted,
    }
    if (args.x is None) != (args.y is None):
        raise CliError("stats compares two samples: give both -x and -y, or neither", EXIT_PARSE)
    if args.x is not None:
        x = _stats_vector(args.x, args.property)
        y = _stats_vector(args.y, args.property)
        result = stats_mod.wilcoxon_signed_rank(x, y, alternative=args.alternative)
        doc.update(
            {
                "comparison": args.name or f"{args.x} vs {args.y}",
                "property": args.property,
                "alternative": args.alternative,
                "n": result.n,
                "statistic": result.statistic,
                "p": result.pvalue,
                "method": result.method,
                "significant": result.pvalue < alpha_adjusted,
            }
        )
    _print_or_write(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    def render(doc):
        aggregates = dsl.json_field(doc, "aggregates", dict)
        if args.format == "json":
            return json.dumps(aggregates, ensure_ascii=False, indent=2) + "\n"
        for pair in dsl.json_field(aggregates, "per_language_pair", dict).values():
            for metric in evaluation.TABLE_METRICS:  # a number or null; `true` is no number
                dsl.json_field(pair, metric, (int, float, type(None)))
        return evaluation.report_tables(doc)

    _print_or_write(read_json(args.eval, render), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soundlaw", description=__doc__)
    parser.add_argument("--version", action="version", version=f"soundlaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, table=True, out_required=False):
        """A subcommand with --out, and --table unless it reads no phones."""
        p = sub.add_parser(name, help=help)
        if table:
            p.add_argument("--table", help="feature table file (defaults to the bundled one)")
        p.add_argument("--out", required=out_required,
                       help="output path" if out_required else "output path (stdout when omitted)")
        p.set_defaults(func=func)
        return p

    p = command("tokenize", cmd_tokenize, "segment words into phones")
    p.add_argument("words", nargs="*", help="words to segment")
    p.add_argument("--lexicon", help="read words from a lexicon file")
    p.add_argument("--preprocessed", action="store_true", help="print boundary/separator tokens")

    p = command("apply", cmd_apply, "apply one law to words")
    p.add_argument("words", nargs="*")
    p.add_argument("-r", "--rule", help="one law in any surface, e.g. 't > d / _ #'")
    p.add_argument("--law-file", help="file holding one law in any surface")
    p.add_argument("--lexicon")
    p.add_argument("--changed-only", action="store_true")

    p = command("derive", cmd_derive, "run a cascade over a lexicon")
    p.add_argument("words", nargs="*")
    p.add_argument("--cascade", required=True, help="file of laws in any surface")
    p.add_argument("--lexicon")
    p.add_argument("--trace", action="store_true", help="print per-law diffs")

    p = command("parse-law", cmd_parse_law, "parse rules to law JSON")
    p.add_argument("-r", "--rule")
    p.add_argument("--input", help="file of laws in any surface (stdin when no -r or --input)")

    p = command("datagen", cmd_datagen, "generate synthetic PBE tasks", out_required=True)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (rp-ri)")
    p.add_argument("--config", help="JSON gateway config file (flags win over it)")
    p.add_argument("--cache-only", action="store_true", help="never touch the network")
    p.add_argument("--condition", required=True, choices=("rp-ri", "rp-li", "rp-pi", "idp-pi"))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n-examples", type=int, default=50)
    p.add_argument("--retry-budget", type=int, default=20)
    p.add_argument("--seed-lexicon", help="seed word list (rp-li nonce words / rp-pi protolexicon)")
    p.add_argument("--rules", help="rule database file (idp-pi)")
    p.add_argument("--lexicon", help="input lexicon (idp-pi)")
    p.add_argument("--fixtures", action="append", help="recorded transcript JSONL (repeatable)")
    p.add_argument("--endpoint", help="chat-completion endpoint URL")
    p.add_argument("--model")
    p.add_argument("--temperature", type=float)
    p.add_argument("--cache-dir")

    p = command("bench", cmd_bench, "build a single-law dataset from a cascade", out_required=True)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--cascade", help="cascade file (bundled demo when omitted)")
    p.add_argument("--lexicon", help="protoform lexicon (bundled demo when omitted)")
    p.add_argument("--pair", default="demo", help="language-pair label")
    p.add_argument("--distractor-fraction", type=float, default=0.15)
    p.add_argument("--distractor-min", type=int, default=2)

    p = command("eval", cmd_eval, "score candidate programs against tasks", out_required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--tasks", required=True)
    p.add_argument("--samples", required=True, help="JSONL of {task_id, sample_index, program|raw_text}")
    p.add_argument("--char-level", action="store_true", help="character-level edit distance")

    p = command("stats", cmd_stats, "paired significance tests", table=False)
    p.add_argument("-x", help="first sample: JSON array or eval report")
    p.add_argument("-y", help="second sample: JSON array or eval report")
    p.add_argument("--property", default="reward_per_program",
                   choices=("reward_per_program", "passing_programs", "pass_rate"))
    p.add_argument("--alternative", default="two-sided", choices=("two-sided", "less", "greater"))
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--m", type=int, default=1, help="number of comparisons (Bonferroni)")
    p.add_argument("--name", help="label for the comparison")

    p = command("report", cmd_report, "render tables from an eval report", table=False)
    p.add_argument("--eval", required=True, help="eval report JSON")
    p.add_argument("--format", choices=("json", "md"), default="md")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the manifest records what was parsed
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # mapped to the documented exit codes
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _classify(exc)


if __name__ == "__main__":
    sys.exit(main())
