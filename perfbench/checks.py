"""The benchmark's correctness gate.

Every check returns (name, ok, detail).  The parent counts each one as an
attempted operation and each failure as a failed one, so `error_rate` is
(failed CLI steps + failed checks) / (CLI steps + checks).
"""

from __future__ import annotations

import hashlib
import json
import os

BOUNDARY, SEPARATOR = "#", "@"


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_digests(directory: str, outputs) -> dict[str, str]:
    return {
        name: sha256_file(os.path.join(directory, name))
        for name in outputs
        if os.path.exists(os.path.join(directory, name))
    }


def same_digests(label: str, got: dict, want: dict) -> list[tuple[str, bool, str]]:
    """One check per expected file: present with the expected digest."""
    results = []
    for name in sorted(want):
        ok = got.get(name) == want[name]
        detail = "" if ok else f"{name}: {got.get(name, 'missing')[:12]} != {want[name][:12]}"
        results.append((f"{label}:{name}", ok, detail))
    return results


def gold_rewards(eval_path: str, samples_path: str) -> list[tuple[str, bool, str]]:
    """Every sample that carries the gold law scores reward exactly 1."""
    gold_samples: dict[str, set[int]] = {}
    with open(samples_path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if doc["renders"] == "gold":
                gold_samples.setdefault(doc["task_id"], set()).add(doc["sample_index"])
    with open(eval_path, encoding="utf-8") as fh:
        per_task = {entry["task_id"]: entry for entry in json.load(fh)["per_task"]}
    bad = [
        f"{task_id}#{index}"
        for task_id, indices in sorted(gold_samples.items())
        for index in sorted(indices)
        if task_id not in per_task or per_task[task_id]["rewards"][index] != 1.0
    ]
    ok = bool(gold_samples) and not bad
    return [("gold-reward-1", ok, f"{len(bad)} gold samples below 1: {bad[:5]}" if bad else "")]


def replay_hash(path: str, expected: str) -> list[tuple[str, bool, str]]:
    got = sha256_file(path) if os.path.exists(path) else "missing"
    return [("rp-li-replay-hash", got == expected, "" if got == expected else got)]


# ---------------------------------------------------------------------------
# independent window scan over rp-ri tasks (the A05 quota audit)


def _slot_matches(pred: dict, token: str, inv) -> bool:
    kind, args = pred["kind"], pred["args"]
    if kind == "is":
        return token == args[0]
    if kind == "is-not":
        return token != args[0]
    if kind == "in":
        return token in args
    if kind == "not-in":
        return token not in args
    if kind == "class":
        return inv.in_class(args[0], token)
    return not inv.in_class(args[0], token)


def _phone_context(preds: list[dict]) -> list[dict]:
    slots = [p for p in preds if not (p["kind"] == "is" and p["args"] == [SEPARATOR])]
    if slots and slots[0]["kind"] in ("is", "is-not") and slots[0]["args"] == [BOUNDARY]:
        slots = slots[1:]
    if slots and slots[-1]["kind"] in ("is", "is-not") and slots[-1]["args"] == [BOUNDARY]:
        slots = slots[:-1]
    return slots


def _scan(preds: list[dict], tokens: list[str], inv) -> list[int]:
    width = len(preds)
    return [
        i
        for i in range(len(tokens) - width + 1)
        if all(_slot_matches(p, tokens[i + k], inv) for k, p in enumerate(preds))
    ]


def audit_rp_ri(tasks_path: str, picks: list[int], inv) -> list[tuple[str, bool, str]]:
    """For the picked tasks: the placement quotas hold under a scan written
    here, and every changed example contains a match of the whole window."""
    with open(tasks_path, encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    failures = []
    for index in picks:
        doc = docs[index]
        preds = doc["gold_law"]["predicates"]
        context = _phone_context(preds)
        width = len(context)
        words = [w.split() for w in doc["inputs"]]
        n = len(words)
        bearing = begin = end = one_inside = two_inside = 0
        for word in words:
            occ = _scan(context, word, inv)
            inside = [i for i in occ if 0 < i and i + width < len(word)]
            bearing += bool(occ)
            begin += 0 in occ
            end += (len(word) - width) in occ
            one_inside += len(inside) >= 1
            two_inside += len(inside) >= 2
        tenth = n // 10
        if bearing < -(-2 * n // 3) or min(begin, end, one_inside, two_inside) < tenth:
            failures.append(f"{doc['id']}: quotas {bearing}/{begin}/{end}/{one_inside}/{two_inside}")
        for word, out in zip(doc["inputs"], doc["outputs"]):
            tokens = [BOUNDARY, SEPARATOR]
            for phone in word.split():
                tokens += [phone, SEPARATOR]
            tokens.append(BOUNDARY)
            if out != word and not _scan(preds, tokens, inv):
                failures.append(f"{doc['id']}: {word!r} changed without a window match")
    return [("rp-ri-window-scan", not failures and bool(picks), "; ".join(failures[:3]))]
