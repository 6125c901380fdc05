"""Run the mutant catalogue: small faults planted in the package, each of which
named tests must catch.

Each entry of CATALOGUE gives a file, an exact text of it and the text that
replaces it, the kernel backend the fault lives in and the test targets (test
modules or node ids) that must fail.  For each entry this script copies the
tree, plants the fault, checks that the copy imports the named backend (a
fresh, empty kernel cache for "c"; ``CC=/bin/false`` as well for "python",
so that `_native` runs) and runs each target with pytest.  A mutant is killed
when every target fails, and survives when one passes.

The script exits 1 when a mutant survives, when its exact text does not
occur exactly once (the catalogue no longer follows the code), or when a
copy runs the wrong backend or a target cannot run.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench", ".bench_build",
                                ".benchmarks", "*.so")
TIMEOUT_S = 900
A07 = "tests/test_acceptance.py::test_a07_distance_oracles_full_grid"


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    backend: str  # "c" or "python"
    targets: tuple


CATALOGUE = [
    Mutant("levenshtein substitutes at cost 2", "src/soundlaw/_speedups.c",
           "d = prev[j - 1] + !r;", "d = prev[j - 1] + 2 * !r;",
           "c", (A07, "tests/test_kernels.py")),
    Mutant("levenshtein substitutes at cost 2", "src/soundlaw/_native.py",
           "d = prev[j - 1] + (ai != b[j - 1])", "d = prev[j - 1] + 2 * (ai != b[j - 1])",
           "python", (A07, "tests/test_kernels.py")),
    Mutant("lcs_pair drops its last match", "src/soundlaw/_speedups.c",
           "out != NULL && k < L[0] && i < p.m", "out != NULL && k < L[0] - 1 && i < p.m",
           "c", (A07, "tests/test_kernels.py")),
    Mutant("lcs_pair drops its last match", "src/soundlaw/_native.py",
           "            i += 1\n    return tuple(out)", "            i += 1\n    return tuple(out[:-1])",
           "python", (A07, "tests/test_kernels.py")),
    Mutant("a swallowed __eq__ error", "src/soundlaw/_speedups.c",
           "return PyObject_RichCompareBool(x, y, Py_EQ);", "return PyObject_RichCompareBool(x, y, Py_EQ) > 0;",
           "c", ("tests/test_kernels.py",)),
    Mutant("a later site wins the splice", "src/soundlaw/_speedups.c",
           "        if (s->at[rel + edits[e].pos] < 0)\n", "",
           "c", ("tests/test_rules.py", "tests/test_datagen.py")),
    Mutant("a later site wins the splice", "src/soundlaw/_native.py",
           "at.setdefault(start + pos, (kind, phones))", "at[start + pos] = (kind, phones)",
           "python", ("tests/test_rules.py", "tests/test_datagen.py")),
    Mutant("a context redraw cap of 39", "src/soundlaw/datagen.py",
           "CONTEXT_REDRAWS = 40", "CONTEXT_REDRAWS = 39",
           "c", ("tests/test_rules.py",)),
    Mutant("below draws (n - 1).bit_length() bits", "src/soundlaw/_speedups.c",
           "for (k = 0; n >> k; k++)", "for (k = 0; (n - 1) >> k; k++)",
           "c", ("tests/test_kernels.py", "tests/test_datagen.py")),
    Mutant("below draws (n - 1).bit_length() bits", "src/soundlaw/_native.py",
           "    k = n.bit_length()\n    r = getrandbits(k)\n    while not 0 <= r < n:",
           "    k = (n - 1).bit_length()\n    r = getrandbits(k)\n    while not 0 <= r < n:",
           "python", ("tests/test_kernels.py", "tests/test_datagen.py")),
    Mutant("draw_inputs' context-free test skips the last start", "src/soundlaw/_speedups.c",
           "for (i = 0; i + win->w <= n; i++) {", "for (i = 0; i + win->w < n; i++) {",
           "c", ("tests/test_rules.py",)),
    Mutant("draw_inputs' shuffle draws below(i)", "src/soundlaw/_speedups.c",
           "below(d.getrandbits, i + 1)", "below(d.getrandbits, i)",
           "c", ("tests/test_kernels.py", "tests/test_datagen.py")),
    Mutant("draw_inputs' shuffle draws below(i)", "src/soundlaw/_native.py",
           "j = below(i + 1)", "j = below(i)",
           "python", ("tests/test_kernels.py", "tests/test_datagen.py")),
    Mutant("draw_inputs' two-interior layout swaps a and b", "src/soundlaw/_speedups.c",
           "|| draw_context(&d, d.picks + 1 + a) < 0 || draw_context(&d, d.picks + 2 + a + b + w) < 0\n"
           "            || draw_rest(&d, d.picks, 1 + a) < 0 || draw_rest(&d, d.picks + 1 + a + w, 1 + b) < 0",
           "|| draw_context(&d, d.picks + 1 + b) < 0 || draw_context(&d, d.picks + 2 + a + b + w) < 0\n"
           "            || draw_rest(&d, d.picks, 1 + b) < 0 || draw_rest(&d, d.picks + 1 + b + w, 1 + a) < 0",
           "c", ("tests/test_kernels.py", "tests/test_datagen.py")),
    Mutant("draw_inputs' two-interior layout swaps a and b", "src/soundlaw/_native.py",
           "others[:1 + a] + first + others[1 + a:2 + a + b]", "others[:1 + b] + first + others[1 + b:2 + a + b]",
           "python", ("tests/test_kernels.py", "tests/test_datagen.py")),
    Mutant("draw_inputs' ends-with-context word draws its context first", "src/soundlaw/_speedups.c",
           "|| draw_rest(&d, d.picks, total - w) < 0\n            || draw_context(&d, d.picks + total - w) < 0",
           "|| draw_context(&d, d.picks + total - w) < 0\n            || draw_rest(&d, d.picks, total - w) < 0",
           "c", ("tests/test_kernels.py", "tests/test_datagen.py")),
    Mutant("draw_inputs' ends-with-context word draws its context first", "src/soundlaw/_native.py",
           "        others = rest(length(w) - w)\n        words.append(others + context())",
           "        total = length(w)\n        ctx = context()\n        words.append(rest(total - w) + ctx)",
           "python", ("tests/test_kernels.py", "tests/test_datagen.py")),
    Mutant("draw_inputs' empty-slot path skips the first word's length", "src/soundlaw/_speedups.c",
           "    tenth = n / 10;\n",
           "    for (j = 0; j < w; j++) {\n        if (d.counts[j] == 0) {\n"
           "            PyErr_SetString(PyExc_IndexError, \"a context slot has no member\");\n"
           "            goto fail;\n        }\n    }\n    tenth = n / 10;\n",
           "c", ("tests/test_kernels.py", "tests/test_datagen.py", "tests/test_rules.py")),
    Mutant("draw_inputs' empty-slot path skips the first word's length", "src/soundlaw/_native.py",
           "    w = len(members)\n",
           "    if not all(members):\n        raise IndexError(\"a context slot has no member\")\n    w = len(members)\n",
           "python", ("tests/test_kernels.py", "tests/test_datagen.py", "tests/test_rules.py")),
    Mutant("lcs_pair's backtrack takes a pair without comparing it", "src/soundlaw/_speedups.c",
           "if ((r = same(p.a[i], p.b[j])) < 0)\n            Py_CLEAR(out);",
           "if ((r = L[i * w + j] > L[i * w + j + 1] && L[i * w + j] > L[(i + 1) * w + j]) < 0)\n"
           "            Py_CLEAR(out);",
           "c", ("tests/test_kernels.py",)),
    Mutant("lcs_pair's backtrack takes a pair without comparing it", "src/soundlaw/_native.py",
           "        if a[i] == b[j]:\n", "        if L[i][j] > L[i][j + 1] and L[i][j] > L[i + 1][j]:\n",
           "python", ("tests/test_kernels.py",)),
    Mutant("lcs_pair keeps empty slots after a backtrack that takes fewer pairs", "src/soundlaw/_speedups.c",
           "    if (out != NULL && k < L[0])\n        _PyTuple_Resize(&out, k);\n", "",
           "c", ("tests/test_kernels.py",)),
    Mutant("a negated slot matches the newline", "src/soundlaw/_speedups.c",
           "            map['\\n' >> 3] &= (unsigned char)~(1u << ('\\n' & 7));\n", "",
           "c", ("tests/test_rules.py",)),
    Mutant("a negated slot matches the newline", "src/soundlaw/_native.py",
           'f"[^\\n{chars}]"', 'f"[^\\x00{chars}]"',
           "python", ("tests/test_rules.py",)),
    Mutant("a window consumes all its slots", "src/soundlaw/_native.py",
           "re.compile(f\"{first}(?={''.join(rest)})\")", "re.compile(f\"{first}{''.join(rest)}\")",
           "python", ("tests/test_rules.py",)),
    Mutant("a splice line of 2 * len + 2", "src/soundlaw/_speedups.c",
           "end = first + 2 * n + 3;", "end = first + 2 * n + 2;",
           "c", ("tests/test_rules.py", "tests/test_datagen.py")),
    Mutant("find_sites' first-slot prefilter reads the next bit", "src/soundlaw/_speedups.c",
           "if (!(first[s[i] >> 3] >> (s[i] & 7) & 1))", "if (!(first[s[i] >> 3] >> ((s[i] + 1) & 7) & 1))",
           "c", ("tests/test_rules.py",)),
    Mutant("same() compares all but the last code unit", "src/soundlaw/_speedups.c",
           "PyUnicode_DATA(y), (size_t)len * kind) == 0", "PyUnicode_DATA(y), (size_t)(len - 1) * kind) == 0",
           "c", (A07, "tests/test_kernels.py")),
    Mutant("idp-pi draws its context unweighted", "src/soundlaw/datagen.py",
           "rng.choices(cands, kernels.scan_counts(cands, inputs))[0]", "rng.choices(cands)[0]",
           "c", ("tests/test_datagen.py",)),
    Mutant("rp-li and rp-pi keep an inert law", "src/soundlaw/datagen.py",
           "                if not any(changed):\n                    continue\n", "",
           "c", ("tests/test_datagen.py",)),
    Mutant("a feature class missing one member", "src/soundlaw/rules.py",
           "name: tuple(t for t in inv.features if inv.in_class(name, t)) for name",
           "name: tuple(t for t in inv.features if inv.in_class(name, t))[1:] for name",
           "c", ("tests/test_rules.py", "tests/test_audit.py")),
]


def plant(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    source = path.read_text(encoding="utf-8")
    found = source.count(mutant.text)
    if found != 1:
        raise LookupError(f"its text occurs {found} times in {mutant.file}, not once")
    path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")


def check_backend(tree: Path, env: dict, backend: str) -> None:
    probe = "from soundlaw import kernels; print(kernels.BACKEND); print(kernels.BACKEND_REASON)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tree, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    got = proc.stdout.splitlines()
    if proc.returncode != 0 or not got or got[0] != backend:
        detail = " ".join(got[1:] or proc.stderr.strip().splitlines()[-1:])
        raise RuntimeError(f"the copy runs backend {got[:1]}, not {backend!r}: {detail}")


def fails(tree: Path, env: dict, target: str) -> bool:
    """Whether `target` fails: a test fails, the interpreter crashes or the
    run hangs.  Raises when pytest cannot run the target."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", target]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    if proc.returncode == 0:
        return False
    if proc.returncode == 1 or proc.returncode < 0:  # a test failed, or the interpreter crashed
        return True
    tail = " ".join(proc.stdout.strip().splitlines()[-1:])
    raise RuntimeError(f"pytest exited {proc.returncode} on {target}: {tail}")


def run(mutant: Mutant, scratch: Path) -> tuple[bool, str]:
    """(killed, what happened)."""
    tree = scratch / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    plant(tree, mutant)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), XDG_CACHE_HOME=str(tree / ".kernel-cache"))
    if mutant.backend == "python":
        env["CC"] = "/bin/false"
    check_backend(tree, env, mutant.backend)
    passed = [target for target in mutant.targets if not fails(tree, env, target)]
    if passed:
        return False, "passes " + ", ".join(passed)
    return True, "fails " + ", ".join(mutant.targets)


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="soundlaw-mutants-") as scratch:
        for mutant in CATALOGUE:
            start = time.monotonic()
            try:
                killed, detail = run(mutant, Path(scratch))
                status = "killed" if killed else "SURVIVED"
            except (LookupError, RuntimeError, subprocess.TimeoutExpired) as exc:
                killed, status, detail = False, "ERROR", str(exc)
            bad += not killed
            print(f"{status:8} [{mutant.backend:6}] {mutant.file}: {mutant.name} "
                  f"({detail}; {time.monotonic() - start:.1f} s)", flush=True)
    print(f"{len(CATALOGUE) - bad} of {len(CATALOGUE)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
