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
           "out = PyTuple_New(L[0]);\n    for (i = j = k = 0; out != NULL && i < p.m && j < p.n;) {",
           "out = PyTuple_New(L[0] > 0 ? L[0] - 1 : 0);\n"
           "    for (i = j = k = 0; out != NULL && i < p.m && j < p.n && k < PyTuple_GET_SIZE(out);) {",
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
    Mutant("draw_clear's window scan skips the last start", "src/soundlaw/_speedups.c",
           "for (i = 0; i + win->w <= ntok; i++) {", "for (i = 0; i + win->w < ntok; i++) {",
           "c", ("tests/test_rules.py",)),
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
