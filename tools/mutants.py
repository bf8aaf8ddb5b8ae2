"""Run the test suite against a catalogue of one-line mutants of src/matrex.

Each mutant replaces one exact piece of text in one source file with
another, and names what the change breaks.  For each mutant the tool copies
the checkout to a temporary directory, applies the mutant there, and runs
the suite with ``pytest -x`` under a timeout of TIMEOUT seconds.  The suite must
fail: a mutant that passes it survives, and the tool then exits 1.  It also
exits 1, before running anything, when the old text of any entry is not
found exactly once, so the catalogue cannot silently rot as the code
changes.  A run that hits the timeout counts as killed, and is reported.

Mutants known to be equivalent (no test can tell them apart) are listed
with the reason, their old text is checked, and they are not run.

Usage: python tools/mutants.py

Standard library only; the suite needs pytest and hypothesis.  Each
surviving mutant costs a whole suite run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per mutant


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    breaks: str  # what the mutant breaks, or why it is equivalent


MUTANTS = [
    # --- the direct-insertion test, PreparedPart.takes -----------------------
    Mutant("augment-highest-arm-first", "src/matrex/union.py",
           "    for i in arms_of[source]:\n        if prepared[i].takes(source):",
           "    for i in reversed(arms_of[source]):\n        if prepared[i].takes(source):",
           "a direct insertion goes to the highest arm that takes it, not the lowest"),
    Mutant("default-takes-ignores-x", "src/matrex/core.py",
           "if self.matroid._indep(self.whole() | {x}):",
           "if self.matroid._indep(self.whole()):",
           "the oracle part takes every element, dependent or not"),
    Mutant("default-circuit-asks-again", "src/matrex/core.py",
           "if x != self._refused and self.takes(x):",
           "if self.takes(x):",
           "the oracle part's circuit repeats the query takes just made (work only)"),
    Mutant("uniform-takes-a-full-part", "src/matrex/core.py",
           "return len(self.part) < self.matroid.rank_bound",
           "return len(self.part) <= self.matroid.rank_bound",
           "a uniform part of rank-bound size takes one more element"),
    Mutant("forest-takes-by-endpoints", "src/matrex/core.py",
           "return self.root[u] != self.root[v]  # False for a self-loop: u == v",
           "return u != v",
           "a forest part takes an edge that closes a cycle"),
    Mutant("echelon-takes-reduces-a-full-part", "src/matrex/core.py",
           "return len(self.part) < self.matroid.rows and self._reduce(x)[1] is not None",
           "return self._reduce(x)[1] is not None",
           "a full linear part reduces every element it refuses (work only)"),
    Mutant("echelon-reuses-no-reduction", "src/matrex/core.py",
           "        if self.last is not None and self.last[0] == x:\n"
           "            return self.last[1], self.last[2]\n",
           "",
           "circuit and add reduce again what takes just reduced (work only)"),
    Mutant("basis-takes-ignores-x", "src/matrex/core.py",
           "return any(not grown & ~b for b in self.matroid._masks)",
           "return any(not self.mask & ~b for b in self.matroid._masks)",
           "a basis part takes an element that no basis covers with the part"),
    Mutant("slot-takes-a-parallel-copy", "src/matrex/core.py",
           "return e not in self.cover and self.inner.takes(e)",
           "return self.inner.takes(e)",
           "a slot part takes a second copy of an element it covers"),
    # --- the rank cap of is_basis ---------------------------------------------
    Mutant("rank-cap-skips-independence", "src/matrex/core.py",
           "        if len(s) == self._rank_cap:\n            return self._indep(s)",
           "        if len(s) == self._rank_cap:\n            return True",
           "every set of rank-cap size is a basis, dependent or not"),
    Mutant("linear-rank-cap-too-high", "src/matrex/core.py",
           "self._rank_cap = rows\n",
           "self._rank_cap = rows + 1\n",
           "linear bases are checked by a full rank scan again (work only)"),
    Mutant("graphic-rank-cap-too-high", "src/matrex/core.py",
           "self._rank_cap = max(self._order - 1, 0)",
           "self._rank_cap = self._order",
           "graphic bases are checked by a full rank scan again (work only)"),
    Mutant("graphic-greedy-stops-at-vertex-count", "src/matrex/core.py",
           "return frozenset(itertools.islice(joined, self._rank_cap))",
           "return frozenset(itertools.islice(joined, max(self.vertex_count - 1, 0)))",
           "the greedy forest scan walks every edge when a vertex id is untouched (work only)"),
    # --- the one-byte pivot ---------------------------------------------------
    Mutant("pivot-counts-from-the-top", "src/matrex/core.py",
           "return width - len(rest) if rest else None",
           "return len(rest) - 1 if rest else None",
           "the one-byte pivot is read from the wrong end"),
    Mutant("pivot-reads-raw-bytes", "src/matrex/core.py",
           "self.residues = bytes(b % prime for b in range(256))",
           "self.residues = bytes(range(256))",
           "a field that is a nonzero multiple of p counts as a pivot"),
    # --- the echelons' pivots, without unpivoted-column bookkeeping ---------
    Mutant("echelon-full-one-row-early", "src/matrex/core.py",
           "        if len(self.rows) == self.width:\n            return False\n"
           "        vec = self.reduce(vec)\n        col = self.pivot(vec)",
           "        if len(self.rows) == self.width - 1:\n            return False\n"
           "        vec = self.reduce(vec)\n        col = self.pivot(vec)",
           "a GF(p) echelon one row short of full refuses every vector"),
    Mutant("bit-echelon-full-one-row-early", "src/matrex/core.py",
           "        if len(self.rows) == self.width:\n            return False\n"
           "        vec = self.reduce(vec)\n        low = vec & self.columns",
           "        if len(self.rows) == self.width - 1:\n            return False\n"
           "        vec = self.reduce(vec)\n        low = vec & self.columns",
           "a GF(2) echelon one row short of full refuses every vector"),
    Mutant("wide-pivot-reads-raw-fields", "src/matrex/core.py",
           "for c, a in enumerate(fields.unpack(low, width)) if a % p), None)",
           "for c, a in enumerate(fields.unpack(low, width)) if a), None)",
           "a wide field that is a nonzero multiple of p counts as a pivot"),
    # --- the exchange's slot lists and the symmetric shortcut -----------------
    Mutant("exchange-arms-descending", "src/matrex/exchange.py",
           "pairs = [tuple(sorted({tag, (tag + 1) % k})) for tag in range(k)]",
           "pairs = [tuple(sorted({tag, (tag + 1) % k}, reverse=True)) for tag in range(k)]",
           "the exchange solve asks a slot's higher arm first, breaking the tie-break"),
    Mutant("symmetric-shortcut-skips-bases-check", "src/matrex/exchange.py",
           "        _check_bases(matroid, (b1, b2))\n",
           "",
           "a shared element of two non-bases is returned as an exchange"),
    # --- the search's skipped candidates -------------------------------------
    Mutant("search-skips-a1-inside-the-union", "src/matrex/verify.py",
           "return not seed & ~functools.reduce(operator.and_, bases) or seed == bases[0]",
           "return not seed & ~functools.reduce(operator.or_, bases) or seed == bases[0]",
           "the search skips every candidate, witnesses included"),
    # --- guards that earlier mutation runs found unguarded --------------------
    Mutant("verify-partition-allows-overlap", "src/matrex/union.py",
           "        if part & seen:\n            return False\n",
           "",
           "verify_partition accepts parts that share an element"),
    Mutant("certificate-accepts-equal-rank-sum", "src/matrex/union.py",
           "if rank_sum >= len(witness):",
           "if rank_sum > len(witness):",
           "a witness whose rank sum equals its size passes as a certificate"),
    Mutant("verify-witness-without-shift-by-one", "src/matrex/verify.py",
           "    return shift1_seen",
           "    return True",
           "a family with no shift-by-one tuple passes as a witness"),
    Mutant("forest-cut-keeps-tree-size", "src/matrex/core.py",
           "        self.size[self.root[v]] -= self.size[u]\n",
           "",
           "a cut tree keeps its old size, so links re-hang the wrong tree (work only)"),
]

#: Mutants that no test can tell apart from the code, with the reason.
EQUIVALENT: list[Mutant] = [
    Mutant("uniform-takes-below-bound-as-unequal", "src/matrex/core.py",
           "return len(self.part) < self.matroid.rank_bound",
           "return len(self.part) != self.matroid.rank_bound",
           "add refuses to grow a part past the rank bound, so it never exceeds it"),
    Mutant("echelon-takes-below-rows-as-unequal", "src/matrex/core.py",
           "return len(self.part) < self.matroid.rows and",
           "return len(self.part) != self.matroid.rows and",
           "add refuses a dependent element, so a part never holds more than rows"),
]


def check_catalogue(entries) -> list[str]:
    """A message for each entry whose old text is not found exactly once,
    or whose name is not unique."""
    problems, names = [], set()
    for m in entries:
        if m.name in names:
            problems.append(f"{m.name}: duplicate name")
        names.add(m.name)
        path = ROOT / m.path
        count = path.read_text().count(m.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.name}: old text found {count} times in {m.path}")
    return problems


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply ``mutant`` to a copy of the checkout and run the suite there.
    Returns "killed", "timeout" or "survived", and the seconds taken."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".bench_out", ".bench_work-*", ".bench_build")
    with tempfile.TemporaryDirectory(prefix="matrex-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        target = copy / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new, 1))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        env.setdefault("HYPOTHESIS_PROFILE", "ci")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        start = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", time.monotonic() - start
        return ("survived" if done.returncode == 0 else "killed"), time.monotonic() - start


def main() -> int:
    problems = check_catalogue(MUTANTS + EQUIVALENT)
    if problems:
        print("\n".join(problems))
        return 1
    survivors = []
    for m in MUTANTS:
        verdict, seconds = run(m)
        print(f"{verdict:8} {seconds:6.1f} s  {m.name}: {m.breaks}", flush=True)
        if verdict == "survived":
            survivors.append(m.name)
    for m in EQUIVALENT:
        print(f"{'skipped':8} {'':8}  {m.name}: equivalent, {m.breaks}")
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
