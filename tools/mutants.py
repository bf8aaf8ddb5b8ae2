"""Run the test suite against a catalogue of one-line mutants of src/matrex.

Each mutant replaces one exact piece of text in one source file with
another, names what the change breaks, and names the test (a file or a node
id) that should kill it.  For each mutant the tool copies the checkout to a
temporary directory, applies the mutant there, and runs that test with
``pytest -x``; only when it passes does the whole suite run, with ``-x``
too, so a verdict is never weaker than the suite's.  The suite runs without
``tests/test_tools.py``: its catalogue check fails in every mutated copy,
whose old text is gone, so it would kill every mutant.  Each run has a
timeout of TIMEOUT seconds.  The mutant must fail a run: one that passes
the suite survives, and the tool then exits 1.  It also exits 1, before
running anything, when the old text of any entry is not found exactly once
or its named test does not exist, so the catalogue cannot silently rot as
the code or the tests change.  A run that hits the timeout counts as
killed, and is reported.  Each run's address space is capped at MEMORY_CAP
bytes (2 GiB), so a mutant that makes a test hold more than that fails it,
by a MemoryError, instead of filling a small machine.

Mutants known to be equivalent (no test can tell them apart) are listed
with the reason and the test that covers their code; their old text and
test are checked, and they are not run.

Usage: python tools/mutants.py

Standard library only; the suite needs pytest and hypothesis.  Each
surviving mutant, and each one its named test misses, costs a whole suite
run.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per mutant
MEMORY_CAP = 2 * 2**30  # bytes of address space per pytest run


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    breaks: str  # what the mutant breaks, or why it is equivalent
    test: str  # the test file or node id run first, or that covers an equivalent one


MUTANTS = [
    # --- the search: takes() for sink arcs, circuit() of open arms that refuse
    Mutant("augment-owned-node-never-sinks", "src/matrex/union.py",
           "if home is not None and prepared[i].takes(x):",
           "if False:",
           "a search finds no sink arc, so every insertion that searches fails",
           test="tests/test_circuits.py::test_solver_matches_reference_on_random_problems"),
    Mutant("augment-asks-the-source-again", "src/matrex/union.py",
           "if home is not None and prepared[i].takes(x):",
           "if prepared[i].takes(x):",
           "a search asks the source's arms again what the direct insertion asked (work only)",
           test="tests/test_union.py::TestExamples::test_swap_through_the_default_prepared_part"),
    Mutant("augment-asks-a-closed-arm-for-its-circuit", "src/matrex/union.py",
           "                if i in closed:  # all of its part is labelled: no label is new\n"
           "                    continue\n",
           "",
           "a search asks an arm whose whole part it labelled for circuits (work only)",
           test="tests/test_exchange.py::TestOracleBoundary"
                "::test_uniform_search_asks_no_closed_arm_for_a_circuit"),
    Mutant("augment-arm-never-closes", "src/matrex/union.py",
           "                if len(circuit) == len(prepared[i].part):\n"
           "                    closed.add(i)\n",
           "",
           "a search never marks an arm whose whole part it labelled, and asks it for "
           "circuits again (work only)",
           test="tests/test_exchange.py::TestOracleBoundary"
                "::test_uniform_search_asks_no_closed_arm_for_a_circuit"),
    Mutant("augment-closed-arm-skips-takes", "src/matrex/union.py",
           "if home is not None and prepared[i].takes(x):",
           "if home is not None and i not in closed and prepared[i].takes(x):",
           "a search misses the sink arcs into an arm whose whole part it labelled",
           test="tests/test_circuits.py::test_solver_matches_reference_where_searches_close_arms"),
    Mutant("augment-any-circuit-closes", "src/matrex/union.py",
           "                if len(circuit) == len(prepared[i].part):\n",
           "                if True:\n",
           "a search stops asking an arm for circuits after any circuit, so it misses labels",
           test="tests/test_circuits.py::test_solver_matches_reference_where_searches_close_arms"),
    Mutant("path-keeps-the-old-owner", "src/matrex/union.py",
           "        owner[x] = arm\n",
           "",
           "a path moves its nodes but leaves their owners as they were, so later searches "
           "skip the wrong arm and remove nodes from arms that do not hold them",
           test="tests/test_circuits.py::test_solver_matches_reference_on_random_problems"),
    Mutant("path-adds-before-it-removes", "src/matrex/union.py",
           "        if old is not None:\n            prepared[old].remove(x)\n"
           "        prepared[arm].add(x)\n",
           "        prepared[arm].add(x)\n        if old is not None:\n"
           "            prepared[old].remove(x)\n",
           "a node joins its new arm before it leaves its owner's part",
           test="tests/test_union.py::TestExamples::test_a_path_moves_each_node_as_it_walks_back"),
    # --- chunked labels, and the containers of arms_of and owner -------------
    Mutant("augment-chunk-stays-unlabelled", "src/matrex/union.py",
           "                labelled.update(new)\n",
           "",
           "a chunk is queued but not labelled, so later chunks label its nodes again and "
           "a failed search returns only its source",
           test="tests/test_union.py::TestExamples::test_pigeonhole_certificate"),
    Mutant("augment-chunk-descending", "src/matrex/union.py",
           "new = sorted(targets - labelled)",
           "new = sorted(targets - labelled, reverse=True)",
           "swap-arc targets are expanded in descending id order, which breaks the tie-break",
           test="tests/test_circuits.py::test_solver_matches_reference_on_random_problems"),
    Mutant("partition-reads-a-mapping-as-a-sequence", "src/matrex/union.py",
           "    if isinstance(arms_of, Mapping):\n",
           "    if False:\n",
           "a mapping's elements are taken to be 0..N-1, so a universe with other ids fails",
           test="tests/test_union.py::TestExamples::test_a_universe_of_large_ids_costs_its_size"),
    Mutant("partition-reads-a-sequence-as-a-mapping", "src/matrex/union.py",
           "    if isinstance(arms_of, Mapping):\n",
           "    if True:\n",
           "the exchange's slot lists are read as a mapping, so their elements are the lists",
           test="tests/test_circuits.py::test_slot_lists_solve_as_a_dict_does"),
    # --- the direct-insertion test, PreparedPart.takes -----------------------
    Mutant("augment-highest-arm-first", "src/matrex/union.py",
           "    for i in arms_of[source]:\n        if prepared[i].takes(source):",
           "    for i in reversed(arms_of[source]):\n        if prepared[i].takes(source):",
           "a direct insertion goes to the highest arm that takes it, not the lowest",
           test="tests/test_circuits.py::test_direct_and_searched_insertions_match_reference"),
    Mutant("default-takes-ignores-x", "src/matrex/core.py",
           "return self.matroid._indep(frozenset(self.part | {x}))",
           "return self.matroid._indep(frozenset(self.part))",
           "the oracle part takes every element, dependent or not",
           test="tests/test_circuits.py::test_circuits_match_the_oracle"),
    Mutant("uniform-takes-a-full-part", "src/matrex/core.py",
           "return len(self.part) < self.matroid.rank_bound",
           "return len(self.part) <= self.matroid.rank_bound",
           "a uniform part of rank-bound size takes one more element",
           test="tests/test_circuits.py::test_circuits_match_the_oracle"),
    Mutant("forest-takes-by-endpoints", "src/matrex/core.py",
           "return self.root[u] != self.root[v]  # False for a self-loop: u == v",
           "return u != v",
           "a forest part takes an edge that closes a cycle",
           test="tests/test_circuits.py::test_circuits_match_the_oracle"),
    Mutant("echelon-takes-reduces-a-full-part", "src/matrex/core.py",
           "return len(self.part) < self.matroid.rows and self._reduce(x)[1] is not None",
           "return self._reduce(x)[1] is not None",
           "a full linear part reduces every element it refuses (work only)",
           test="tests/test_exchange.py::TestOracleBoundary::test_work_per_solve_is_pinned"),
    Mutant("echelon-reuses-no-reduction", "src/matrex/core.py",
           "        if self._last is not None and self._last[0] == x:\n"
           "            return self._last[1:]\n",
           "",
           "circuit and add reduce again what takes just reduced (work only)",
           test="tests/test_exchange.py::TestOracleBoundary::test_work_per_solve_is_pinned"),
    Mutant("echelon-memo-outlives-a-remove", "src/matrex/core.py",
           "        PreparedPart.remove(self, y)\n        self._last = None\n"
           "        j = self.order.index(y)",
           "        PreparedPart.remove(self, y)\n        j = self.order.index(y)",
           "a linear part answers from a reduction made before its last remove",
           test="tests/test_circuits.py::test_takes_matches_circuits_after_changes"),
    Mutant("basis-memo-outlives-a-remove", "src/matrex/core.py",
           "        self._last = None\n        self.mask ^= self.matroid._weight[y]",
           "        self.mask ^= self.matroid._weight[y]",
           "a basis part answers from a scan made before its last remove",
           test="tests/test_circuits.py::test_basis_part_scans_the_family_once_per_element"),
    Mutant("basis-circuit-ignores-x", "src/matrex/core.py",
           "grown, closing = self.mask | w, 0",
           "grown, closing = self.mask, 0",
           "a basis part takes an element that no basis covers with the part",
           test="tests/test_circuits.py::test_circuits_match_the_oracle"),
    Mutant("basis-memo-ignores-x", "src/matrex/core.py",
           "if self._last is None or self._last[0] != x:",
           "if self._last is None:",
           "a basis part answers for x what it found for the element asked before",
           test="tests/test_circuits.py::test_basis_part_scans_the_family_once_per_element"),
    Mutant("basis-part-forgets-its-scan", "src/matrex/core.py",
           "if self._last is None or self._last[0] != x:",
           "if True:",
           "the circuit and add of a basis part scan the family again after takes (work only)",
           test="tests/test_circuits.py::test_basis_part_scans_the_family_once_per_element"),
    # --- the refusal of an add of a member ------------------------------------
    Mutant("default-add-takes-a-member", "src/matrex/core.py",
           "        if x in self.part or not self.takes(x):\n"
           "            raise self._dependent(x)\n        self.part.add(x)\n",
           "        if not self.takes(x):\n"
           "            raise self._dependent(x)\n        self.part.add(x)\n",
           "the oracle part and a basis part accept an add of a member",
           test="tests/test_circuits.py::test_prepared_parts_refuse_misuse"),
    Mutant("uniform-add-takes-a-member", "src/matrex/core.py",
           "if x in self.part or len(self.part) >= self.matroid.rank_bound:",
           "if len(self.part) >= self.matroid.rank_bound:",
           "a uniform part accepts an add of a member",
           test="tests/test_circuits.py::test_prepared_parts_refuse_misuse"),
    Mutant("basis-add-skips-the-base-check", "src/matrex/core.py",
           "        super().add(x)\n",
           "        self.part.add(x)\n",
           "a basis part accepts an add of a member or of an element that makes it dependent",
           test="tests/test_circuits.py::test_prepared_parts_refuse_misuse"),
    Mutant("part-removes-a-non-member", "src/matrex/core.py",
           "        if y not in self.part:\n",
           "        if False:\n",
           "a remove of a non-member raises a bare KeyError, not an InternalVerificationError",
           test="tests/test_circuits.py::test_prepared_parts_refuse_misuse"),
    Mutant("echelon-memo-outlives-an-add", "src/matrex/core.py",
           ", col)\n        self.part.add(x)\n        self._last = None\n",
           ", col)\n        self.part.add(x)\n",
           "after add(x) the memo names x, so a second add(x) reuses x's reduction "
           "and keeps a member with a second row tagged like it",
           test="tests/test_circuits.py::test_prepared_parts_refuse_misuse"),
    Mutant("slot-takes-a-parallel-copy", "src/matrex/core.py",
           "return e not in self.cover and self.inner.takes(e)",
           "return self.inner.takes(e)",
           "a slot part takes a second copy of an element it covers",
           test="tests/test_circuits.py::test_slot_circuits_match_the_oracle"),
    # --- the graphic lift: forest parts over the slots ------------------------
    Mutant("graphic-has-no-parallel-lift", "src/matrex/core.py",
           "graphic = isinstance(inner, GraphicMatroid)",
           "graphic = False",
           "a graphic lift wraps inner forest parts in slot parts again (work only)",
           test="tests/test_exchange.py::TestOracleBoundary::test_graphic_lift_prepares_no_slot_part"),
    Mutant("graphic-lift-reorders-its-copies", "src/matrex/core.py",
           "tuple(inner._ends[e] for _, e in self.slots)",
           "tuple(inner._ends[e] for _, e in sorted(self.slots, key=operator.itemgetter(1)))",
           "a slot of the graphic lift's table of ends copies another slot's edge",
           test="tests/test_circuits.py::test_graphic_lift_parts_change_like_slot_parts"),
    Mutant("slot-lift-drops-a-copy", "src/matrex/core.py",
           "tuple(inner._ends[e] for _, e in self.slots)",
           "tuple(inner._ends[e] for _, e in self.slots[1:])",
           "the graphic lift's table of ends has one entry fewer than the slots, "
           "shifted by one",
           test="tests/test_circuits.py::test_graphic_lift_parts_change_like_slot_parts"),
    Mutant("lift-forest-reads-inner-ends", "src/matrex/core.py",
           "return _ForestPart(self, self._ends, self.inner._order)",
           "return _ForestPart(self, self.inner._ends, self.inner._order)",
           "a graphic lift's forest part reads slot x as inner edge x",
           test="tests/test_circuits.py::test_graphic_lift_parts_change_like_slot_parts"),
    # --- the decode of a mask into its elements -------------------------------
    Mutant("elements-decodes-bit-by-bit", "src/matrex/core.py",
           "    digits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)\n"
           "    return frozenset(itertools.compress(elements, digits))\n",
           "    out = []\n"
           "    while mask:\n"
           "        low = mask & -mask\n"
           "        out.append(elements[low.bit_length() - 1])\n"
           "        mask ^= low\n"
           "    return frozenset(out)\n",
           "a mask is decoded bit by bit, copying the mask at each step (work only)",
           test="tests/test_io.py::test_a_bases_file_keeps_only_its_masks"),
    Mutant("elements-reads-masks-top-first", "src/matrex/core.py",
           "digits = bin(mask)[:1:-1].encode()",
           "digits = bin(mask)[2:].encode()",
           "a mask's top bit is read as bit 0",
           test="tests/test_io.py::test_a_bases_file_keeps_only_its_masks"),
    # --- the rank cap of _basis -----------------------------------------------
    Mutant("rank-cap-skips-independence", "src/matrex/core.py",
           "return (len(s) == self._rank_cap or len(s) == self.full_rank()) and self._indep(s)",
           "return len(s) == self._rank_cap or (len(s) == self.full_rank() and self._indep(s))",
           "every set of rank-cap size is a basis, dependent or not",
           test="tests/test_core.py::TestIsBasis"),
    Mutant("linear-rank-cap-too-high", "src/matrex/core.py",
           "self._rank_cap = rows\n",
           "self._rank_cap = rows + 1\n",
           "linear bases are checked by a full rank scan again (work only)",
           test="tests/test_exchange.py::TestOracleBoundary::test_work_per_solve_is_pinned"),
    Mutant("graphic-rank-cap-too-high", "src/matrex/core.py",
           "self._rank_cap = max(self._order - 1, 0)",
           "self._rank_cap = self._order",
           "graphic bases are checked by a full rank scan again (work only)",
           test="tests/test_exchange.py::TestOracleBoundary::test_work_per_solve_is_pinned"),
    Mutant("graphic-greedy-stops-at-vertex-count", "src/matrex/core.py",
           "return frozenset(itertools.islice(joined, self._rank_cap))",
           "return frozenset(itertools.islice(joined, max(self.vertex_count - 1, 0)))",
           "the greedy forest scan walks every edge when a vertex id is untouched (work only)",
           test="tests/test_circuits.py::test_graphic_greedy_scan_stops_once_spanning"),
    Mutant("graphic-small-set-builds-the-list", "src/matrex/core.py",
           "        if 16 * len(ids) < self._order:\n",
           "        if False:\n",
           "a query of one edge of a long path builds a union-find over all its vertices "
           "(memory only)",
           test="tests/test_core.py::test_graphic_small_set_queries_cost_the_set"),
    Mutant("graphic-small-set-misses-an-end", "src/matrex/core.py",
           "parent = {u: u for i in ids for u in ends[i]}",
           "parent = {u: u for i in ids for u in ends[i][:1]}",
           "a small set's union-find holds only the first end of each edge",
           test="tests/test_core.py::test_graphic_small_sets_match_dfs_oracle"),
    # --- the one-byte pivot ---------------------------------------------------
    Mutant("pivot-counts-from-the-top", "src/matrex/core.py",
           "return width - len(rest) if rest else None",
           "return len(rest) - 1 if rest else None",
           "the one-byte pivot is read from the wrong end",
           test="tests/test_fields.py"),
    Mutant("pivot-reads-raw-bytes", "src/matrex/core.py",
           "self.residues = bytes(b % prime for b in range(256))",
           "self.residues = bytes(range(256))",
           "a field that is a nonzero multiple of p counts as a pivot",
           test="tests/test_fields.py"),
    # --- the echelons' pivots, without unpivoted-column bookkeeping ---------
    Mutant("echelon-full-one-row-early", "src/matrex/core.py",
           "        if len(self.rows) == self.width:\n            return False\n"
           "        vec = self.reduce(vec)\n        col = self.pivot(vec)",
           "        if len(self.rows) == self.width - 1:\n            return False\n"
           "        vec = self.reduce(vec)\n        col = self.pivot(vec)",
           "a GF(p) echelon one row short of full refuses every vector",
           test="tests/test_fields.py"),
    Mutant("bit-echelon-full-one-row-early", "src/matrex/core.py",
           "        if len(self.rows) == self.width:\n            return False\n"
           "        vec = self.reduce(vec)\n        low = vec & self.columns",
           "        if len(self.rows) == self.width - 1:\n            return False\n"
           "        vec = self.reduce(vec)\n        low = vec & self.columns",
           "a GF(2) echelon one row short of full refuses every vector",
           test="tests/test_fields.py"),
    Mutant("wide-pivot-reads-raw-fields", "src/matrex/core.py",
           "for c, a in enumerate(fields.unpack(low, width)) if a % p), None)",
           "for c, a in enumerate(fields.unpack(low, width)) if a), None)",
           "a wide field that is a nonzero multiple of p counts as a pivot",
           test="tests/test_fields.py"),
    # --- the exchange's slot lists and the symmetric shortcut -----------------
    Mutant("exchange-arms-descending", "src/matrex/exchange.py",
           "pairs = [tuple(sorted({tag, (tag + 1) % k})) for tag in range(k)]",
           "pairs = [tuple(sorted({tag, (tag + 1) % k}, reverse=True)) for tag in range(k)]",
           "the exchange solve asks a slot's higher arm first, breaking the tie-break",
           test="tests/test_exchange.py"),
    Mutant("symmetric-shortcut-skips-bases-check", "src/matrex/exchange.py",
           "        _check_bases(matroid, (b1, b2))\n",
           "",
           "a shared element of two non-bases is returned as an exchange",
           test="tests/test_exchange.py"),
    Mutant("symmetric-shortcut-skips-element-check", "src/matrex/exchange.py",
           "    element1 = _as_int(element1, \"element\")\n",
           "",
           "a float or bool equal to a shared element is returned as it is",
           test="tests/test_exchange.py::TestSymmetricExchange"
                "::test_single_checks_the_element_on_both_paths"),
    # --- ids: checked at each public entry, and once per exchange ------------
    Mutant("is-basis-skips-the-id-check", "src/matrex/core.py",
           "return self._basis(self.check_subset(elements))",
           "return self._basis(frozenset(elements))",
           "is_basis answers for an id out of range instead of naming it",
           test="tests/test_exchange.py::TestOracleBoundary::test_public_entries_check_ids"),
    Mutant("basis-family-basis-answers-true", "src/matrex/core.py",
           "        return _mask(s, self._weight) in self._masks\n",
           "        return True\n",
           "a basis family takes every set for a basis",
           test="tests/test_core.py::test_basis_queries_match_the_family"),
    Mutant("basis-family-drops-its-own-is-basis", "src/matrex/core.py",
           "    is_basis = Matroid.is_basis\n",
           "",
           "bench/tracing.py finds no is_basis in the class dict and fails to install",
           test="tests/test_tools.py::test_tracer_restores_what_it_patches"),
    Mutant("slot-lift-skips-the-block-check", "src/matrex/core.py",
           "self._lift(inner, map(inner.check_subset, blocks))",
           "self._lift(inner, blocks)",
           "a public lift takes blocks of ids out of range or not integers",
           test="tests/test_core.py::TestValidation::test_blocks_name_the_first_bad_block"),
    Mutant("disjoint-copies-checks-again", "src/matrex/core.py",
           "return _lifted(matroid, normalized)",
           "return SlotMatroid(matroid, normalized)",
           "disjoint_copies checks each basis's ids a second time (work only)",
           test="tests/test_exchange.py::TestOracleBoundary"
                "::test_disjoint_copies_checks_each_basis_once"),
    Mutant("instance-skips-the-basis-check", "src/matrex/exchange.py",
           "        _check_bases(self.matroid, bases)\n",
           "",
           "an exchange instance takes sets that are not bases",
           test="tests/test_exchange.py::TestCyclicExchange::test_non_basis_input_rejected"),
    Mutant("exchange-lift-checks-again", "src/matrex/exchange.py",
           "lifted = _lifted(instance.matroid, instance.bases)",
           "lifted = SlotMatroid(instance.matroid, instance.bases)",
           "the exchange's lift checks the instance's bases a second time (work only)",
           test="tests/test_exchange.py::TestOracleBoundary"
                "::test_check_subset_calls_do_not_grow_with_queries"),
    # --- the read-back of cyclic_exchange: one mutant per check ---------------
    *(Mutant(f"read-back-skips-{check}", "src/matrex/exchange.py", old, "if False:",
             f"the read-back lets a partition through that fails its {check} check",
             test="tests/test_exchange.py::TestReadBackChecks::" + test)
      for check, old, test in [
          ("reached-set", "if isinstance(outcome, set):", "test_a_reached_set_raises"),
          ("arity", "if len(outcome) != k:", "test_corrupted_partition_raises"),
          ("seed", "if parts[0] != seed:", "test_corrupted_partition_raises"),
          ("projection", "if projections[i] != s:", "test_corrupted_partition_raises"),
          ("size", "if len(parts[i]) != len(seed):", "test_corrupted_partition_raises"),
          ("is-basis", "if not matroid._basis(s):", "test_corrupted_partition_raises"),
          ("class", "if not part <= classes.classes[i]:", "test_corrupted_partition_raises"),
          ("disjoint", "if not seen.isdisjoint(part):", "test_corrupted_partition_raises"),
      ]),
    # --- the search's skipped candidates -------------------------------------
    Mutant("search-skips-a1-inside-the-union", "src/matrex/verify.py",
           "return not seed & ~functools.reduce(operator.and_, bases) or seed == bases[0]",
           "return not seed & ~functools.reduce(operator.or_, bases) or seed == bases[0]",
           "the search skips every candidate, witnesses included",
           test="tests/test_verify.py"),
    # --- the search's depth gate ----------------------------------------------
    Mutant("search-takes-any-depth", "src/matrex/verify.py",
           "if k > MAX_SEARCH_K:",
           "if False:",
           "the search builds a check plan of k levels before it reads its budget",
           test="tests/test_cli.py::TestSearchShift2::"
                "test_k_past_the_depth_cap_exits_3_in_small_memory"),
    # --- the basis family as masks --------------------------------------------
    Mutant("mask-gives-a-loop-no-weight", "src/matrex/core.py",
           "    except KeyError:\n        return None",
           "    except KeyError:\n        return 0",
           "a set holding a loop is independent, as the empty set is",
           test="tests/test_core.py::test_basis_queries_match_the_family"),
    Mutant("basis-family-in-mask-order", "src/matrex/core.py",
           "self._masks = dict.fromkeys(sorted(masks, reverse=True))",
           "self._masks = dict.fromkeys(sorted(masks))",
           "a basis family enumerates in reverse lexicographic order",
           test="tests/test_core.py::test_basis_queries_match_the_family"),
    # --- the exchange-axiom check: the first basis's scan, then the index --
    Mutant("axiom-check-takes-e1-largest-first", "src/matrex/core.py",
           "top = rest.bit_length() - 1",
           "top = (rest & -rest).bit_length() - 1",
           "the axiom check names the largest e1 of b1 - b2 that fails, not the smallest",
           test="tests/test_core.py::TestBaseAxiom::test_split_family_fails_with_first_violation"),
    Mutant("axiom-check-first-basis-scans-all-of-b1", "src/matrex/core.py",
           "        rest = b1 & ~b2\n",
           "        rest = b1\n",
           "the scan of a failing first basis asks about e1 in b2 too, and names b1 as b2",
           test="tests/test_core.py::TestBaseAxiom::test_split_family_fails_with_first_violation"),
    Mutant("axiom-check-always-indexes", "src/matrex/core.py",
           "    if len(swaps) < b1.bit_count():\n",
           "    if False:\n",
           "a family whose first basis fails gets the index all the same, with one entry per "
           "element of each basis (work and memory only)",
           test="tests/test_core.py::test_axiom_check_memory_is_bounded"),
    Mutant("axiom-check-index-passes-on-one-covered-key", "src/matrex/core.py",
           "if min(covered.values(), default=everyone) == everyone:",
           "if max(covered.values(), default=everyone) == everyone:",
           "the indexed check passes a family once one b1 - e1 covers every b2",
           test="tests/test_core.py::test_axiom_check_matches_set_reference_with_common_parts"),
    Mutant("axiom-check-index-takes-the-last-b2", "src/matrex/core.py",
           "low = failing & -failing",
           "low = 1 << (failing.bit_length() - 1)",
           "the indexed check names the last b2 that an e1 fails, not the first",
           test="tests/test_core.py::test_axiom_check_matches_set_reference_with_common_parts"),
    Mutant("axiom-check-index-tie-keeps-the-larger-e1", "src/matrex/core.py",
           "if not first or low < first:",
           "if not first or low <= first:",
           "the indexed check names the largest e1 that fails the first b2, not the smallest",
           test="tests/test_core.py::test_axiom_check_matches_set_reference_with_common_parts"),
    Mutant("axiom-check-index-takes-e1-largest-first", "src/matrex/core.py",
           "e1 = 1 << (rest.bit_length() - 1)",
           "e1 = rest & -rest",
           "the indexed check scans e1 largest first, so a tie keeps the largest",
           test="tests/test_core.py::test_axiom_check_matches_set_reference_with_common_parts"),
    Mutant("element-array-allows-repeats", "src/matrex/io.py",
           "all(map(operator.lt, values, values[1:]))",
           "all(map(operator.le, values, values[1:]))",
           "a file's element array may repeat an id, which the set then drops",
           test="tests/test_io.py::TestElementArrays::test_ascending_enforced"),
    # --- the CLI's input cap and its sized reads -------------------------------
    Mutant("cli-write-error-escapes", "src/matrex/cli.py",
           'raise FormatError(f"cannot write {args.output}: {exc}") from None',
           "raise",
           "an output path that cannot be written ends the CLI in a traceback",
           test="tests/test_cli.py::TestCheck::test_unwritable_output_exits_1"),
    Mutant("cli-input-cap-off", "src/matrex/cli.py",
           "    if len(data) > MAX_INPUT_BYTES:\n        raise",
           "    if False:\n        raise",
           "an input file above the cap is parsed",
           test="tests/test_cli.py::TestCheck::test_input_file_above_cap_exits_3"),
    Mutant("cli-read-asks-the-cap", "src/matrex/cli.py",
           "want = min(os.fstat(f.fileno()).st_size, MAX_INPUT_BYTES) + 1",
           "want = MAX_INPUT_BYTES + 1",
           "every input file costs a buffer of the cap's size (memory only)",
           test="tests/test_cli.py::TestCheck::test_small_input_file_costs_no_cap_sized_buffer"),
    Mutant("cli-read-stops-at-fstat-size", "src/matrex/cli.py",
           "            if len(data) == want:\n",
           "            if False:\n",
           "a FIFO, or a file that grew after fstat, is read only as far as fstat said",
           test="tests/test_cli.py::TestCheck::test_input_cap_holds_when_fstat_reports_less"),
    Mutant("cli-read-stops-at-the-cap", "src/matrex/cli.py",
           "data += f.read(MAX_INPUT_BYTES + 1 - want)",
           "data += f.read(MAX_INPUT_BYTES - want)",
           "a file one byte above the cap, longer than fstat said, is cut to the cap and parsed",
           test="tests/test_cli.py::TestCheck::test_input_cap_holds_when_fstat_reports_less"),
    # --- guards that earlier mutation runs found unguarded --------------------
    Mutant("arm-hashes-before-it-converts", "src/matrex/union.py",
           '_as_ints(_listed(subset, "expected a set of element ids"))',
           '_listed(subset, "expected a set of element ids")',
           "an arm hashes the items as given, so it calls a non-integer id outside its "
           "allowed set, and an unhashable one raises a raw TypeError",
           test="tests/test_union.py::TestValidation::test_arm_rejects_non_integer_ids"),
    Mutant("verify-partition-allows-overlap", "src/matrex/union.py",
           "        if part & seen:\n            return False\n",
           "",
           "verify_partition accepts parts that share an element",
           test="tests/test_union.py"),
    Mutant("certificate-accepts-equal-rank-sum", "src/matrex/union.py",
           "if rank_sum >= len(witness):",
           "if rank_sum > len(witness):",
           "a witness whose rank sum equals its size passes as a certificate",
           test="tests/test_union.py"),
    Mutant("verify-witness-without-shift-by-one", "src/matrex/verify.py",
           "    return shift1_seen",
           "    return True",
           "a family with no shift-by-one tuple passes as a witness",
           test="tests/test_verify.py"),
    # --- input checks: one mutant per check, each turned off -----------------
    *(Mutant(f"skips-{check}", path, old, new,
             f"the {what} check is off, so {effect}", test=test)
      for check, path, old, new, what, effect, test in [
          ("column-length", "src/matrex/core.py", "        if len(vec) != rows:\n",
           "        if False:\n", "column length",
           "a ragged column is accepted and breaks the first query",
           "tests/test_core.py::TestValidation::test_constructors_name_a_bad_argument"),
          ("size-mismatch-message", "src/matrex/core.py",
           "        if self.element is None:\n", "        if False:\n", "size-mismatch message",
           "a family of two sizes is reported with e1=None",
           "tests/test_core.py::TestBaseAxiom::test_unequal_sizes_fail"),
          ("instance-without-bases", "src/matrex/exchange.py", "        if not bases:\n",
           "        if False:\n", "nonempty-bases",
           "an instance with no bases raises an IndexError",
           "tests/test_exchange.py::TestCyclicExchange::test_no_bases_rejected"),
          ("spec-k", "src/matrex/verify.py", "if self.k < 1:", "if False:", "spec's k",
           "a spec with k = 0 is accepted",
           "tests/test_verify.py::TestRandomInstance::test_out_of_range_params_rejected"),
          ("spec-n", "src/matrex/verify.py",
           "if self.n is not None and not 0 <= self.n <= 20:", "if False:", "spec's n",
           "a spec past the enumeration caps is accepted",
           "tests/test_verify.py::TestRandomInstance::test_out_of_range_params_rejected"),
          ("spec-vertices", "src/matrex/verify.py",
           "if self.vertices is not None and not 0 <= self.vertices <= 16:", "if False:",
           "spec's vertex count", "a spec of 17 vertices is accepted",
           "tests/test_verify.py::TestRandomInstance::test_out_of_range_params_rejected"),
          ("spec-rows", "src/matrex/verify.py",
           "if self.rows is not None and not 0 <= self.rows <= 12:", "if False:",
           "spec's ambient dimension", "a spec of 13 rows is accepted",
           "tests/test_verify.py::TestRandomInstance::test_out_of_range_params_rejected"),
          ("witness-fields", "src/matrex/verify.py",
           "if not isinstance(obj, dict) or obj.keys() != required:", "if False:",
           "witness fields", "a witness with other fields raises a raw error or is read",
           "tests/test_verify.py::TestWitnessFromJson::test_rejects_a_malformed_witness"),
          ("witness-bases-array", "src/matrex/verify.py",
           "if not isinstance(obj[\"bases\"], list):", "if False:", "witness bases array",
           "a witness whose bases are a number raises a TypeError",
           "tests/test_verify.py::TestWitnessFromJson::test_rejects_a_malformed_witness"),
          ("witness-k", "src/matrex/verify.py",
           "if _int_field(obj, \"k\", \"witness\") != len(bases):", "if False:", "witness k",
           "a witness whose k differs from its number of bases is read",
           "tests/test_verify.py::TestWitnessFromJson::test_rejects_a_malformed_witness"),
          ("linear-columns-array", "src/matrex/io.py",
           "if not isinstance(columns, list) or not all(isinstance(c, list) for c in columns):",
           "if False:", "file's linear columns",
           "a column that is a number exits 2 with the library's message",
           "tests/test_cli.py::TestCheck::test_bad_linear_columns_exit_with_their_message"),
          ("bases-file-object", "src/matrex/io.py",
           "if not isinstance(obj, dict) or \"bases\" not in obj:", "if False:",
           "bases file object", "a bases file without a 'bases' field ends in a traceback",
           "tests/test_cli.py::TestCyclicExchange::test_bases_file_without_a_bases_field_exits_1"),
          ("negative-universe", "src/matrex/io.py", "    if n < 0:\n", "    if False:\n",
           "problem universe", "a negative universe is refused with another message",
           "tests/test_cli.py::TestPartition::test_negative_universe_exits_1"),
          ("missing-seed", "src/matrex/cli.py",
           "    elif file_a1 is not None:\n        a1 = file_a1\n    else:\n"
           "        raise _UsageError(\"no seed subset: pass --a1 or an 'a1' field in the "
           "bases file\")\n", "    else:\n        a1 = file_a1\n",
           "seed subset", "a missing seed exits 2 as a set of None",
           "tests/test_cli.py::TestCyclicExchange::test_missing_seed_exits_1"),
      ]),
    Mutant("echelon-drops-the-first-tagged-row", "src/matrex/core.py",
           "r = next(r for r in reversed(range(len(rows))) if rows[r][1] >> at & mask)",
           "r = next(r for r in range(len(rows)) if rows[r][1] >> at & mask)",
           "a GF(p) remove drops the first row that holds the tag, and rows after it keep it",
           test="tests/test_circuits.py::test_takes_matches_circuits_after_changes"),
    Mutant("bit-echelon-drops-the-first-tagged-row", "src/matrex/core.py",
           "r = next(r for r in reversed(range(len(rows))) if rows[r][1] & bit)",
           "r = next(r for r in range(len(rows)) if rows[r][1] & bit)",
           "a GF(2) remove drops the first row that holds the tag, and rows after it keep it",
           test="tests/test_circuits.py::test_takes_matches_circuits_after_changes"),
    Mutant("forest-circuit-climbs-the-shallower-end", "src/matrex/core.py",
           "            if depth[u] < depth[v]:\n",
           "            if depth[u] > depth[v]:\n",
           "a forest circuit climbs from the shallower end, past the meeting point",
           test="tests/test_circuits.py::test_circuits_match_the_oracle"),
    Mutant("forest-cut-keeps-tree-size", "src/matrex/core.py",
           "        self.size[self.root[v]] -= self.size[u]\n",
           "",
           "a cut tree keeps its old size, so links re-hang the wrong tree (work only)",
           test="tests/test_exchange.py::TestOracleBoundary::test_work_per_solve_is_pinned"),
]

#: Mutants that no test can tell apart from the code, with the reason.
EQUIVALENT: list[Mutant] = [
    Mutant("augment-fails-with-its-parents", "src/matrex/union.py",
           "    return labelled\n",
           "    return set(parent)\n",
           "a failed search drains its queue, so it expands, and gives a parent to, every "
           "node it labelled: the two sets are equal",
           test="tests/test_circuits.py::test_solver_matches_reference_on_random_problems"),
    Mutant("uniform-takes-below-bound-as-unequal", "src/matrex/core.py",
           "return len(self.part) < self.matroid.rank_bound",
           "return len(self.part) != self.matroid.rank_bound",
           "add refuses to grow a part past the rank bound, so it never exceeds it",
           test="tests/test_circuits.py::test_circuits_match_the_oracle"),
    Mutant("echelon-takes-below-rows-as-unequal", "src/matrex/core.py",
           "return len(self.part) < self.matroid.rows and",
           "return len(self.part) != self.matroid.rows and",
           "add refuses a dependent element, so a part never holds more than rows",
           test="tests/test_circuits.py::test_circuits_match_the_oracle"),
    Mutant("basis-memo-outlives-an-add", "src/matrex/core.py",
           "        super().add(x)\n        self.mask |= self.matroid._weight[x]\n"
           "        self._last = None\n",
           "        super().add(x)\n        self.mask |= self.matroid._weight[x]\n",
           "after add(x) the memo names x, now in the part; a part is asked only of "
           "elements outside it, a second add(x) is refused before the memo is read, "
           "and x leaves the part only by a remove, which forgets the memo",
           test="tests/test_circuits.py::test_circuits_hold_until_the_next_move"),
]


def names_a_test(test: str) -> bool:
    """Whether ``test``, a test file or a node id without parameters
    (``file::function`` or ``file::Class::method``), names a test."""
    path, *names = test.split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def check_catalogue(entries) -> list[str]:
    """A message for each entry whose old text is not found exactly once,
    whose name is not unique, or whose named test does not exist."""
    problems, names = [], set()
    for m in entries:
        if m.name in names:
            problems.append(f"{m.name}: duplicate name")
        names.add(m.name)
        path = ROOT / m.path
        count = path.read_text().count(m.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.name}: old text found {count} times in {m.path}")
        if not names_a_test(m.test):
            problems.append(f"{m.name}: no test {m.test}")
    return problems


def run(mutant: Mutant) -> tuple[str, str, float]:
    """Apply ``mutant`` to a copy of the checkout and run its named test
    there, then the suite if that test passes.  Returns "killed", "timeout"
    or "survived", what ran last (the named test or "suite"), and the
    seconds taken."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".bench_out", ".bench_work-*", ".bench_build")
    with tempfile.TemporaryDirectory(prefix="matrex-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        target = copy / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new, 1))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        env.setdefault("HYPOTHESIS_PROFILE", "ci")
        start = time.monotonic()
        for test in (mutant.test, "suite"):
            args = ["--ignore=tests/test_tools.py"] if test == "suite" else [test]
            cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
            try:
                done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL, timeout=TIMEOUT,
                                      preexec_fn=_cap_memory)
            except subprocess.TimeoutExpired:
                return "timeout", test, time.monotonic() - start
            # A failed test (exit 1) or a failed import (exit 2) kills; the
            # named test's other exits fall back to the suite.
            if done.returncode in (1, 2) or (test == "suite" and done.returncode != 0):
                return "killed", test, time.monotonic() - start
        return "survived", "suite", time.monotonic() - start


def main() -> int:
    problems = check_catalogue(MUTANTS + EQUIVALENT)
    if problems:
        print("\n".join(problems))
        return 1
    survivors, start = [], time.monotonic()
    for m in MUTANTS:
        verdict, test, seconds = run(m)
        print(f"{verdict:8} {seconds:6.1f} s  {m.name} ({test}): {m.breaks}", flush=True)
        if verdict == "survived":
            survivors.append(m.name)
    for m in EQUIVALENT:
        print(f"{'skipped':8} {'':8}  {m.name}: equivalent, {m.breaks}")
    wall = f"in {time.monotonic() - start:.0f} s"
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived {wall}: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed {wall}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
