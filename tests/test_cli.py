"""CLI behaviour: exit codes, output formats, determinism."""

import itertools
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

K4 = {"type": "graphic", "vertices": 4,
      "edges": [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3], [0, 3]]}
UNIFORM42 = {"type": "uniform", "n": 4, "rank": 2}
UNIFORM3 = {"type": "uniform", "n": 3, "rank": 3}
LINEAR_2X3 = {"type": "linear", "prime": 2, "rows": 2, "columns": [[1, 0], [0, 1], [1, 1]]}
TWO_RANK1_ARMS = {
    "universe": 2,
    "arms": [
        {"matroid": {"type": "uniform", "n": 2, "rank": 1}, "allowed": [0, 1]},
        {"matroid": {"type": "uniform", "n": 2, "rank": 1}, "allowed": [0, 1]},
    ],
}


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, memory_limit=None):
    """Run ``python -m matrex``; ``memory_limit`` caps its address space in bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

    return subprocess.run(
        [sys.executable, "-m", "matrex", *argv],
        capture_output=True, text=True, timeout=300, env=env,
        preexec_fn=limit if memory_limit else None,
    )


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


class TestCheck:
    def test_uniform(self, tmp_path):
        proc = run_cli("check", write(tmp_path, "m.json", UNIFORM42))
        assert proc.returncode == 0
        assert proc.stdout == "rank 2, 4 elements, 6 bases\n"

    def test_axiom_violation_exits_2(self, tmp_path):
        path = write(tmp_path, "m.json", {"type": "bases", "n": 4, "bases": [[0, 1], [2, 3]]})
        proc = run_cli("check", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "B1=[0, 1], B2=[2, 3], e1=0" in proc.stderr

    def test_truncated_file_exits_1(self, tmp_path):
        proc = run_cli("check", write(tmp_path, "m.json", '{"type":'))
        assert proc.returncode == 1
        assert proc.stdout == ""

    def test_missing_file_exits_1(self):
        proc = run_cli("check", "/nonexistent/m.json")
        assert proc.returncode == 1

    def test_console_script_entry_exits_with_main_code(self, tmp_path, monkeypatch, capsys):
        # ``entry`` is the ``matrex`` console script: it reads sys.argv
        from matrex import cli

        monkeypatch.setattr(sys, "argv", ["matrex", "check", write(tmp_path, "m.json", UNIFORM42)])
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == 0
        assert capsys.readouterr().out == "rank 2, 4 elements, 6 bases\n"
        monkeypatch.setattr(sys, "argv", ["matrex", "check", str(tmp_path / "missing.json")])
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    @pytest.mark.parametrize("json_errors", [False, True])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, target, json_errors):
        # The failed write is reported like a failed read, not as a traceback.
        from matrex import cli

        out = str(tmp_path if target == "directory" else tmp_path / "missing" / "out.txt")
        argv = ["check", write(tmp_path, "m.json", UNIFORM42), "--output", out]
        assert cli.main(argv + ["--json-errors"] * json_errors) == 1
        captured = capsys.readouterr()
        if json_errors:
            error = json.loads(captured.out)["error"]
            assert captured.err == "" and error["type"] == "format"
            message = error["message"]
        else:
            assert captured.out == "" and captured.err.startswith("error: ")
            message = captured.err[len("error: "):]
        assert message.startswith(f"cannot write {out}: ")
        assert ("Is a directory" if target == "directory" else "No such file") in message

    def test_over_cap_omits_basis_count(self, tmp_path):
        path = write(tmp_path, "m.json", {"type": "uniform", "n": 25, "rank": 3})
        proc = run_cli("check", path)
        assert proc.returncode == 0
        assert proc.stdout == "rank 3, 25 elements\n"

    def test_json_errors_go_to_stdout(self, tmp_path):
        path = write(tmp_path, "m.json", {"type": "bases", "n": 4, "bases": [[0, 1], [2, 3]]})
        proc = run_cli("check", path, "--json-errors")
        assert proc.returncode == 2
        err = json.loads(proc.stdout)
        assert err["error"]["type"] == "validation"

    def test_huge_uniform_rank_needs_no_scan(self, tmp_path):
        # a greedy pass over 10**9 ids would overrun the 1 GB cap at once
        path = write(tmp_path, "m.json", {"type": "uniform", "n": 10**9, "rank": 1})
        proc = run_cli("check", path, memory_limit=2**30)
        assert proc.returncode == 0
        assert proc.stdout == "rank 1, 1000000000 elements\n"

    def test_huge_ids_in_bases_file_stay_small(self, tmp_path):
        # a bitmask indexed by raw ids would take 125 MB per basis here
        family = [[10**9 - 1 - i] for i in range(256)]
        path = write(tmp_path, "m.json", {"type": "bases", "n": 10**9, "bases": family})
        proc = run_cli("check", path, memory_limit=2**30)
        assert proc.returncode == 0
        assert proc.stdout == "rank 1, 1000000000 elements\n"

    def test_huge_vertex_ids_in_graphic_file_stay_small(self, tmp_path):
        # a list indexed by raw vertex ids would take 8 GB here: the
        # union-find and the forest parts hold the touched vertices only
        top = 10**9 - 1
        a, b, c, d = top, top - 7, top - 500, 3
        triangle = [[a, b], [b, c], [a, c], [c, d], [b, a]]  # b-a is parallel to a-b

        def graphic(edges):
            return {"type": "graphic", "vertices": 10**9, "edges": edges}

        def problem(edges):  # two forests of the same graph
            arm = {"matroid": graphic(edges), "allowed": list(range(len(edges)))}
            return {"universe": len(edges), "arms": [arm, arm]}

        runs = [
            ("check", graphic(triangle + [[d, d]]), 0, "rank 3, 6 elements, 5 bases\n"),
            ("partition", problem(triangle), 0, '{"parts":[[0,1,3],[2,4]]}\n'),
            # three parallel a-b edges cannot go into two forests
            ("partition", problem(triangle + [[a, b]]), 4,
             '{"rank_sum":2,"size":3,"terms":[1,1],"witness":[0,4,5]}\n'),
        ]
        for command, obj, code, out in runs:
            proc = run_cli(command, write(tmp_path, "in.json", obj), memory_limit=2**30)
            assert (proc.returncode, proc.stdout) == (code, out), (command, proc.stderr)

    def test_oversized_bases_family_exits_3(self, tmp_path):
        family = [list(b) for b in itertools.combinations(range(13), 3)]
        assert len(family) == 286
        path = write(tmp_path, "m.json", {"type": "bases", "n": 13, "bases": family})
        proc = run_cli("check", path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "286 bases exceed the axiom check cap 256" in proc.stderr

    @pytest.mark.parametrize("dropped", [False, True], ids=["valid", "basis-dropped"])
    def test_rank_6000_bases_file(self, tmp_path, dropped):
        # A free part of 5,992 elements plus eight U(1, 2) summands: 256
        # bases of rank 6,000 in a 7 MiB file.  Without basis 1, the first
        # basis cannot trade its 6006 for anything in the basis that ends
        # with 6005 and 6007.
        free = list(range(5992))
        family = [free + [5992 + 2 * i + pick for i, pick in enumerate(picks)]
                  for picks in itertools.product((0, 1), repeat=8)]
        if dropped:
            del family[1]
        text = json.dumps({"type": "bases", "n": 6008, "bases": family}, separators=(",", ":"))
        assert 7 * 2**20 < len(text) < 8 * 2**20
        proc = run_cli("check", write(tmp_path, "m.json", text))
        if dropped:
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: exchange axiom violated: B1=[0, 1, 2, ")
            assert proc.stderr.endswith(", 6005, 6007], e1=6006\n")
        else:
            assert proc.returncode == 0
            assert proc.stdout == "rank 6000, 6008 elements\n"

    def test_input_file_above_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        from matrex import cli

        text = json.dumps(UNIFORM42)
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(text))
        assert cli.main(["check", write(tmp_path, "m.json", text)]) == 0
        assert capsys.readouterr().out == "rank 2, 4 elements, 6 bases\n"
        big = write(tmp_path, "big.json", text + " ")
        assert cli.main(["check", "--json-errors", big]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "size-limit"
        assert error["message"] == f"{big} is larger than the input cap of {len(text)} bytes"

    @pytest.mark.parametrize("reported", [0, 10])
    def test_input_cap_holds_when_fstat_reports_less(self, tmp_path, monkeypatch, capsys,
                                                     reported):
        # A FIFO reports size 0, and a file may grow after fstat: the file
        # is read on to one byte past the cap all the same.
        from matrex import cli

        text = json.dumps(UNIFORM42)
        small, big = write(tmp_path, "m.json", text), write(tmp_path, "big.json", text + " ")
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            (0,) * 6 + (reported,) + tuple(fstat(fd))[7:]))
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(text))
        assert cli.main(["check", small]) == 0
        assert capsys.readouterr().out == "rank 2, 4 elements, 6 bases\n"
        assert cli.main(["check", "--json-errors", big]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "size-limit"

    def test_small_input_file_costs_no_cap_sized_buffer(self, tmp_path, capsys):
        # A read sized to the cap would allocate 16 MiB for this file.
        from matrex import cli

        path = write(tmp_path, "m.json", UNIFORM42)
        assert cli.main(["check", path]) == 0  # imports and the parser, once
        tracemalloc.start()
        try:
            assert cli.main(["check", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == "rank 2, 4 elements, 6 bases\n" * 2
        assert peak < 2**20

    def test_matrix_above_entry_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        from matrex import cli, io

        path = write(tmp_path, "m.json", LINEAR_2X3)
        monkeypatch.setattr(io, "MAX_MATRIX_ENTRIES", 6)
        assert cli.main(["check", path]) == 0
        assert capsys.readouterr().out == "rank 2, 3 elements, 3 bases\n"
        monkeypatch.setattr(io, "MAX_MATRIX_ENTRIES", 5)
        assert cli.main(["check", "--json-errors", path]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "size-limit", "message": "a 2x3 matrix exceeds the cap of 5 entries"}
        # every arm of a partition problem is held to the same cap
        problem = {"universe": 3, "arms": [{"matroid": LINEAR_2X3, "allowed": [0, 1, 2]}]}
        assert cli.main(["partition", write(tmp_path, "p.json", problem)]) == 3

    @pytest.mark.parametrize("columns, code, message", [
        ([5], 1, "linear.columns must be an array of integer vectors"),
        ([[1, 0], [0]], 2, "column 1 has 1 entries, expected 2"),
    ], ids=["not-vectors", "ragged"])
    def test_bad_linear_columns_exit_with_their_message(self, tmp_path, capsys,
                                                        columns, code, message):
        from matrex import cli

        path = write(tmp_path, "m.json", {"type": "linear", "prime": 2, "rows": 2,
                                          "columns": columns})
        assert cli.main(["check", path]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_undecodable_file_exits_1(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"type": "uniform", "n": 4, "rank": \xff}')
        proc = run_cli("check", str(path))
        assert proc.returncode == 1
        assert "unreadable JSON" in proc.stderr


class TestEnumerateBases:
    def test_round_trips_as_matroid_file(self, tmp_path):
        proc = run_cli("enumerate-bases", write(tmp_path, "m.json", UNIFORM42))
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj == {"type": "bases", "n": 4,
                       "bases": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
        again = run_cli("check", write(tmp_path, "back.json", obj))
        assert again.returncode == 0

    def test_cap_exceeded_exits_3(self, tmp_path):
        path = write(tmp_path, "m.json", {"type": "uniform", "n": 25, "rank": 3})
        proc = run_cli("enumerate-bases", path)
        assert proc.returncode == 3


class TestCyclicExchange:
    def test_k4_exact_result(self, tmp_path):
        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]]})
        proc = run_cli("cyclic-exchange", m, b, "--a1", "[0]")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"A": [[0], [5]], "shifted": [[1, 2, 5], [0, 3, 4]]}

    def test_a1_from_bases_file(self, tmp_path):
        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]], "a1": [0]})
        proc = run_cli("cyclic-exchange", m, b)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["A"] == [[0], [5]]

    def test_empty_seed(self, tmp_path):
        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]], "a1": []})
        proc = run_cli("cyclic-exchange", m, b)
        out = json.loads(proc.stdout)
        assert out["A"] == [[], []]
        assert out["shifted"] == [[0, 1, 2], [3, 4, 5]]

    def test_non_basis_exits_2_naming_index(self, tmp_path):
        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [0, 1, 3]], "a1": [0]})
        proc = run_cli("cyclic-exchange", m, b)
        assert proc.returncode == 2
        assert "bases[1]" in proc.stderr

    def test_missing_seed_exits_1(self, tmp_path, capsys):
        from matrex import cli

        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]]})
        assert cli.main(["cyclic-exchange", m, b]) == 1
        assert capsys.readouterr() == (
            "", "error: no seed subset: pass --a1 or an 'a1' field in the bases file\n")

    @pytest.mark.parametrize("obj", [[[0, 1, 2], [3, 4, 5]], {"a1": [0]}])
    def test_bases_file_without_a_bases_field_exits_1(self, tmp_path, capsys, obj):
        from matrex import cli

        m, b = write(tmp_path, "m.json", K4), write(tmp_path, "b.json", obj)
        assert cli.main(["cyclic-exchange", m, b]) == 1
        assert capsys.readouterr() == (
            "", "error: bases file must be an object with a 'bases' field\n")

    def test_verify_reports_membership(self, tmp_path):
        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]], "a1": [0]})
        proc = run_cli("cyclic-exchange", m, b, "--verify")
        out = json.loads(proc.stdout)
        assert out["oracle"] == {"member": True, "solutions": 1}

    def test_verify_gate_exceeded_exits_3(self, tmp_path):
        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]], "a1": [0]})
        proc = run_cli("cyclic-exchange", m, b, "--verify", "--cap", "2")
        assert proc.returncode == 3
        assert proc.stdout == ""

    def test_bases_above_slot_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        from matrex import cli, io

        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]], "a1": [0]})
        monkeypatch.setattr(io, "MAX_LIFTED_SLOTS", 6)
        assert cli.main(["cyclic-exchange", m, b]) == 0
        assert json.loads(capsys.readouterr().out)["A"] == [[0], [5]]
        monkeypatch.setattr(io, "MAX_LIFTED_SLOTS", 5)
        assert cli.main(["cyclic-exchange", "--json-errors", m, b]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "size-limit", "message": "6 lifted slots exceed the cap of 5"}

    def test_huge_uniform_bases_need_no_scan(self, tmp_path):
        m = write(tmp_path, "m.json", {"type": "uniform", "n": 10**9, "rank": 1})
        b = write(tmp_path, "b.json", {"bases": [[0], [1]], "a1": [0]})
        proc = run_cli("cyclic-exchange", m, b, memory_limit=2**30)
        assert proc.returncode == 0
        assert proc.stdout == '{"A":[[0],[1]],"shifted":[[1],[0]]}\n'


class TestPartition:
    def test_partition_exits_0(self, tmp_path):
        proc = run_cli("partition", write(tmp_path, "p.json", TWO_RANK1_ARMS))
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"parts": [[0], [1]]}

    def test_negative_universe_exits_1(self, tmp_path, capsys):
        from matrex import cli

        obj = {**TWO_RANK1_ARMS, "universe": -1}
        assert cli.main(["partition", write(tmp_path, "p.json", obj)]) == 1
        assert capsys.readouterr() == ("", "error: problem.universe must be >= 0\n")

    def test_universe_above_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        from matrex import cli, io

        path = write(tmp_path, "p.json", TWO_RANK1_ARMS)
        monkeypatch.setattr(io, "MAX_UNIVERSE", 2)
        assert cli.main(["partition", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"parts": [[0], [1]]}
        monkeypatch.setattr(io, "MAX_UNIVERSE", 1)
        assert cli.main(["partition", "--json-errors", path]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "size-limit", "message": "a universe of 2 elements exceeds the cap of 1"}

    def test_huge_universe_exits_3_before_building_it(self, tmp_path):
        # building the universe of 10**9 ids would overrun the 1 GB cap at once
        obj = {"universe": 10**9, "arms": [
            {"matroid": {"type": "uniform", "n": 10**9, "rank": 1}, "allowed": []}]}
        proc = run_cli("partition", write(tmp_path, "p.json", obj), memory_limit=2**30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "a universe of 1000000000 elements exceeds the cap" in proc.stderr

    def test_certificate_exits_4(self, tmp_path):
        obj = {
            "universe": 3,
            "arms": [
                {"matroid": {"type": "uniform", "n": 3, "rank": 1}, "allowed": [0, 1, 2]},
                {"matroid": {"type": "uniform", "n": 3, "rank": 1}, "allowed": [0, 1, 2]},
            ],
        }
        proc = run_cli("partition", write(tmp_path, "p.json", obj))
        assert proc.returncode == 4
        cert = json.loads(proc.stdout)
        assert cert == {"witness": [0, 1, 2], "rank_sum": 2, "size": 3, "terms": [1, 1]}

    def test_k4_two_trees(self, tmp_path):
        obj = {"universe": 6, "arms": [{"matroid": K4, "allowed": [0, 1, 2, 3, 4, 5]}] * 2}
        proc = run_cli("partition", write(tmp_path, "p.json", obj))
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"parts": [[0, 1, 2], [3, 4, 5]]}

    def test_parse_error_exits_1(self, tmp_path):
        proc = run_cli("partition", write(tmp_path, "p.json", "{"))
        assert proc.returncode == 1

    def test_allowed_id_out_of_range_exits_2(self, tmp_path):
        obj = {"universe": 3, "arms": [{"matroid": UNIFORM3, "allowed": [0, 5, 7]}]}
        proc = run_cli("partition", write(tmp_path, "p.json", obj))
        assert proc.returncode == 2
        assert "element 5 out of range for ground set of size 3" in proc.stderr

    def test_arms_query_without_restriction(self, tmp_path, monkeypatch, capsys):
        # in process, so the Restriction constructor can be watched
        from matrex import cli, core

        created = []
        init = core.Restriction.__init__

        def recording_init(self, inner, kept):
            created.append(self)
            init(self, inner, kept)

        monkeypatch.setattr(core.Restriction, "__init__", recording_init)
        obj = {"universe": 6, "arms": [
            {"matroid": K4, "allowed": [1, 3, 4]}, {"matroid": K4, "allowed": [0, 2, 5]}]}
        assert cli.main(["partition", write(tmp_path, "p.json", obj)]) == 0
        assert json.loads(capsys.readouterr().out) == {"parts": [[1, 3, 4], [0, 2, 5]]}
        assert created == []


class TestSearchShift2:
    def test_witness_exits_0(self, tmp_path):
        out_path = tmp_path / "witness.json"
        proc = run_cli("search-shift2", "--k", "3", "--budget", "10000",
                       "--output", str(out_path))
        assert proc.returncode == 0
        assert proc.stdout == ""
        obj = json.loads(out_path.read_text())
        assert obj["found"] is True
        assert obj["witness"]["matroid"] == K4
        assert obj["witness"]["a1"] == [1]

    def test_zero_budget_exits_5(self):
        proc = run_cli("search-shift2", "--k", "3", "--budget", "0")
        assert proc.returncode == 5
        obj = json.loads(proc.stdout)
        assert obj["found"] is False
        assert obj["report"]["candidates_checked"] == 0

    def test_zero_time_limit_exits_5(self):
        proc = run_cli("search-shift2", "--k", "3", "--time-limit", "0")
        assert proc.returncode == 5
        obj = json.loads(proc.stdout)
        assert obj["found"] is False
        assert obj["report"]["candidates_checked"] == 0
        assert obj["report"]["matroids_examined"] == 0

    @pytest.mark.parametrize("argv, message", [
        (("--budget", "-2"), "budget must be >= 0, got -2"),
        (("--time-limit", "nan"), "time_limit must be >= 0, got nan"),
        (("--time-limit", "-1"), "time_limit must be >= 0, got -1.0"),
    ])
    def test_negative_or_nan_limits_exit_2(self, capsys, argv, message):
        from matrex import cli

        assert cli.main(["search-shift2", "--k", "3", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_large_k_exits_5_without_traceback(self):
        # the joint-shift search goes k levels deep, past the recursion limit
        proc = run_cli("search-shift2", "--k", "3000", "--budget", "1")
        assert proc.returncode == 5
        assert "Traceback" not in proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["found"] is False
        assert obj["report"]["candidates_checked"] == 1

    def test_k_past_the_depth_cap_exits_3_in_small_memory(self):
        # The search refuses a k above MAX_SEARCH_K before it builds its
        # check plan, which costs about 320 bytes per level: under a 1 GiB
        # address space a k of 10^9 would run out of memory.
        for argv in (("--k", "4097", "--budget", "0"), ("--k", "1000000000")):
            proc = run_cli("search-shift2", *argv, memory_limit=2**30)
            assert proc.returncode == 3, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: the shift-by-two search takes k <= 4096")

    def test_k2_exits_1(self):
        for argv in (("--k", "2"), ("--k", "3", "--threads", "2")):
            proc = run_cli("search-shift2", *argv)
            assert proc.returncode == 1
            assert proc.stdout == ""


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("check",), ("enumerate-bases",),
    ])
    def test_simple_commands(self, tmp_path, argv):
        path = write(tmp_path, "m.json", UNIFORM42)
        a = run_cli(*argv, path)
        b = run_cli(*argv, path)
        assert a.stdout == b.stdout and a.returncode == b.returncode

    def test_cyclic_exchange_byte_identical(self, tmp_path):
        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]], "a1": [0]})
        runs = [run_cli("cyclic-exchange", m, b, "--verify") for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout

    def test_search_byte_identical(self):
        runs = [run_cli("search-shift2", "--k", "3", "--budget", "10000", "--seed", "7")
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0

    def test_verbose_diagnostics_do_not_touch_stdout(self, tmp_path):
        m = write(tmp_path, "m.json", K4)
        b = write(tmp_path, "b.json", {"bases": [[0, 1, 2], [3, 4, 5]], "a1": [0]})
        quiet = run_cli("cyclic-exchange", m, b)
        loud = run_cli("cyclic-exchange", m, b, "--verbose")
        assert loud.stdout == quiet.stdout
        assert "slot partition" in loud.stderr
        assert quiet.stderr == ""
