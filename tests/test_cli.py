from __future__ import annotations

import json

import pytest

from burnkit import burning, cli, exact
from burnkit import graph as graph_module
from burnkit.burning import (
    BurningSchedule,
    read_schedule,
    simulate,
    write_schedule,
)
from burnkit.cli import main
from burnkit.graph import (
    build_path,
    build_path_forest,
    read_graph,
    write_graph,
)
from burnkit.interval_reduction import construct_ig
from burnkit.partition import ThreePartitionInstance, write_instance
from burnkit.permutation_reduction import construct_px, write_permutation
from conftest import run_python

WORKED = ThreePartitionInstance.of([10, 11, 12, 14, 15, 16])
UNSOLVABLE = ThreePartitionInstance.of([11, 12, 13, 14, 15, 21])

PERMUTATION_DEMO = (
    "instance: 10 11 12 14 15 16\n"
    "path forest gadget: 256 vertices, component orders "
    "75 75 25 17 15 13 11 9 7 5 3 1\n"
    "schedule burns everything in 16 rounds\n"
    "exact search agrees: burning number = 16\n"
    "extracted partition matches: 10 14 15; 11 12 16\n"
)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.txt"
    path.write_text(write_instance(WORKED))
    return str(path)


@pytest.fixture
def path9_file(tmp_path):
    path = tmp_path / "path9.graph"
    path.write_text(write_graph(build_path(9)))
    return str(path)


class TestGen:
    def test_path(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        assert main(["gen", "path", "--n", "9", "--out", str(out)]) == 0
        assert "9 vertices" in capsys.readouterr().out
        assert read_graph(out.read_text()) == build_path(9)

    def test_forest_random_is_seed_deterministic(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        argv = ["gen", "forest", "--random", "6", "--seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_forest_random_rejects_nonpositive_max_len(self, tmp_path,
                                                        capsys):
        out = tmp_path / "x.graph"
        argv = ["gen", "forest", "--random", "3", "--max-len", "0",
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-len must be at least 1, got 0\n"
        assert not out.exists()

    def test_grid_and_explicit_forest(self, tmp_path):
        out = tmp_path / "g.graph"
        assert main(
            ["gen", "grid", "--rows", "3", "--cols", "4", "--out", str(out)]
        ) == 0
        assert read_graph(out.read_text()).n == 12
        assert main(
            ["gen", "forest", "--lengths", "4", "1", "--out", str(out)]
        ) == 0
        assert read_graph(out.read_text()).n == 5

    def test_pg_from_permutation_file(self, tmp_path):
        perm_file = tmp_path / "p.perm"
        perm_file.write_text(write_permutation((3, 1, 5, 2, 4)))
        out = tmp_path / "g.graph"
        assert main(
            ["gen", "pg", "--perm", str(perm_file), "--out", str(out)]
        ) == 0
        g = read_graph(out.read_text())
        assert tuple(g.edges()) == ((0, 2), (1, 2), (1, 4), (3, 4))

    def test_missing_input_file_is_malformed(self, tmp_path):
        out = tmp_path / "g.graph"
        code = main(
            ["gen", "pg", "--perm", str(tmp_path / "no.perm"),
             "--out", str(out)]
        )
        assert code == 2

    def test_unwritable_output_is_malformed(self, tmp_path, path9_file,
                                            capsys):
        out = tmp_path / "no-such-dir" / "x.sched"
        code = main(["greedy", "--graph", path9_file, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert len(err.splitlines()) == 1


class TestVerify:
    def test_complete(self, tmp_path, path9_file, capsys):
        sched = tmp_path / "s.txt"
        sched.write_text(write_schedule([2, 6, 8]))
        code = main(["verify", "--graph", path9_file,
                     "--schedule", str(sched), "--report", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"complete": True, "rounds": 3}

    def test_incomplete_fails(self, tmp_path, path9_file):
        sched = tmp_path / "s.txt"
        sched.write_text(write_schedule([2, 6]))
        assert main(
            ["verify", "--graph", path9_file, "--schedule", str(sched)]
        ) == 1

    def test_semantically_bad_schedule_fails(self, tmp_path, path9_file):
        sched = tmp_path / "s.txt"
        sched.write_text(write_schedule([4, 5, 6]))
        assert main(
            ["verify", "--graph", path9_file, "--schedule", str(sched)]
        ) == 1

    def test_already_burnt_source_fails_with_its_round(
        self, tmp_path, path9_file, capsys
    ):
        sched = tmp_path / "s.txt"
        sched.write_text(write_schedule([4, 0, 5]))
        assert main(
            ["verify", "--graph", path9_file, "--schedule", str(sched)]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: source 5 of round 3 already burnt in round 2\n"
        )

    def test_garbled_schedule_is_malformed(self, tmp_path, path9_file):
        sched = tmp_path / "s.txt"
        sched.write_text("2 six 8\n")
        assert main(
            ["verify", "--graph", path9_file, "--schedule", str(sched)]
        ) == 2


class TestGreedyAndExact:
    def test_greedy_writes_replayable_schedule(
        self, tmp_path, path9_file
    ):
        out = tmp_path / "s.txt"
        assert main(
            ["greedy", "--graph", path9_file, "--out", str(out)]
        ) == 0
        sched = read_schedule(out.read_text())
        assert simulate(build_path(9), sched).complete

    def test_exact_path9(self, path9_file, capsys):
        code = main(["exact", "--graph", path9_file, "--report", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3
        out = simulate(build_path(9), payload["schedule"])
        assert out.complete and out.rounds_used <= 3

    def test_budget_flag_exhausts(self, tmp_path):
        forest = tmp_path / "f.graph"
        assert main(
            ["gen", "forest", "--lengths",
             *[str(2 * i + 1) for i in range(16)], "--out", str(forest)]
        ) == 0
        assert main(
            ["exact", "--graph", str(forest), "--budget", "10"]
        ) == 3

    def test_oversized_graph_header_is_malformed(
        self, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("a graph was allocated")

        monkeypatch.setattr(graph_module, "Graph", refuse)
        huge = tmp_path / "huge.graph"
        huge.write_text("10000000000 0\n")
        assert main(["exact", "--graph", str(huge)]) == 2
        assert capsys.readouterr().err == (
            "error: graph of 10000000000 vertices exceeds the limit "
            f"of {graph_module._MAX_READ_ORDER}\n"
        )

    def test_oversized_masks_exhaust_before_search(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(exact, "_MAX_MASK_BITS", 1000)
        path = tmp_path / "path40.graph"
        path.write_text(write_graph(build_path(40)))
        assert main(["exact", "--graph", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: ball masks of up to "
        )

    def test_internal_fault_exits_4(self, monkeypatch, path9_file, capsys):
        farthest_first = burning._farthest_first

        def drop_last_source(*args):
            return BurningSchedule(farthest_first(*args).sources[:-1])

        monkeypatch.setattr(burning, "_farthest_first", drop_last_source)
        assert main(["greedy", "--graph", path9_file]) == 4
        assert capsys.readouterr().err == (
            "error: internal: greedy schedule does not burn the whole graph\n"
        )

    def test_unexpected_exception_exits_4(self, tmp_path, capsys):
        # 1,000 components put the search at k = 1,000, one stack frame
        # per round, past Python's default recursion limit
        forest = tmp_path / "forest.graph"
        forest.write_text(write_graph(build_path_forest([3] * 999 + [1])))
        assert main(["exact", "--graph", str(forest)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: RecursionError: ")
        assert captured.err.count("\n") == 1

    def test_exact_out_holds_the_printed_schedule(
        self, tmp_path, path9_file, capsys
    ):
        out = tmp_path / "s.txt"
        assert main(["exact", "--graph", path9_file, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "k = 3"
        assert printed[1] == "schedule = " + out.read_text().rstrip("\n")
        assert out.read_text().count("\n") == 1

    def test_budget_env(self, tmp_path, monkeypatch, path9_file):
        forest = tmp_path / "f.graph"
        main(["gen", "forest", "--lengths",
              *[str(2 * i + 1) for i in range(16)], "--out", str(forest)])
        monkeypatch.setenv("BURN_BUDGET", "10")
        assert main(["exact", "--graph", str(forest)]) == 3
        monkeypatch.setenv("BURN_BUDGET", "plenty")
        assert main(["exact", "--graph", path9_file]) == 2


def test_commands_without_a_burner_leave_numpy_unloaded(
    tmp_path, instance_file
):
    graph, sched = tmp_path / "p.graph", tmp_path / "s.txt"
    sched.write_text("2 6 8\n")
    script = f"""
import sys
from burnkit.cli import main
assert "numpy" not in sys.modules
for argv in (
    ["gen", "path", "--n", "9", "--out", {str(graph)!r}],
    ["3part", "--in", {instance_file!r}],
    ["verify", "--graph", {str(graph)!r}, "--schedule", {str(sched)!r}],
    ["reduce-ig", "--in", {instance_file!r}, "--witness", {str(sched)!r}],
):
    assert main(argv) == 0, argv
print("numpy" in sys.modules)
"""
    done = run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


class TestGrid:
    def test_single_grid_json(self, capsys):
        code = main(["grid", "--rows", "9", "--cols", "9",
                     "--report", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower_bound"] == 5
        assert payload["upper_bound"] == 14
        assert payload["rounds"] <= 2 * payload["lower_bound"]
        assert payload["ratio"] == payload["rounds"] / payload["lower_bound"]
        out = simulate(
            read_graph_for_grid(9, 9), payload["schedule"]
        )
        assert out.complete and out.rounds_used == payload["rounds"]

    def test_non_square_has_no_upper_bound(self, capsys):
        assert main(["grid", "--rows", "4", "--cols", "7",
                     "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upper_bound"] is None

    def test_sweep_runs_in_parallel(self, capsys):
        code = main(["grid", "--sweep", "5", "9", "--jobs", "2",
                     "--report", "json"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert [p["rows"] for p in payloads] == [5, 9]
        assert all("schedule" not in p for p in payloads)

    def test_out_holds_the_printed_schedule(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["grid", "--rows", "6", "--cols", "7", "--out", str(out),
                     "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert out.read_text() == write_schedule(payload["schedule"])

    def test_sweep_refuses_a_zero_side_before_any_worker_starts(
        self, monkeypatch, capsys
    ):
        started = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor",
                            lambda **kwargs: started.append(kwargs))
        assert main(["grid", "--sweep", "3", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: grid sides must be positive, got 0x0\n"
        assert captured.out == "" and started == []

    def test_rows_required_without_sweep(self):
        assert main(["grid", "--rows", "5"]) == 2

    def test_sweep_rejects_zero_jobs(self, capsys):
        assert main(["grid", "--sweep", "3", "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --jobs must be at least 1, got 0\n"


def read_graph_for_grid(rows: int, cols: int):
    from burnkit.graph import build_grid

    return build_grid(rows, cols)


class TestThreePart:
    def test_solvable(self, instance_file, capsys):
        assert main(["3part", "--in", instance_file,
                     "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "solvable": True,
            "triples": [[10, 14, 15], [11, 12, 16]],
        }

    def test_unsolvable(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(write_instance(UNSOLVABLE))
        assert main(["3part", "--in", str(path)]) == 1
        assert "no distinct 3-partition" in capsys.readouterr().out

    def test_invalid_instance_is_malformed(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("1 2 3\n")
        assert main(["3part", "--in", str(path)]) == 2


class TestReductions:
    def test_reduce_ig_roundtrip_files(self, tmp_path, instance_file,
                                       capsys):
        graph_file = tmp_path / "ig.graph"
        intervals_file = tmp_path / "ig.intervals"
        witness_file = tmp_path / "ig.schedule"
        code = main([
            "reduce-ig", "--in", instance_file,
            "--emit-graph", str(graph_file),
            "--emit-intervals", str(intervals_file),
            "--witness", str(witness_file),
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            "m = 16\n"
            "vertices = 1888\n"
            "target rounds = 33\n"
            f"witness of 33 rounds written to {witness_file}\n"
        )

        # the emitted intervals regenerate the emitted graph exactly
        regen = tmp_path / "regen.graph"
        assert main(["gen", "ig", "--intervals", str(intervals_file),
                     "--out", str(regen)]) == 0
        assert regen.read_bytes() == graph_file.read_bytes()

        # and the witness is a complete 33-round schedule on it
        assert main(["verify", "--graph", str(graph_file),
                     "--schedule", str(witness_file)]) == 0
        sched = read_schedule(witness_file.read_text())
        art = construct_ig(WORKED)
        out = simulate(art.graph, sched)
        assert out.complete and out.rounds_used == 33

    def test_reduce_pg_roundtrip_files(self, tmp_path, instance_file,
                                       capsys):
        graph_file = tmp_path / "pg.graph"
        perm_file = tmp_path / "pg.perm"
        witness_file = tmp_path / "pg.schedule"
        code = main([
            "reduce-pg", "--in", instance_file,
            "--emit-graph", str(graph_file),
            "--emit-perm", str(perm_file),
            "--witness", str(witness_file),
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            "m = 16\n"
            "vertices = 256\n"
            "components = 12\n"
            "target rounds = 16\n"
            f"witness of 16 rounds written to {witness_file}\n"
        )
        regen = tmp_path / "regen.graph"
        assert main(["gen", "pg", "--perm", str(perm_file),
                     "--out", str(regen)]) == 0
        assert regen.read_bytes() == graph_file.read_bytes()
        sched = read_schedule(witness_file.read_text())
        art = construct_px(WORKED)
        out = simulate(art.graph, sched)
        assert out.complete and out.rounds_used == 16

    def test_reduce_unsolvable_witness_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(write_instance(UNSOLVABLE))
        code = main(["reduce-pg", "--in", str(path),
                     "--witness", str(tmp_path / "w.txt")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "m = 21\nvertices = 441\ncomponents = 17\ntarget rounds = 21\n"
        )
        assert captured.err == "instance has no solution, no witness written\n"

    def test_extract_ig(self, tmp_path, instance_file, capsys):
        witness_file = tmp_path / "w.txt"
        assert main(["reduce-ig", "--in", instance_file,
                     "--witness", str(witness_file), "--report", "json"]) == 0
        assert capsys.readouterr().out == (
            '{"m": 16, "target_rounds": 33, "vertices": 1888, "witness": '
            "[107, 246, 333, 410, 483, 552, 617, 678, 735, 788, 837, 882, "
            "924, 964, 1002, 1038, 1072, 199, 60, 32, 290, 172, 150, 9, 372, "
            "447, 518, 585, 648, 707, 762, 813, 860]}\n"
        )
        assert main(["extract-ig", "--artifact", instance_file,
                     "--schedule", str(witness_file),
                     "--report", "json"]) == 0
        assert capsys.readouterr().out == (
            '{"triples": [[10, 14, 15], [11, 12, 16]]}\n'
        )

    def test_extract_pg_rejects_perturbed(self, tmp_path, instance_file):
        witness_file = tmp_path / "w.txt"
        assert main(["reduce-pg", "--in", instance_file,
                     "--witness", str(witness_file)]) == 0
        sched = list(read_schedule(witness_file.read_text()))
        sched[0], sched[1] = sched[1], sched[0]
        bad = tmp_path / "bad.txt"
        bad.write_text(write_schedule(sched))
        assert main(["extract-pg", "--artifact", instance_file,
                     "--schedule", str(bad)]) == 1


class TestDemosAndDispatch:
    def test_interval_demo(self, capsys):
        assert main(["--demo", "s5.2"]) == 0
        assert capsys.readouterr().out == (
            "instance: 10 11 12 14 15 16\n"
            "solution: 10 14 15; 11 12 16\n"
            "interval gadget: 1888 vertices, spine 1089, "
            "decides at 33 rounds\n"
            "schedule burns everything in 33 rounds\n"
            "extracted partition matches: 10 14 15; 11 12 16\n"
        )

    def test_permutation_demo(self, capsys):
        assert main(["--demo", "s6.3"]) == 0
        assert capsys.readouterr().out == PERMUTATION_DEMO

    def test_one_process_serves_a_mixed_sequence(
        self, tmp_path, instance_file, capsys
    ):
        graph, witness = tmp_path / "p.graph", tmp_path / "w.txt"
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 x\n")
        triples = "triples = 10 14 15; 11 12 16\n"
        calls = [
            (["gen", "path", "--n", "9", "--out", str(graph)], 0,
             f"wrote graph with 9 vertices and 8 edges to {graph}\n"),
            (["reduce-ig", "--in", instance_file, "--witness", str(witness)],
             0, "m = 16\nvertices = 1888\ntarget rounds = 33\n"
             f"witness of 33 rounds written to {witness}\n"),
            (["extract-ig", "--artifact", instance_file,
              "--schedule", str(witness)], 0, triples),
            (["3part", "--in", instance_file], 0, triples),
            (["3part", "--in", str(bad)], 2, ""),
            (["--demo", "s6.3"], 0, PERMUTATION_DEMO),
            (["3part", "--in", instance_file, "--report", "json"], 0,
             '{"solvable": true, "triples": [[10, 14, 15], [11, 12, 16]]}\n'),
        ]
        for argv, code, out in calls:
            assert main(argv) == code, argv
            assert capsys.readouterr().out == out, argv

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err
