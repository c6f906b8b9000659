import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rankforge
from rankforge.canonical import canonical_graph, from_graph6, to_graph6
from rankforge.cli import build_parser, main
from rankforge.constructions import extremal_triangle_free, subset_incidence_graph
from rankforge.graphs import cycle_graph, from_edges, path_graph


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_prints_c10(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--r", "10"])
    assert code == 0
    assert "c(10) = 29" in out


def test_construct_pipes_into_rank(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["construct", "C", "--param", "5"])
    assert code == 0
    g6 = out.strip()
    code, out, _ = run_cli(capsys, ["rank", "-"], stdin_text=g6 + "\n", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "5"


def test_construct_recursive_matches_direct_rank(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["construct", "C", "--param", "8", "--recursive"])
    assert code == 0
    assert from_graph6(out.strip()).n == 16


def test_construct_b_and_remark(capsys):
    code, out, _ = run_cli(capsys, ["construct", "B", "--param", "3"])
    assert code == 0 and from_graph6(out.strip()).n == 10
    code, out, _ = run_cli(capsys, ["construct", "remark", "--param", "7"])
    assert code == 0 and from_graph6(out.strip()).n == 9


def test_reduce_and_check(capsys, monkeypatch):
    from rankforge.graphs import add_vertex

    c8 = extremal_triangle_free(8).graph
    doubled = add_vertex(c8, c8.adj[0])
    code, out, _ = run_cli(
        capsys, ["reduce", "-"], stdin_text=to_graph6(doubled) + "\n", monkeypatch=monkeypatch
    )
    assert code == 0 and from_graph6(out.strip()).n == 16
    code, out, _ = run_cli(
        capsys,
        ["check", "trianglefree", "-"],
        stdin_text=to_graph6(cycle_graph(5)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(
        capsys,
        ["check", "alpha", "-"],
        stdin_text=to_graph6(path_graph(5)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out.startswith("3 ")
    code, out, _ = run_cli(
        capsys,
        ["check", "bipartite", "-"],
        stdin_text=to_graph6(cycle_graph(5)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out.strip() == "false"


def test_check_bipartite_puts_the_smallest_vertex_first(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["check", "bipartite", "-"],
        stdin_text=to_graph6(subset_incidence_graph(3)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out == "true parts=3,7\n"


def test_lemma_subcommands(capsys, monkeypatch):
    g6 = to_graph6(cycle_graph(5))
    code, out, _ = run_cli(
        capsys,
        ["lemma", "neighborhood", "-", "--v", "0"],
        stdin_text=g6 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and "holds=true" in out
    code, out, _ = run_cli(
        capsys,
        ["lemma", "symdiff", "-", "--u", "0", "--v", "2"],
        stdin_text=g6 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and "holds=true" in out
    code, out, _ = run_cli(
        capsys,
        ["lemma", "lov", "-", "--gap", "1"],
        stdin_text=to_graph6(path_graph(5)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h_vertices"] == [0, 1, 2, 4]
    assert payload["obstruction_free"] is True


@pytest.mark.parametrize(
    "command, options, text",
    [
        (["lemma", "lov"], ["--gap", "1"], to_graph6(path_graph(5))),
        (["lemma", "neighborhood"], ["--v", "0"], to_graph6(cycle_graph(5))),
        (["code", "plotkin"], ["--set", "0,2"], to_graph6(cycle_graph(5))),
        (["code", "singleton"], ["--d", "2"], "000\n011\n101\n110"),
    ],
    ids=["lov", "neighborhood", "plotkin", "singleton"],
)
def test_an_input_file_may_follow_the_options(capsys, tmp_path, command, options, text):
    path = tmp_path / "input"
    path.write_text(text + "\n")
    first = run_cli(capsys, [*command, str(path), *options])
    last = run_cli(capsys, [*command, *options, str(path)])
    assert first[0] == 0 and last == first


def test_a_second_input_file_is_still_a_usage_error(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(path_graph(5)) + "\n")
    code, out, err = run_cli(capsys, ["lemma", "lov", "--gap", "1", str(path), str(path)])
    assert code == 2 and out == "" and f"unrecognized arguments: {path}" in err


@pytest.mark.parametrize("u", ("-1", "9"))
def test_lemma_symdiff_rejects_a_vertex_out_of_range(capsys, monkeypatch, u):
    g6 = to_graph6(subset_incidence_graph(2))
    code, out, err = run_cli(
        capsys,
        ["lemma", "symdiff", "-", "--u", u, "--v", "2"],
        stdin_text=g6 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert "vertex index out of range" in err


def test_code_subcommands(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["code", "singleton", "-"],
        stdin_text="000\n011\n101\n110\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and "equality=even_weight" in out
    code, out, _ = run_cli(
        capsys,
        ["code", "plotkin", "-", "--set", "0,2"],
        stdin_text=to_graph6(cycle_graph(5)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and "holds=true" in out
    wt2 = "\n".join(
        "".join("1" if w >> k & 1 else "0" for k in range(5))
        for w in range(32)
        if w.bit_count() == 2
    )
    code, out, _ = run_cli(
        capsys, ["code", "f2n", "-"], stdin_text=wt2 + "\n", monkeypatch=monkeypatch
    )
    assert code == 0 and "bound=10" in out
    code, out, _ = run_cli(capsys, ["code", "f2n-max", "--n", "5"])
    assert code == 0 and "max_size=10" in out


def test_code_plotkin_defaults_to_a_maximum_independent_set(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["code", "plotkin", "-"],
        stdin_text=to_graph6(subset_incidence_graph(2)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out == "set_size=3 bound=3/2 min_symdiff=1 holds=true\n"


@pytest.mark.parametrize("ids", ("3,4,9", "0,-1"))
def test_code_plotkin_rejects_a_vertex_out_of_range(capsys, monkeypatch, ids):
    code, out, err = run_cli(
        capsys,
        ["code", "plotkin", "-", "--set", ids],
        stdin_text=to_graph6(subset_incidence_graph(2)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2 and out == "" and err == "error: vertex index out of range\n"


@pytest.mark.parametrize(
    "ids, message",
    [
        ("0,a", "--set token 'a' is not a vertex id"),
        ("1,1,2", "--set repeats vertex 1"),
        ("", "--set token '' is not a vertex id"),
    ],
    ids=["not-an-integer", "repeated", "empty"],
)
def test_code_plotkin_rejects_a_malformed_set(capsys, monkeypatch, ids, message):
    code, out, err = run_cli(
        capsys,
        ["code", "plotkin", "-", "--set", ids],
        stdin_text=to_graph6(subset_incidence_graph(2)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("v", ("-1", "9"))
def test_lemma_neighborhood_rejects_a_vertex_out_of_range(capsys, monkeypatch, v):
    code, out, err = run_cli(
        capsys,
        ["lemma", "neighborhood", "-", "--v", v],
        stdin_text=to_graph6(subset_incidence_graph(2)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2 and out == "" and err == "error: vertex index out of range\n"


def test_check_reduced_and_construct_o(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["construct", "O", "--param", "3"])
    assert code == 0 and out == "FCOf?\n"
    for g6, want in (("FCOf?", "true"), ("B_", "false")):
        code, out, _ = run_cli(
            capsys, ["check", "reduced", "-"], stdin_text=g6 + "\n", monkeypatch=monkeypatch
        )
        assert code == 0 and out == want + "\n"


def test_graph6_is_read_from_a_file_path(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(cycle_graph(5)) + "\n\n" + to_graph6(path_graph(5)) + "\n")
    code, out, _ = run_cli(capsys, ["rank", str(path)])
    assert code == 0 and out == "5\n4\n"


@pytest.mark.parametrize(
    "argv, stdin_text, stderr",
    [
        (["rank", "-"], "", "error: no graph6 input\n"),
        (["lemma", "lov", "-"], "Dhc\nDhc\n", "error: expected exactly one graph6 line\n"),
        (
            ["lemma", "neighborhood", "-"],
            "Dhc\n",
            "usage: .+: error: the following arguments are required: --v\n",
        ),
        (
            ["lemma", "symdiff", "-", "--v", "2"],
            "Dhc\n",
            "usage: .+: error: the following arguments are required: --u\n",
        ),
        (["lemma", "lov", "-"], "?\n", "error: the empty graph has no proper subgraph to search\n"),
        (
            ["code", "singleton", "-", "--d", "10"],
            "101\n",
            re.escape("error: distance must be in 1..4 (the length plus one), got 10\n"),
        ),
    ],
    ids=["empty", "two-graphs", "no-v", "no-u", "empty-graph", "singleton-d-past-length"],
)
def test_input_and_option_errors(capsys, monkeypatch, argv, stdin_text, stderr):
    code, out, err = run_cli(capsys, argv, stdin_text=stdin_text, monkeypatch=monkeypatch)
    assert code == 2 and out == "" and re.fullmatch(stderr, err, re.DOTALL)


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["lemma", "symdiff", "g.g6", "--u", "0", "--v", "2"], ["--report", "out.json"]),
        (["lemma", "neighborhood", "g.g6", "--v", "0"], ["--gap", "2"]),
        (["lemma", "lov", "g.g6"], ["--v", "3"]),
        (["code", "singleton", "code.txt"], ["--set", "0,2"]),
        (["code", "f2n-max", "--n", "5"], ["code.txt"]),
        (["construct", "B", "--param", "3"], ["--recursive"]),
    ],
    ids=["symdiff-report", "neighborhood-gap", "lov-v", "singleton-set", "f2n-max-input",
         "construct-b-recursive"],
)
def test_an_option_outside_its_variant_is_a_usage_error(
    capsys, monkeypatch, tmp_path, argv, extra
):
    (tmp_path / "g.g6").write_text(to_graph6(cycle_graph(5)) + "\n")
    (tmp_path / "code.txt").write_text("000\n011\n101\n110\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, argv)[0] == 0
    code, out, err = run_cli(capsys, [*argv, *extra])
    assert code == 2 and out == "" and f"unrecognized arguments: {' '.join(extra)}" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("jobs", ("1", "2"))
@pytest.mark.parametrize(
    "rank, cls, lines",
    [
        (
            "6",
            "bi",
            [f"core {i}/7: best so far {b}" for i, b in enumerate((6, 7, 8, 8, 8, 9, 10), 1)],
        ),
        ("4", "tfnb", []),  # no non-bipartite core at rank 4
    ],
)
def test_enumerate_progress_lines(capsys, rank, cls, lines, jobs):
    code, _, err = run_cli(
        capsys, ["enumerate", "--rank", rank, "--class", cls, "--jobs", jobs, "--progress"]
    )
    assert code == 0 and err.splitlines() == lines


def test_enumerate_report_and_merge(capsys, tmp_path):
    report_path = tmp_path / "r5.json"
    code, out, _ = run_cli(
        capsys,
        [
            "enumerate", "--rank", "5", "--class", "tfnb",
            "--jobs", "1", "--report", str(report_path),
        ],
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["max_order"] == 5 and payload["class"] == "triangle-free-nonbipartite"

    shard_paths = []
    for i in range(2):
        p = tmp_path / f"shard{i}.json"
        code, _, _ = run_cli(
            capsys,
            [
                "enumerate", "--rank", "6", "--class", "bipartite", "--jobs", "1",
                "--shards", "2", "--shard-index", str(i), "--report", str(p),
            ],
        )
        assert code == 0
        shard_paths.append(str(p))
    merged_path = tmp_path / "merged.json"
    code, _, _ = run_cli(capsys, ["merge", *shard_paths, "--report", str(merged_path)])
    assert code == 0
    merged = json.loads(merged_path.read_text())
    assert merged["max_order"] == 10 and len(merged["extremal"]) == 1


@pytest.mark.parametrize(
    "extra",
    [["--shards", "5"], ["--shard-index", "3"], ["--progress"], ["--jobs", "2"],
     ["--rank", "6"], ["--class", "tf"]],
    ids=["shards", "shard-index", "progress", "jobs", "rank", "class"],
)
def test_merge_with_a_run_option_is_a_usage_error(capsys, tmp_path, extra):
    shard = tmp_path / "s0.json"
    code, _, _ = run_cli(
        capsys,
        ["enumerate", "--rank", "6", "--class", "tf", "--jobs", "1", "--report", str(shard)],
    )
    assert code == 0
    out_path = tmp_path / "merged.json"
    argv = ["merge", str(shard)]
    assert run_cli(capsys, [*argv, "--report", str(out_path)])[0] == 0
    out_path.unlink()
    code, out, err = run_cli(capsys, [*argv, *extra, "--report", str(out_path)])
    assert code == 2 and out == "" and f"unrecognized arguments: {' '.join(extra)}" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "indices, named",
    [((0, 0), "missing [1], repeated [0]"), ((1,), "missing [0], repeated []")],
    ids=["repeated", "missing"],
)
def test_merge_of_an_incomplete_shard_set_is_a_usage_error(capsys, tmp_path, indices, named):
    paths = {}
    for i in set(indices):
        paths[i] = str(tmp_path / f"s{i}.json")
        argv = ["enumerate", "--rank", "6", "--class", "tf", "--jobs", "1",
                "--shards", "2", "--shard-index", str(i), "--report", paths[i]]
        assert run_cli(capsys, argv)[0] == 0
    out_path = tmp_path / "merged.json"
    argv = ["merge", *(paths[i] for i in indices), "--report", str(out_path)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: merge needs shard indices 0..1 once each: {named}\n"
    assert not out_path.exists()


_CLASS_NAMES = {
    "all": "all",
    "triangle-free": "triangle-free",
    "tf": "triangle-free",
    "bipartite": "bipartite",
    "bi": "bipartite",
    "triangle-free-nonbipartite": "triangle-free-nonbipartite",
    "tfnb": "triangle-free-nonbipartite",
}


def test_enumerate_takes_exactly_the_documented_class_names(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--help"])
    assert code == 0 and f"--class {{{','.join(_CLASS_NAMES)}}}" in out
    for name, value in _CLASS_NAMES.items():
        code, out, _ = run_cli(capsys, ["enumerate", "--rank", "5", "--class", name, "--jobs", "1"])
        assert code == 0 and json.loads(out)["class"] == value, name


@pytest.mark.parametrize("name", ["TFNB", " tf ", "trianglefree", "nonbipartite"])
def test_an_undocumented_class_name_is_a_usage_error(capsys, name):
    code, out, err = run_cli(capsys, ["enumerate", "--rank", "5", "--class", name, "--jobs", "1"])
    assert (code, out) == (2, "") and "argument --class: invalid choice" in err


_UNKNOWN_CLASS_REPORT = (
    '{"rank": 5, "class": "nope", "shards": 1, "shard_index": 0, "max_order": 5, '
    '"extremal": ["DLo"], "cores_processed": 1, "candidates_total": 0, '
    '"nodes_explored": 1, "elapsed_ms": 1}'
)



@pytest.mark.parametrize(
    "content, named",
    [
        ("{}", "report keys: missing"),
        ("[]", "report is not a JSON object"),
        ('{"rank": 6}', "report keys: missing"),
        (_UNKNOWN_CLASS_REPORT, "'nope' is not a valid GraphClass"),
        (_UNKNOWN_CLASS_REPORT[:22], "Unterminated string"),
        (
            _UNKNOWN_CLASS_REPORT.replace("nope", "triangle-free").replace("DLo", "n" + "?" * 9),
            "report extremal graph 'n?????????': expected 181 data bytes for n=47, got 9",
        ),
        (None, "No such file or directory"),
    ],
    ids=["empty", "list", "partial", "unknown-class", "truncated", "bad-entry", "missing"],
)
def test_merge_of_a_malformed_report_is_a_usage_error(capsys, tmp_path, content, named):
    good, bad, out_path = (tmp_path / name for name in ("s0.json", "x.json", "merged.json"))
    argv = ["enumerate", "--rank", "5", "--class", "tf", "--jobs", "1", "--report", str(good)]
    assert run_cli(capsys, argv)[0] == 0
    if content is not None:
        bad.write_text(content)
    code, out, err = run_cli(capsys, ["merge", str(good), str(bad), "--report", str(out_path)])
    assert (code, out) == (2, "") and err.startswith(f"error: {bad}: ") and named in err
    assert not out_path.exists()


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "bi", "--r", "6", "--jobs", "1"])
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "remark", "--r", "9"])
    assert code == 0
    # the rank-7 counterexample surfaces as exit code 1 with evidence
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "main", "--r", "7", "--jobs", "1"])
    assert code == 1 and "counterexample" in out


_FOUR_VERTICES_ONE_TRIANGLE = from_edges(4, [(0, 1), (0, 2), (1, 2)])
_TWO_EDGES = from_edges(4, [(0, 1), (2, 3)])  # disconnected
_STAR = from_edges(4, [(0, 1), (0, 2), (0, 3)])  # parts of 1 and 3 vertices


@pytest.mark.parametrize(
    "argv, target, fake, lines",
    [
        (
            ["main", "--r", "6", "--jobs", "1"],
            "rankforge.constructions.c_bound",
            lambda r: 10,
            ["FAIL main r=6: max order 9 (expected 10); 1 extremal graph(s)",
             f"counterexample: {to_graph6(canonical_graph(extremal_triangle_free(6).graph))}"],
        ),
        (
            ["bigen", "--r", "6"],
            "rankforge.enumeration.enumerate_all",
            lambda r, cls, min_order: (_TWO_EDGES, _STAR),
            ["FAIL bigen r=6: 2 reduced bipartite rank-6 graphs of order > 9; "
             "2 with minimum part != 3",
             f"counterexample: {to_graph6(_TWO_EDGES)}",
             f"counterexample: {to_graph6(_STAR)}"],
        ),
        (
            ["remark", "--r", "7"],
            "rankforge.constructions.bipartite_remark_graph",
            lambda r: _FOUR_VERTICES_ONE_TRIANGLE,
            ["FAIL remark r=7: not reduced; not bipartite; rank 3 != 6; order 4 != 9",
             f"counterexample: {to_graph6(_FOUR_VERTICES_ONE_TRIANGLE)}"],
        ),
        (
            ["remark", "--r", "7"],
            "rankforge.constructions.bipartite_remark_graph",
            lambda r: path_graph(2),
            ["FAIL remark r=7: rank 2 != 6; order 2 != 9; min part 1 != 4",
             f"counterexample: {to_graph6(path_graph(2))}"],
        ),
    ],
    ids=["main-order", "bigen", "remark-triangle", "remark-edge"],
)
def test_verify_prints_every_counterexample(capsys, monkeypatch, argv, target, fake, lines):
    # Each way a check can fail, forced by patching what it checks.
    monkeypatch.setattr(target, fake)
    code, out, err = run_cli(capsys, ["verify", "--theorem", *argv])
    assert (code, out.splitlines(), err) == (1, lines, "")


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, ["bounds", "--r", "0"])
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, ["construct", "Q", "--param", "3"])
    assert code == 2
    code, _, err = run_cli(capsys, ["enumerate", "--rank", "99", "--class", "tf", "--jobs", "1"])
    assert code == 2 and "RANKFORGE_MAX_R" in err
    code, out, err = run_cli(
        capsys, ["enumerate", "--rank", "5", "--class", "tf", "--shards", "0", "--shard-index", "0"]
    )
    assert code == 2 and out == "" and "argument --shards: must be at least 1, got 0" in err


def test_verify_main_names_the_rank_guard_as_enumerate_does(capsys, monkeypatch):
    monkeypatch.delenv("RANKFORGE_MAX_R", raising=False)
    guard = (
        "error: rank 10 outside the guarded range 4..9 "
        "(set RANKFORGE_MAX_R to raise the ceiling)\n"
    )
    for argv in (["verify", "--theorem", "main", "--r", "10"],
                 ["enumerate", "--rank", "10", "--class", "tfnb"]):
        assert run_cli(capsys, argv) == (2, "", guard)
    code, out, err = run_cli(capsys, ["verify", "--theorem", "main", "--r", "4"])
    assert (code, out, err) == (2, "", "error: main theorem check supports r >= 5\n")


@pytest.mark.parametrize("command", (["enumerate", "--rank", "5", "--class", "tf"],
                                     ["verify", "--theorem", "bi", "--r", "4"]))
@pytest.mark.parametrize("jobs", ("0", "-3", "two"))
def test_jobs_below_one_is_a_usage_error(capsys, command, jobs):
    code, out, err = run_cli(capsys, [*command, "--jobs", jobs])
    assert code == 2 and out == "" and "argument --jobs" in err


def test_f2n_max_without_length_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, ["code", "f2n-max"])
    assert code == 2 and out == ""
    assert "the following arguments are required: --n" in err


def test_shard_index_without_shards_is_a_usage_error(capsys, tmp_path):
    report = tmp_path / "r5.json"
    code, _, err = run_cli(
        capsys,
        [
            "enumerate", "--rank", "5", "--class", "tf", "--jobs", "1",
            "--shard-index", "3", "--report", str(report),
        ],
    )
    assert code == 2 and err.startswith("error: ") and not report.exists()


def test_internal_error_exit_code(capsys, monkeypatch):
    from rankforge import enumeration
    from rankforge.graphs import InternalError

    def broken(*args, **kwargs):
        raise InternalError("emitted graph has wrong rank")

    monkeypatch.setattr(enumeration, "enumerate_extremal", broken)
    code, _, err = run_cli(capsys, ["enumerate", "--rank", "5", "--class", "tf", "--jobs", "1"])
    assert code == 3 and "internal error: emitted graph has wrong rank" in err


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rankforge", "bounds", "--r", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "c(6) = 9" in proc.stdout


@pytest.mark.parametrize("unbuffered", (None, "1"), ids=["buffered", "unbuffered"])
def test_a_closed_pipe_ends_the_command_quietly(tmp_path, unbuffered):
    # Far more output than a pipe holds, so the command is still writing
    # when the reader closes its end.
    g6 = to_graph6(extremal_triangle_free(10).graph)
    (tmp_path / "g.g6").write_text((g6 + "\n") * 3000)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(rankforge.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "rankforge", "reduce", str(tmp_path / "g.g6")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first.decode().strip() == g6 and err == b""


@pytest.mark.parametrize("argv", (["--help"], ["enumerate", "--help"]), ids=["top", "enumerate"])
@pytest.mark.parametrize("unbuffered", (None, "1"), ids=["buffered", "unbuffered"])
def test_help_into_a_closed_pipe_ends_quietly(argv, unbuffered):
    # The read end is closed before the command starts, so every write fails.
    # Block-buffered, the help fails at the flush (141); unbuffered, argparse
    # drops the failed write and exits 0.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(rankforge.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rankforge", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == (0 if unbuffered else 141) and proc.stderr == b""


# Prints every module loaded once the command has run, after its own output.
_LOADED_SCRIPT = """
import sys
from rankforge import cli
code = cli.main(sys.argv[1:])
print("--- modules", *sorted(sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, ran, absent",
    [
        (
            ["bounds", "--r", "8"],
            ["rankforge.constructions"],
            ["rankforge.enumeration", "rankforge.canonical", "rankforge.linalg",
             "rankforge.codes", "rankforge.structure", "dataclasses", "inspect"],
        ),
        (
            ["enumerate", "--rank", "5", "--class", "tfnb", "--jobs", "1"],
            ["rankforge.enumeration", "rankforge.canonical", "rankforge.linalg"],
            ["rankforge.constructions", "rankforge.codes", "rankforge.structure",
             "dataclasses"],
        ),
        (
            ["merge", "s0.json"],
            ["rankforge.enumeration", "rankforge.canonical", "rankforge.linalg"],
            ["rankforge.constructions", "rankforge.codes", "rankforge.structure",
             "dataclasses"],
        ),
    ],
    ids=["bounds", "enumerate", "merge"],
)
def test_a_command_loads_only_the_modules_it_runs(capsys, tmp_path, argv, ran, absent):
    # The report that the merge case reads.
    report = ["enumerate", "--rank", "5", "--class", "tfnb", "--jobs", "1",
              "--report", str(tmp_path / "s0.json")]
    assert run_cli(capsys, report)[0] == 0
    src = str(Path(rankforge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.rpartition("--- modules")[2].split())
    assert sorted(set(ran) - loaded) == []
    assert sorted(loaded & set(absent)) == []


def test_every_concrete_readme_cli_line_parses(capsys):
    # The README's CLI block, less its comments and the lines with a choice
    # ({...}), an optional part ([...]) or a placeholder value (--param P).
    readme = (Path(rankforge.__file__).resolve().parents[2] / "README.md").read_text()
    block = readme[readme.index("\n## CLI\n"):].split("```")[1]
    commands = []
    for line in block.splitlines():
        line = line.partition("#")[0]
        if not re.search(r"[{\[]|--[\w-]+ [A-Z]+\b", line):
            commands += [part.split() for part in line.split(" | ") if part.strip()]
    assert {argv[1] for argv in commands} >= {"bounds", "construct", "enumerate", "merge"}
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "rankforge"
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")


def test_every_repository_path_the_readme_names_exists():
    root = Path(rankforge.__file__).resolve().parents[2]
    readme = (root / "README.md").read_text()
    named = set(re.findall(r"\b(?:src|tests|scripts|perfbench)/[\w./-]*\w", readme))
    assert named, "the pattern finds no path in README.md"
    assert sorted(path for path in named if not (root / path).exists()) == []


def test_no_rankforge_module_loads_dataclasses():
    src = str(Path(rankforge.__file__).resolve().parents[1])
    names = sorted(p.stem for p in Path(rankforge.__file__).parent.glob("*.py"))
    script = (
        "import importlib, sys\n"
        f"for name in {[n for n in names if n != '__main__']!r}:\n"
        "    importlib.import_module('rankforge.' + name)\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_importing_the_package_loads_no_module_and_defines_only_its_version():
    src = str(Path(rankforge.__file__).resolve().parents[1])
    script = (
        "import sys, rankforge\n"
        "print(sorted(m for m in sys.modules if m.startswith('rankforge')))\n"
        "print([n for n in dir(rankforge) if not n.startswith('_')])\n"
        "print(isinstance(rankforge.__version__, str))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['rankforge']", "[]", "True"]


def test_enumerate_with_two_jobs_matches_one_job_byte_for_byte(capsys):
    # Cores, candidates and search results cross the fork pool by pickling.
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            capsys, ["enumerate", "--rank", "7", "--class", "tfnb", "--jobs", jobs]
        )
        assert code == 0
        outs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out))
    assert json.loads(outs[0])["cores_processed"] > 1  # so the pool runs
    assert outs[0] == outs[1]
