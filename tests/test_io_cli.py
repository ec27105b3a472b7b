import json
import os
import subprocess
import sys

import pytest

from oddcover.core import Graph, OddCover
from oddcover.io import (
    emit_edge_list,
    load_witness,
    parse_edge_list,
    parse_graph6,
    witness_json,
)

from support import random_graph, rng_for


def run_cli(*args, stdin=None, env=None):
    """Run ``python -m oddcover.cli``; ``env`` overlays ``os.environ``."""
    proc = subprocess.run(
        [sys.executable, "-m", "oddcover.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )
    return proc


def test_parse_edge_list_basic():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g == Graph(3, [(0, 1), (1, 2)])


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# header\n\n4 1\n0 3  # pendant\n")
    assert g == Graph(4, [(0, 3)])


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("3 1\n0 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("4 2\n0 1\n0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("3 1\n0 5\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # count mismatch


def test_edge_list_round_trip():
    rng = rng_for("roundtrip")
    for _ in range(60):
        g = random_graph(rng.randrange(1, 15), rng.random(), rng)
        assert parse_edge_list(emit_edge_list(g)) == g


def test_graph6_known_codes():
    k4 = parse_graph6("C~")
    assert k4 == Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert parse_graph6("D??") == Graph(5)  # empty on 5 vertices
    # path 0-1-2: column-major bits 101 -> value 40 -> chr(103)
    assert parse_graph6("B" + chr(40 + 63)) == Graph(3, [(0, 1), (1, 2)])
    # n >= 63 takes the long header "~" plus n in three 6-bit bytes
    assert parse_graph6("~?@?" + "?" * 336) == Graph(64)
    # n = 63: (0, 1) is the first body bit, (61, 62) bit 1952 of 1953
    assert parse_graph6("~??~_" + "?" * 324 + "G") == Graph(63, [(0, 1), (61, 62)])
    assert parse_graph6(">>graph6<<C~\n") == parse_graph6("C~")


def test_graph6_cross_parse_matches_edge_list():
    # same 3-vertex triangle through both parsers
    tri_el = parse_edge_list("3 3\n0 1\n0 2\n1 2\n")
    tri_g6 = parse_graph6("B" + chr(0b111000 + 63))
    assert tri_el == tri_g6


def test_graph6_errors():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("C~~")  # length mismatch
    with pytest.raises(ValueError):
        parse_graph6("C" + chr(20))  # byte out of range
    # n = 258048 needs the eight-byte header; its body is never sent here
    with pytest.raises(ValueError, match="expected 5549042688"):
        parse_graph6("~~???~??")


def test_witness_json_and_load():
    g = Graph(3, [(0, 1), (1, 2)])
    cover = OddCover(g, [(0, 1, 2)], "path")
    doc = witness_json(cover, bounds={"lower": 1, "upper": 2, "method": "x"})
    assert doc["valid"] and doc["count"] == 1 and doc["n"] == 3
    back = load_witness(json.dumps(doc), g)
    assert back.members == [(0, 1, 2)]
    with pytest.raises(ValueError):
        load_witness(json.dumps({"n": 5, "kind": "path", "members": []}), g)


def test_cli_cover_self_verifies(tmp_path):
    proc = run_cli("cover", "-", stdin="4 4\n0 1\n1 2\n2 3\n0 3\n")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["valid"] and doc["count"] == 2
    # density folds in arboricity: a cycle needs two forests
    assert doc["bounds"]["lower"] == 2 and doc["bounds"]["upper"] == 2


def test_cli_cover_makes_one_degree_pass(tmp_path, monkeypatch, capsys):
    # both bounds of the cover witness come from a single degree pass
    from oddcover import cli as climod
    from oddcover import core

    real, calls = core.degree_profile, []

    def counted(g):
        calls.append(g)
        return real(g)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "oddcover" and getattr(mod, "degree_profile", None) is real:
            monkeypatch.setattr(mod, "degree_profile", counted)
    gpath = tmp_path / "g.txt"
    gpath.write_text("6 7\n0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n3 5\n")
    assert climod.main(["cover", str(gpath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] and doc["bounds"]["upper"] == 4
    assert len(calls) <= 1


def test_cli_exact_two_triangles():
    text = "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"
    proc = run_cli("exact", "-", "--max-k", "4", stdin=text)
    doc = json.loads(proc.stdout)
    assert doc["k"] == 2 and doc["valid"]


def test_cli_exact_cycle_kind():
    text = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
    doc = json.loads(run_cli("exact", "-", "--kind", "cycle", stdin=text).stdout)
    assert doc["k"] == 1 and doc["kind"] == "cycle"
    # odd-degree input cannot have a cycle cover
    proc = run_cli("exact", "-", "--kind", "cycle", stdin="2 1\n0 1\n")
    assert proc.returncode == 1


def test_cli_exact_budget_exceeded():
    text = "5 10\n" + "".join(
        f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)
    )
    proc = run_cli("exact", "-", "--max-k", "2", stdin=text)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["k"] is None and doc["exceeded"]


def test_cli_verify_round_trip(tmp_path):
    gpath = tmp_path / "g.txt"
    wpath = tmp_path / "w.json"
    gpath.write_text("4 3\n0 1\n1 2\n2 3\n")
    proc = run_cli("cover", str(gpath), "-o", str(wpath))
    assert proc.returncode == 0
    proc = run_cli("verify", str(gpath), str(wpath))
    assert proc.returncode == 0 and json.loads(proc.stdout)["valid"]
    doc = json.loads(wpath.read_text())
    doc["members"][0] = [0, 2]
    wpath.write_text(json.dumps(doc))
    proc = run_cli("verify", str(gpath), str(wpath))
    assert proc.returncode == 1
    assert not json.loads(proc.stdout)["valid"]


def test_cli_exit_codes():
    assert run_cli("cover", "-", stdin="3 1\n0 0\n").returncode == 1
    assert run_cli("cover", "/no/such/file").returncode == 2
    assert run_cli("frobnicate").returncode == 1


def test_cli_gen_families_round_trip():
    proc = run_cli("gen", "--family", "cycles", "--k", "4", "--len", "4")
    g = parse_edge_list(proc.stdout)
    assert g.n == 16 and g.m == 16
    proc = run_cli("gen", "--family", "counterexample", "--k", "3")
    g = parse_edge_list(proc.stdout)
    assert g.n == 14 and g.m == 38


def test_cli_gen_walecki_comments_partition():
    proc = run_cli("gen", "--family", "walecki", "--k", "3")
    g = parse_edge_list(proc.stdout)
    assert g.m == 21
    cyc_lines = [
        line for line in proc.stdout.splitlines() if line.startswith("# cycle")
    ]
    assert len(cyc_lines) == 3
    seen = set()
    for line in cyc_lines:
        vs = [int(x) for x in line.split()[2:]]
        for i in range(len(vs)):
            e = tuple(sorted((vs[i], vs[(i + 1) % len(vs)])))
            assert e not in seen
            seen.add(e)
    assert seen == g.edges


def test_cli_top_cover_subdivision_payload():
    proc = run_cli("top-cover", "-", stdin="4 4\n0 1\n1 2\n2 3\n0 3\n")
    assert proc.returncode == 1  # single cycle: exceptional family
    proc = run_cli(
        "top-cover", "-", stdin="4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    )
    doc = json.loads(proc.stdout)
    assert doc["valid"] and doc["count"] == 2
    assert len(doc["subdivision"]) == 6


def test_cli_cycle_cover_and_iso_cover():
    eul = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
    doc = json.loads(run_cli("cycle-cover", "-", stdin=eul).stdout)
    assert doc["valid"] and doc["kind"] == "cycle" and doc["count"] == 1
    doc = json.loads(run_cli("iso-cover", "-", stdin=eul).stdout)
    assert doc["valid"] and doc["count"] == 2


def test_cli_bench_json_lines():
    proc = run_cli(
        "bench",
        "--family",
        "gnp",
        "--count",
        "4",
        "--n",
        "12",
        "--p",
        "0.3",
        "--seed",
        "3",
    )
    assert proc.returncode == 0
    lines = [json.loads(x) for x in proc.stdout.splitlines()]
    assert [r["instance"] for r in lines] == [0, 1, 2, 3]
    assert all(r["valid"] and r["count"] <= r["bound"] for r in lines)


def test_cli_bench_parallel_workers_deterministic():
    args = [
        "bench", "--family", "eulerian-random", "--verb", "cycle-cover",
        "--count", "6", "--n", "14", "--seed", "11",
    ]
    seq = run_cli(*args, env={"ODDCOVER_THREADS": "1"})
    par = run_cli(*args, env={"ODDCOVER_THREADS": "3"})
    assert seq.returncode == par.returncode == 0
    strip = lambda out: [
        {k: v for k, v in json.loads(x).items() if k != "seconds"}
        for x in out.splitlines()
    ]
    assert strip(seq.stdout) == strip(par.stdout)


def test_cli_broken_solver_exits_3(monkeypatch, capsys):
    # a solver returning an invalid witness must be a loud internal error
    import io

    from oddcover import cli as climod
    from oddcover.core import OddCover

    monkeypatch.setattr(
        climod, "path_odd_cover", lambda g: OddCover(g, [(0, 1)], "path")
    )
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2\n"))
    rc = climod.main(["cover", "-"])
    assert rc == 3  # never silently prints a bad witness


def test_cli_kit_bug_exits_3(monkeypatch, capsys):
    # a two-path kit result that is not a simple path is a bug, not bad input
    import io

    from oddcover import cli as climod
    from oddcover import twopaths

    real = twopaths._thread

    def repeating(*args, **kwargs):
        p, q = real(*args, **kwargs)
        return p + [p[0]], q

    monkeypatch.setattr(twopaths, "_thread", repeating)
    squares = "8 8\n0 1\n1 2\n2 3\n0 3\n4 5\n5 6\n6 7\n4 7\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(squares))
    assert climod.main(["cover", "-"]) == 3
    assert "repeats a vertex" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc", [RecursionError, MemoryError, KeyError, IndexError, TypeError]
)
def test_cli_unexpected_exception_exits_3(monkeypatch, capsys, exc):
    # an exception no handler expects is a bug: exit 3, not a raw traceback;
    # a KeyError from solver code is not bad input either
    import io

    from oddcover import cli as climod

    def crash(g):
        raise exc("solver crashed")

    monkeypatch.setattr(climod, "path_odd_cover", crash)
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2\n"))
    assert climod.main(["cover", "-"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_missing_family_option_exits_1(capsys):
    from oddcover import cli as climod

    for verb in (["gen"], ["bench", "--count", "1"]):
        assert climod.main([*verb, "--family", "gnp", "--n", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and "--p" in err


def test_cli_negative_vertex_count_exits_1(capsys):
    from oddcover import cli as climod

    for family in (["gnp", "--p", "0.5"], ["eulerian-random"]):
        assert climod.main(["gen", "--family", *family, "--n", "-5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and "need n >= 0" in err


def test_cli_main_inprocess_reads_stdin(monkeypatch, capsys):
    from oddcover import cli as climod

    monkeypatch.setattr(
        "sys.stdin", __import__("io").StringIO("3 2\n0 1\n1 2\n")
    )
    rc = climod.main(["cover", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"]


def test_parse_edge_list_caps_the_vertex_count():
    from oddcover.io import MAX_VERTICES

    assert parse_edge_list(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list(f"{MAX_VERTICES + 1} 0\n")


def test_cli_rejects_huge_vertex_count():
    # rejected while parsing, before any solver allocates O(n) lists
    proc = run_cli("cover", "-", stdin="1000000000000 0\n")
    assert proc.returncode == 1
    assert "invalid input" in proc.stderr


def test_cli_two_verbs_in_one_process_match_separate_runs(tmp_path, capsys):
    from oddcover import cli as climod

    gen = ["gen", "--family", "eulerian-random", "--n", "12", "--seed", "4"]
    gpath = tmp_path / "g.txt"
    assert climod.main(gen) == 0
    gen_out = capsys.readouterr().out
    gpath.write_text(gen_out)
    assert climod.main(["cycle-cover", str(gpath)]) == 0
    cover_out = capsys.readouterr().out
    assert climod._parser() is climod._parser()
    assert gen_out == run_cli(*gen).stdout
    assert cover_out == run_cli("cycle-cover", str(gpath)).stdout


_COLD_START = """
import sys
from pathlib import Path
from oddcover import cli

d = Path(sys.argv[1])

def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv
    return "numpy" in sys.modules

assert not run("gen", "--family", "gnp", "--n", 14, "--p", 0.4, "--seed", 2, "-o", d / "g.txt")
for verb in ("cover", "top-cover", "iso-cover"):
    assert not run(verb, d / "g.txt", "-o", d / f"{verb}.json"), verb
assert not run("verify", d / "g.txt", d / "cover.json")
assert not run("gen", "--family", "eulerian-random", "--n", 10, "--seed", 3, "-o", d / "e.txt")
assert not run("cycle-cover", d / "e.txt", "-o", d / "c.json")
assert not run("gen", "--family", "gnp", "--n", 6, "--p", 0.5, "--seed", 2, "-o", d / "s.txt")
assert run("exact", d / "s.txt")
"""


def test_cli_verbs_but_exact_run_without_numpy(tmp_path):
    # numpy loads on the first exact-oracle query, not at import; exact must
    # load it, so the check cannot pass for want of a numpy import to see
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
