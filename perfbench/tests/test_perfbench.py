"""Tests of the benchmark itself: its checker, its generator, its tracer.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

import oddcover
import oddcover.cli  # noqa: F401  (the tracer wraps cli.main)

import check
import spans
from gen import Instance, degree_stats, fingerprint
from run import END_TO_END_UNITS
from workloads import ENTRY_POINTS, WORKLOADS, Runner

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture
def runner(tmp_path):
    return Runner(oddcover, tmp_path)


def _solved(kind: str, n: int, edges):
    return Instance(kind, n, tuple(edges)), getattr(oddcover, ENTRY_POINTS[kind])(oddcover.Graph(n, edges))


# A 3-regular graph with all eight vertices odd: the cover has 4 paths.
CUBE = ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
        (0, 4), (1, 5), (2, 6), (3, 7))


def _corrupt(cover, members):
    return oddcover.OddCover(cover.target, members, cover.kind)


def test_checker_accepts_library_witness(runner):
    inst, cover = _solved("path", 8, CUBE)
    assert runner._check(inst, cover) == (cover.count, None)


def test_checker_rejects_dropped_member(runner):
    inst, cover = _solved("path", 8, CUBE)
    _, err = runner._check(inst, _corrupt(cover, cover.members[1:]))
    assert err and "parity" in err


def test_checker_rejects_added_nonedge(runner):
    inst, cover = _solved("path", 8, CUBE)
    assert (0, 2) not in CUBE
    _, err = runner._check(inst, _corrupt(cover, list(cover.members) + [(0, 2)]))
    assert err and "parity" in err


def test_checker_rejects_repeated_vertex(runner):
    inst, cover = _solved("path", 8, CUBE)
    first = tuple(cover.members[0])
    members = [first + (first[0],)] + list(cover.members[1:])
    _, err = runner._check(inst, _corrupt(cover, members))
    assert err and "repeats a vertex" in err


def test_checker_rejects_count_over_bound(runner):
    # A member listed twice cancels itself: parity holds, only the bound fails.
    inst, cover = _solved("path", 8, CUBE)
    extra = tuple(cover.members[0])
    members = list(cover.members) + [extra, extra[::-1]] * 3
    count, err = runner._check(inst, _corrupt(cover, members))
    assert count == cover.count + 6
    assert err and "outside" in err


def test_checker_rejects_cycle_cover_with_paths(runner):
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    inst, cover = _solved("cycle", 5, edges)
    assert runner._check(inst, cover)[1] is None
    fake = oddcover.OddCover(cover.target, cover.members, "path")
    assert "kind" in runner._check(inst, fake)[1]


def test_checker_rejects_broken_subdivision(runner):
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (1, 3)]
    inst, (h, cover, chains) = _solved("top", 5, edges)
    assert runner._check(inst, (h, cover, chains))[1] is None
    bad = dict(chains)
    bad[(0, 1)] = [0, 2, 1]  # routed through an original vertex
    assert "subdivision vertex" in runner._check(inst, (h, cover, bad))[1]


def test_checker_rejects_bad_cli_witness():
    edges = [(0, 1), (1, 2), (2, 3)]
    doc = {"n": 4, "kind": "path", "members": [[0, 1, 2, 3]], "valid": True, "count": 1}
    assert check.check_witness_doc(doc, 4, edges) is None
    assert check.check_witness_doc(dict(doc, count=2), 4, edges) is not None
    assert check.check_witness_doc(dict(doc, members=[[0, 1, 2]]), 4, edges) is not None
    assert check.check_witness_doc(dict(doc, valid=False), 4, edges) is not None


def test_cli_instance_round_trips_through_disk(runner):
    out = runner.run(Instance("cli_cover", 8, CUBE))
    assert out.error is None and out.count == 4 == out.lower


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    w = WORKLOADS[name]
    head = w.head(7)
    assert head == w.head(7)
    assert fingerprint(head) == fingerprint(w.head(7))
    assert fingerprint(w.head(8)) != fingerprint(head)
    assert sum(map(len, head)) >= w.min_instances
    drawn = list(itertools.islice(w.rounds(7), len(head) + 2))
    assert drawn[: len(head)] == head
    assert drawn[len(head):] == [w.round(7, len(head)), w.round(7, len(head) + 1)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_graphs_are_simple_and_in_domain(name):
    for rnd in WORKLOADS[name].head(3)[:3]:
        for inst in rnd:
            assert all(0 <= u < v < inst.n for u, v in inst.edges)
            assert len(set(inst.edges)) == len(inst.edges) > 0
            delta, v_odd = degree_stats(inst.n, inst.edges)
            if inst.kind in ("cycle", "cycle_top", "exact_c2"):
                assert v_odd == 0
            if inst.kind == "cycle_top":
                assert delta >= 4


def _bindings():
    """Every object bound in an oddcover module, plus the two wrapped methods."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "oddcover" or name.startswith("oddcover."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
    out["Graph.__init__"] = vars(oddcover.Graph)["__init__"]
    out["PathSystem.parity_edges"] = vars(oddcover.PathSystem)["parity_edges"]
    return out


def test_traced_run_restores_every_function(runner):
    before = _bindings()
    tracer = spans.Tracer()
    instances = [
        Instance("cli_cover", 8, CUBE),
        Instance("path", 8, CUBE),
        Instance("top", 8, CUBE),
        Instance("cycle", 5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))),
        Instance("exact_p2", 5, ((0, 1), (1, 2), (2, 3), (3, 4))),
        # odd degrees: cycle_odd_cover raises, and the tracer must still restore
        Instance("cycle", 4, ((0, 1), (1, 2), (2, 3))),
    ]
    outcomes = [runner.run(inst, tracer) for inst in instances]
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert [o.error is None for o in outcomes] == [True] * 5 + [False]
    metrics = tracer.metrics(len(instances), 0, 0.0)
    assert metrics["cli.main.calls"] > 0 and metrics["io.parse_edge_list.calls"] > 0
    assert metrics["systems.classify_endpoints.calls"] > 0
    assert metrics["core.Graph.edges_built"] > 0
    assert metrics["solver.raised"] == 1
    assert not tracer.absent


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["solver.path_odd_cover", -1, 0, 0.0, 10.0],
        ["core.verify_cover", 0, 0, 1.0, 4.0],
        ["core.Graph", 1, 0, 2.0, 3.0],
    ]
    m = tracer.metrics(1, 1, 0.0)
    assert m["solver.path_odd_cover.self_s"] == pytest.approx(7.0)
    assert m["core.verify_cover.self_s"] == pytest.approx(2.0)
    assert m["core.self_s"] == pytest.approx(3.0)


def test_missing_target_is_reported_absent(runner, monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("core", "no_such_function"),))
    tracer = spans.Tracer()
    assert runner.run(Instance("path", 8, CUBE), tracer).error is None
    assert tracer.absent == ["core.no_such_function"]
    metrics = tracer.metrics(1, len(CUBE), 0.0)
    assert "core.no_such_function.calls" not in metrics
    assert metrics["solver.path_odd_cover.calls"] == 1


def test_benchmark_json_names_every_metric():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.per_layer_units()
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
