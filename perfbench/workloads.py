"""The four workloads: what each round holds, and how one instance is run.

A round is one instance of each size stratum and kind; a run draws round
r only when it reaches it and times whole rounds until its time is up, so
every run sees the same mix however many rounds it manages.  The sizes of
round r are the same for every seed and only the graphs depend on it,
which keeps runs with different seeds comparable.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
from gen import Instance, degree_stats, draw, eulerian, gnm, lower_bound, round_rng, sizes


def _nonempty(edges) -> bool:
    return bool(edges)


def _sparse_odd(rng, r: int) -> list[Instance]:
    return [Instance("cli_cover", n, gnm(n, 3 / n, rng)) for n in sizes(150, 900, 8, r)]


def _dense_layers(rng, r: int) -> list[Instance]:
    out = []
    for n in sizes(40, 150, 6, r):
        out.append(Instance("cycle", n, eulerian(n, rng)))
        out.append(Instance("path", n, gnm(n, 0.3, rng)))
    return out


def _subdivision(rng, r: int) -> list[Instance]:
    # k <= 1 is exactly the excluded family (cycles plus at most one path)
    # and the trivial one-path case; delta >= 4 keeps cycle_top_cover off
    # the excluded union of disjoint cycles.
    out = []
    for n_top, n_cyc in zip(sizes(10, 21, 6, r), sizes(8, 15, 6, r)):
        top = draw(lambda rg: gnm(n_top, 0.25, rg), lambda es: lower_bound(n_top, es) >= 2, rng)
        cyc = draw(lambda rg: eulerian(n_cyc, rg), lambda es: degree_stats(n_cyc, es)[0] >= 4, rng)
        out += [Instance("top", n_top, top), Instance("cycle_top", n_cyc, cyc)]
    return out


def _small_mix(rng, r: int) -> list[Instance]:
    out = []
    for iso_make in (lambda rg: gnm(10, 0.4, rg), lambda rg: eulerian(10, rg)):
        out += [
            Instance("path", 30, gnm(30, 0.3, rng)),
            Instance("iso", 10, draw(iso_make, _nonempty, rng)),
            Instance("exact_p2", 7, draw(lambda rg: gnm(7, 0.5, rg), _nonempty, rng)),
            Instance("exact_c2", 7, draw(lambda rg: eulerian(7, rg), _nonempty, rng)),
        ]
    return out


def _oracle_depth(oc, seed: int) -> list[tuple[str, int, list]]:
    """One exact_p2 and one exact_c2 call whose answer is at least 3.

    The oracle fills its n = 7 tables lazily, to depth ceil(k/2) for an
    answer k.  Every answer seen on 2500 graphs of each family was at most
    3, so an answer of 3 fills the tables as deep as any instance needs.
    """
    rng = round_rng("small_mix", seed, -2)
    calls = []
    for entry, make in (("exact_p2", lambda rg: gnm(7, 0.5, rg)), ("exact_c2", lambda rg: eulerian(7, rg))):
        for _ in range(200):
            edges = make(rng)
            if edges and getattr(oc, entry)(oc.Graph(7, edges))[0] >= 3:
                calls.append((entry, 7, edges))
                break
    return calls


def _no_setup(oc, seed: int) -> list:
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable
    min_instances: int
    setup_calls: Callable = _no_setup  # library calls that finish lazy set-up

    def round(self, seed: int, r: int) -> list[Instance]:
        return self.make_round(round_rng(self.name, seed, r), r)

    def head(self, seed: int) -> list[list[Instance]]:
        """The first rounds, enough for min_instances; every run times at
        least these, and the input fingerprint covers them."""
        size = len(self.round(seed, 0))
        return [self.round(seed, r) for r in range(-(-self.min_instances // size))]

    def rounds(self, seed: int):
        """Every round in order, the head first, each drawn when reached."""
        head = self.head(seed)
        return itertools.chain(head, (self.round(seed, r) for r in itertools.count(len(head))))

    def warm_instances(self, seed: int) -> list[Instance]:
        """The smallest instance of each kind from a round outside the
        timed ones, solved untimed before the run."""
        warm: dict[str, Instance] = {}
        for inst in sorted(self.round(seed, -1), key=lambda i: i.m):
            warm.setdefault(inst.kind, inst)
        return list(warm.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse_odd", _sparse_odd, 100),
        Workload("dense_layers", _dense_layers, 100),
        Workload("subdivision", _subdivision, 100),
        Workload("small_mix", _small_mix, 400, _oracle_depth),
    )
}


@dataclass
class Outcome:
    seconds: float
    count: int
    lower: int
    error: str | None


ENTRY_POINTS = {
    "path": "path_odd_cover",
    "cycle": "cycle_odd_cover",
    "iso": "iso_cover_general",
    "top": "topological_cover",
    "cycle_top": "cycle_top_cover",
    "exact_p2": "exact_p2",
    "exact_c2": "exact_c2",
}


class Runner:
    """Runs instances through oddcover's public entry points and checks them.

    Only the library call is timed.  Entry points are looked up on the
    package after a tracer is installed, so a traced call reaches the
    wrapped functions, and the input Graph is built before, so its
    construction is never counted.
    """

    def __init__(self, oddcover, workdir: Path):
        self.oc = oddcover
        self.graph_file = workdir / "graph.txt"
        self.witness_file = workdir / "witness.json"

    def run(self, inst: Instance, tracer=None) -> Outcome:
        lower = lower_bound(inst.n, inst.edges)
        call = self._prepare(inst)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an instance that raises is a failed instance
            return Outcome(time.perf_counter() - t0, 0, lower, f"raised {exc!r}")
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        try:
            count, error = self._check(inst, result)
        except Exception as exc:  # so is one whose result cannot be read
            return Outcome(seconds, 0, lower, f"unreadable result: {exc!r}")
        return Outcome(seconds, count, lower, error)

    def _prepare(self, inst: Instance) -> Callable:
        if inst.kind == "cli_cover":
            self.graph_file.write_text(
                f"{inst.n} {inst.m}\n" + "".join(f"{u} {v}\n" for u, v in inst.edges)
            )
            self.witness_file.unlink(missing_ok=True)
            argv = ["cover", str(self.graph_file), "-o", str(self.witness_file)]
            return lambda: self.oc.cli.main(argv)
        g = self.oc.Graph(inst.n, inst.edges)
        return lambda: getattr(self.oc, ENTRY_POINTS[inst.kind])(g)

    def _check(self, inst: Instance, result) -> tuple[int, str | None]:
        if inst.kind != "cli_cover":
            return self._check_cover(inst, result)
        if result != 0:
            return 0, f"exit code {result}"
        doc = json.loads(self.witness_file.read_text())
        return len(doc["members"]), check.check_witness_doc(doc, inst.n, inst.edges)

    def _check_cover(self, inst: Instance, result) -> tuple[int, str | None]:
        n, edges, kind = inst.n, inst.edges, inst.kind
        delta, _ = degree_stats(n, edges)
        lower = lower_bound(n, edges)
        lo, hi = {
            "path": (0, check.path_bound(n, edges)),
            "cycle": (0, delta),
            "iso": (0, check.iso_bound(n, edges)),
            "top": (lower, lower),
            "cycle_top": (1, delta // 2),
            "exact_p2": (lower, check.path_bound(n, edges)),
            "exact_c2": (delta // 2, delta),
        }[kind]
        target, universe, err = set(edges), n, None
        if kind in ("top", "cycle_top"):
            h, cover, chains = result
            target, universe = set(h.edges), h.n
            err = check.check_subdivision(n, edges, chains, h.n, target)
        elif kind in ("exact_p2", "exact_c2"):
            k, cover = result
            if k != cover.count:
                err = f"oracle claims {k} but returns {cover.count} members"
        else:
            cover = result[0] if kind == "iso" else result
            universe = cover.target.n
            if set(cover.target.edges) != target or universe < n or (universe > n and kind != "iso"):
                err = "cover target is not the input graph"
        want_kind = "cycle" if kind in ("cycle", "cycle_top", "exact_c2") else "path"
        if cover.kind != want_kind:
            err = err or f"witness kind {cover.kind!r}, expected {want_kind!r}"
        members = [tuple(m) for m in cover.members]
        err = err or check.check_members(universe, want_kind, members, target)
        return len(members), err or check.check_count(len(members), lo, hi)
