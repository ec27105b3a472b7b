"""Command-line surface: solve, verify, generate, benchmark.

Verbs: cover, cycle-cover, top-cover, iso-cover, exact, verify, gen, bench.
Solver verbs read a graph (edge-list by default, graph6 with --format),
re-verify their own witness before printing it as JSON with a bounds
object, and exit 3 if the self-check fails (a bug, not bad input).  Exit
codes: 0 success, 1 invalid input or failed verification, 2 I/O error,
3 internal error (an invariant breach or any other unexpected exception).
bench emits one JSON line per instance, in instance order, and honors
ODDCOVER_THREADS for parallel workers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .core import (
    MAX_DENSITY_N,
    Graph,
    InternalInvariantError,
    degree_bound,
    degree_bounds,
    degree_profile,
    lower_bound,
    max_subgraph_density,
    verify_cover,
)
from .families import FAMILIES, counterexample, generate, walecki_cycles
from .io import emit_edge_list, load_witness, parse_edge_list, parse_graph6, witness_json
from .oracle import exact_c2, exact_p2
from .solver import cycle_odd_cover, iso_cover_general, path_odd_cover
from .systems import topological_cover


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(args: argparse.Namespace) -> Graph:
    text = _read_text(args.input)
    if args.format == "graph6":
        return parse_graph6(text)
    return parse_edge_list(text)


def _bounds(g: Graph, lower: int, upper: int, method: str) -> dict:
    """The witness's bounds object; for small n the density raises `lower`."""
    if g.n <= MAX_DENSITY_N:
        lower = max(lower, max_subgraph_density(g))
    return {
        "lower": lower,
        "upper": upper,
        "method": method,
    }


def _emit_cover(args, cover, bounds, extra=None) -> int:
    doc = witness_json(cover, bounds=bounds, extra=extra)
    if not doc["valid"]:
        raise InternalInvariantError("solver output failed verification")
    _write_text(getattr(args, "output", None), json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_cover(args) -> int:
    g = _load_graph(args)
    cover = path_odd_cover(g)
    return _emit_cover(args, cover, _bounds(g, *degree_bounds(g), "degree-pipeline"))


def _cmd_cycle_cover(args) -> int:
    g = _load_graph(args)
    cover = cycle_odd_cover(g)
    delta, _, _ = degree_profile(g)
    bounds = {"lower": delta // 2, "upper": delta, "method": "layer-closing"}
    return _emit_cover(args, cover, bounds)


def _cmd_top_cover(args) -> int:
    g = _load_graph(args)
    h, cover, chains = topological_cover(g)
    k = cover.count  # certified equal to lower_bound(g)
    extra = {
        "subdivision": {f"{u},{v}": chain for (u, v), chain in sorted(chains.items())},
        "target_edges": [list(e) for e in sorted(h.edges)],
    }
    bounds = {"lower": k, "upper": k, "method": "subdivision-system"}
    return _emit_cover(args, cover, bounds, extra)


def _cmd_iso_cover(args) -> int:
    g = _load_graph(args)
    cover, branch = iso_cover_general(g)
    extra = {"added_vertices": cover.target.n - g.n}
    bounds = _bounds(g, lower_bound(g), cover.count, f"iso/{branch}")
    return _emit_cover(args, cover, bounds, extra)


def _cmd_exact(args) -> int:
    g = _load_graph(args)
    solve = exact_c2 if args.kind == "cycle" else exact_p2
    res = solve(g, args.max_k)
    if res is None:
        doc = {"k": None, "exceeded": True, "max_k": args.max_k}
        _write_text(args.output, json.dumps(doc, indent=2) + "\n")
        return 0
    k, cover = res
    bounds = _bounds(g, lower_bound(g), k, "exhaustive")
    return _emit_cover(args, cover, bounds, extra={"k": k})


def _cmd_verify(args) -> int:
    g = parse_edge_list(_read_text(args.graph))
    cover = load_witness(_read_text(args.witness), g)
    report = verify_cover(cover)
    doc = {
        "valid": report.valid,
        "count": cover.count,
        "member_errors": report.member_errors,
        "missing_edges": [list(e) for e in report.missing_edges],
        "excess_edges": [list(e) for e in report.excess_edges],
    }
    _write_text(args.output, json.dumps(doc, indent=2) + "\n")
    return 0 if report.valid else 1


def _family_params(args) -> dict:
    opts = {"n": args.n, "k": args.k, "len": args.length, "p": args.p, "seed": args.seed}
    return {key: val for key, val in opts.items() if val is not None}


def _cmd_gen(args) -> int:
    g = generate(args.family, **_family_params(args))
    comments = []
    if args.family == "walecki":
        for cyc in walecki_cycles(args.k):
            comments.append("cycle " + " ".join(str(v) for v in cyc))
    if args.family == "counterexample":
        _, paths, forests, cert = counterexample(args.k)
        for p in paths:
            comments.append("path " + " ".join(str(v) for v in p))
        comments.append(f"certificate {json.dumps(cert)}")
    _write_text(args.output, emit_edge_list(g, comments))
    return 0


def _bench_instance(job: tuple) -> dict:
    index, family, params, verb = job
    g = generate(family, **params)
    t0 = time.perf_counter()
    if verb == "cycle-cover":
        cover = cycle_odd_cover(g)
        delta, _, _ = degree_profile(g)
        bound = delta
    else:
        cover = path_odd_cover(g)
        bound = degree_bound(g)
    elapsed = time.perf_counter() - t0
    return {
        "instance": index,
        "n": g.n,
        "m": g.m,
        "verb": verb,
        "count": cover.count,
        "bound": bound,
        "valid": verify_cover(cover).valid,
        "seconds": round(elapsed, 6),
    }


def _cmd_bench(args) -> int:
    jobs = []
    for i in range(args.count):
        params = _family_params(args)
        if "seed" in params or args.family in ("gnp", "eulerian-random"):
            params["seed"] = (args.seed or 0) + i
        jobs.append((i, args.family, params, args.verb))
    workers = int(os.environ.get("ODDCOVER_THREADS", "1"))
    results = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for res in pool.map(_bench_instance, jobs):
                results.append(res)
                sys.stdout.write(json.dumps(res) + "\n")
    else:
        for job in jobs:
            res = _bench_instance(job)
            results.append(res)
            sys.stdout.write(json.dumps(res) + "\n")
    bad = [r for r in results if not r["valid"] or r["count"] > r["bound"]]
    if bad:
        raise InternalInvariantError(f"{len(bad)} bench instances failed")
    return 0


def _add_graph_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", nargs="?", default="-", help="graph file or - for stdin")
    sub.add_argument(
        "--format", choices=("edge-list", "graph6"), default="edge-list"
    )
    sub.add_argument("-o", "--output", default=None, help="output file (default stdout)")


def _add_family_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=FAMILIES, required=True)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--length", "--len", dest="length", type=int, default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--seed", type=int, default=None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oddcover",
        description="Constructive path and cycle odd-covers with verified witnesses.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    for verb, fn in (
        ("cover", _cmd_cover),
        ("cycle-cover", _cmd_cycle_cover),
        ("top-cover", _cmd_top_cover),
        ("iso-cover", _cmd_iso_cover),
    ):
        sp = sub.add_parser(verb)
        _add_graph_input(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("exact")
    _add_graph_input(sp)
    sp.add_argument("--max-k", type=int, default=None)
    sp.add_argument("--kind", choices=("path", "cycle"), default="path")
    sp.set_defaults(fn=_cmd_exact)

    sp = sub.add_parser("verify")
    sp.add_argument("graph", help="edge-list graph file")
    sp.add_argument("witness", help="witness JSON file")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("gen")
    _add_family_args(sp)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("bench")
    _add_family_args(sp)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--verb", choices=("cover", "cycle-cover"), default="cover")
    sp.set_defaults(fn=_cmd_bench)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Anything else (RecursionError, MemoryError, ...) is a bug, not bad input.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
