"""Malformed input through ``cli.main``: always exit 1 or 2, never 3.

Each drawn input is broken by construction, so no verb may accept it: a bad
header, a token that is not an integer, an edge outside the universe, a
self-loop, a repeated edge, a wrong edge count, bytes that are not UTF-8, or
a graph6 string cut short, padded, or holding a byte outside its alphabet.
A parse failure is bad input (exit 1) and an unreadable file an I/O error
(exit 2); exit 3 or a traceback would mean an exception escaped the mapping.
A witness for ``verify`` that is not shaped like one is bad input too.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from oddcover import cli
from oddcover.core import Graph
from oddcover.io import emit_edge_list, parse_graph6

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)

VERBS = (
    ["cover"],
    ["cycle-cover"],
    ["top-cover"],
    ["iso-cover"],
    ["exact"],
    ["exact", "--kind", "cycle"],
)
NOT_INTS = ("x", "1.5", "0x1", "--1", "nan", "1e3", "2,", "½")
OUTSIDE_GRAPH6 = (" ", "!", "0", ">", "\x7f", "é", "☃")  # not in chr(63)..chr(126)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


def graph6(g: Graph) -> str:
    bits = [int((u, v) in g.edges) for v in range(1, g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(63 + b) for b in [g.n, *body])


@st.composite
def broken_edge_lists(draw):
    g = draw(small_graphs())
    n, m = g.n, g.m
    header, *edges = emit_edge_list(g).splitlines()
    u = draw(st.integers(0, n - 1))
    how = draw(st.integers(0, 9))
    if how == 0:
        lines = [draw(st.sampled_from([f"{n}", f"{n} {m} 0"])), *edges]
    elif how == 1:  # one token of the header or of an edge is not an integer
        lines = [header, *edges]
        row = draw(st.integers(0, len(lines) - 1))
        parts = lines[row].split()
        parts[draw(st.integers(0, 1))] = draw(st.sampled_from(NOT_INTS))
        lines[row] = " ".join(parts)
    elif how == 2:
        lines = [f"{n} {m + draw(st.sampled_from([-2, -1, 1, 3]))}", *edges]
    elif how == 3:
        lines = [f"{n} {m + 1}", *edges, f"{u} {draw(st.sampled_from([n, n + 5, -1]))}"]
    elif how == 4:
        lines = [f"{n} {m + 1}", *edges, f"{u} {u}"]
    elif how == 5:  # a repeated edge, or a self-loop when there is none
        lines = [f"{n} {m + 1}", *edges, edges[-1] if edges else "0 0"]
    elif how == 6:
        lines = [f"{n} {m + 1}", *edges, draw(st.sampled_from(["0", "0 1 1", "0 1 2 3"]))]
    elif how == 7:
        lines = [f"{10**6 + draw(st.integers(1, 10**9))} {m}", *edges]
    elif how == 8:
        lines = [f"-{draw(st.integers(1, 9))} 0"]
    else:
        return b"\xff\xfe" + emit_edge_list(g).encode(), "edge-list"
    return "\n".join(lines) + "\n", "edge-list"


@st.composite
def broken_graph6(draw):
    g = draw(small_graphs().filter(lambda g: g.n >= 2))
    code = graph6(g)
    assert parse_graph6(code) == g
    how = draw(st.integers(0, 5))
    if how == 0:
        return code[:-1], "graph6"
    if how == 1:
        return code + draw(st.sampled_from("?@_~")), "graph6"
    if how == 2:
        at = draw(st.integers(1, len(code) - 1))
        return code[:at] + draw(st.sampled_from(OUTSIDE_GRAPH6)) + code[at:], "graph6"
    if how == 3:
        return draw(st.sampled_from(["", "\n", ">>graph6<<", "~", "~?", "~~??"])), "graph6"
    if how == 4:  # an edge list read as graph6: digits and blanks lie below '?'
        return emit_edge_list(g), "graph6"
    return code + "\n", "edge-list"  # one token where the 'n m' header belongs


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def check_rejected(data, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph")
        with open(path, "wb") as fh:
            fh.write(data if isinstance(data, bytes) else data.encode())
        out = os.path.join(tmp, "out")
        runs = [[*verb, path, "--format", fmt, "-o", out] for verb in VERBS]
        if fmt == "edge-list":
            witness = os.path.join(tmp, "witness.json")
            with open(witness, "w") as fh:
                fh.write('{"n": 1, "kind": "path", "members": []}')
            runs.append(["verify", path, witness, "-o", out])
        for argv in runs:
            code, err = run_main(argv)
            assert code == 1, (argv[0], code, err)
            assert err.startswith("invalid input: ") and "Traceback" not in err


@SETTINGS
@given(broken_edge_lists())
def test_malformed_edge_lists_exit_1(case):
    check_rejected(*case)


@SETTINGS
@given(broken_graph6())
def test_malformed_graph6_exits_1(case):
    check_rejected(*case)


def test_unreadable_input_exits_2(tmp_path):
    for verb in VERBS:
        for path in (tmp_path / "missing", tmp_path):  # absent, and a directory
            code, err = run_main([*verb, str(path), "-o", str(tmp_path / "out")])
            assert code == 2 and err.startswith("io error: ") and "Traceback" not in err


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(-2, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "kind", "members"]), inner, max_size=3),
    max_leaves=12,
)
BAD_WITNESSES = (
    '{"members": 5}',
    "[1,2]",
    '"str"',
    '{"members": [null]}',
    '{"members": [[0, {}]]}',
    '{"members": "01"}',
    '{"members": [[0, 1.5]]}',
    '{"members": [[0, true]]}',
    '{"members": [], "n": [3]}',
    '{"members": [], "kind": ["path"]}',
    "null",
)


def run_verify(tmp, witness_text):
    graph = os.path.join(tmp, "graph")
    with open(graph, "w") as fh:
        fh.write("3 2\n0 1\n1 2\n")
    witness = os.path.join(tmp, "witness.json")
    with open(witness, "w") as fh:
        fh.write(witness_text)
    return run_main(["verify", graph, witness, "-o", os.path.join(tmp, "out")])


def test_wrongly_shaped_witness_exits_1():
    with tempfile.TemporaryDirectory() as tmp:
        for text in BAD_WITNESSES:
            code, err = run_verify(tmp, text)
            assert code == 1, (text, code, err)
            assert err.startswith("invalid input: ") and "Traceback" not in err


@SETTINGS
@given(JSON)
def test_arbitrary_witness_json_never_exits_3(doc):
    # a well-formed witness that does not cover the graph also exits 1
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_verify(tmp, json.dumps(doc))
        assert code in (0, 1), (doc, code, err)
        assert "Traceback" not in err
