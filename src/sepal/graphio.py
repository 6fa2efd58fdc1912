"""Text format for graphs, canonical printing, and content hashing.

The format is line oriented; ``#`` starts a comment and blank lines are
skipped.  The first directive names the kind, then:

    graph separated
    vertex v
    edge e1 = v -> w
    separation v : [e1 e2 e3] [f1 f2]
    bipartite upper: v lower: w      # optional level assignment

    graph weighted
    vertex v
    edge e1 = v -> v
    weight e1 = 2

Syntax problems raise ``ParseError`` with the line number; semantic
problems (duplicate names, uncovered fibers, nonpositive weights) are left
for ``graphs.validate`` so the CLI can report them all at once.
``print_graph`` is the exact inverse on valid graphs, and the sha256 of its
output is the provenance hash reported by every CLI command.
"""

from __future__ import annotations

import hashlib

from .graphs import (
    BipartiteSeparatedGraph,
    DirectedGraph,
    GraphError,
    SeparatedGraph,
    WeightedGraph,
)


class ParseError(ValueError):
    """Malformed graph file; the message starts with the line number."""


def _fail(lineno: int, msg: str) -> None:
    raise ParseError(f"line {lineno}: {msg}")


def parse_graph(text: str):
    """Parse the text format into a separated, bipartite separated, or
    weighted graph.  The result is not validated."""
    kind: str | None = None
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    sep: dict[str, list[list[str]]] = {}
    weights: dict[str, int] = {}
    upper: list[str] | None = None
    lower: list[str] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.replace("[", " [ ").replace("]", " ] ").split()
        if not toks:
            continue
        head = toks[0]
        if kind is None:
            if head != "graph":
                _fail(lineno, f"expected 'graph separated' or "
                              f"'graph weighted' before {head!r}")
            if len(toks) != 2 or toks[1] not in ("separated", "weighted"):
                _fail(lineno, "graph kind must be 'separated' or 'weighted'")
            kind = toks[1]
            continue
        if head == "graph":
            _fail(lineno, "second 'graph' directive")
        elif head == "vertex":
            if len(toks) != 2:
                _fail(lineno, "vertex takes exactly one name")
            vertices.append(toks[1])
        elif head == "edge":
            if len(toks) != 6 or toks[2] != "=" or toks[4] != "->":
                _fail(lineno, "edge syntax is: edge NAME = SRC -> RNG")
            edges.append((toks[1], toks[3], toks[5]))
        elif head == "separation":
            if kind != "separated":
                _fail(lineno, "separation line in a weighted graph")
            if len(toks) < 3 or toks[2] != ":":
                _fail(lineno, "separation syntax is: "
                              "separation V : [E ...] [E ...]")
            v = toks[1]
            if v in sep:
                _fail(lineno, f"second separation for {v!r}")
            groups: list[list[str]] = []
            depth = 0
            for t in toks[3:]:
                if t == "[":
                    if depth:
                        _fail(lineno, "nested '['")
                    groups.append([])
                    depth = 1
                elif t == "]":
                    if not depth:
                        _fail(lineno, "unmatched ']'")
                    depth = 0
                elif depth:
                    groups[-1].append(t)
                else:
                    _fail(lineno, f"edge name {t!r} outside brackets")
            if depth:
                _fail(lineno, "unclosed '['")
            if not groups:
                _fail(lineno, "separation needs at least one group")
            sep[v] = groups
        elif head == "weight":
            if kind != "weighted":
                _fail(lineno, "weight line in a separated graph")
            if len(toks) != 4 or toks[2] != "=":
                _fail(lineno, "weight syntax is: weight EDGE = N")
            if toks[1] in weights:
                _fail(lineno, f"second weight for {toks[1]!r}")
            try:
                weights[toks[1]] = int(toks[3])
            except ValueError:
                _fail(lineno, f"weight {toks[3]!r} is not an integer")
        elif head == "bipartite":
            if kind != "separated":
                _fail(lineno, "bipartite line in a weighted graph")
            if upper is not None:
                _fail(lineno, "second bipartite directive")
            if "upper:" not in toks or "lower:" not in toks or \
                    toks[1] != "upper:":
                _fail(lineno, "bipartite syntax is: "
                              "bipartite upper: V ... lower: W ...")
            cut = toks.index("lower:")
            upper = toks[2:cut]
            lower = toks[cut + 1:]
        else:
            _fail(lineno, f"unknown directive {head!r}")

    if kind is None:
        raise ParseError("line 1: empty file")
    graph = DirectedGraph.make(vertices, edges)
    if kind == "weighted":
        return WeightedGraph.make(graph, weights)
    out = SeparatedGraph.make(graph, sep)
    if upper is not None:
        return BipartiteSeparatedGraph.make(out, upper=upper, lower=lower)
    return out


def load_graph(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def print_graph(g) -> str:
    """Canonical text rendering; parsing it back reproduces the graph."""
    if isinstance(g, WeightedGraph):
        lines = ["graph weighted"]
        lines += [f"vertex {v}" for v in g.graph.vertices]
        lines += [f"edge {e} = {s} -> {r}" for e, s, r in g.graph.edges]
        lines += [f"weight {e} = {w}" for e, w in g.weights]
        return "\n".join(lines) + "\n"
    if isinstance(g, BipartiteSeparatedGraph):
        return (print_graph(g.base) + "bipartite upper: " + " ".join(g.upper)
                + " lower: " + " ".join(g.lower) + "\n")
    if isinstance(g, SeparatedGraph):
        lines = ["graph separated"]
        lines += [f"vertex {v}" for v in g.graph.vertices]
        lines += [f"edge {e} = {a} -> {b}" for e, a, b in g.graph.edges]
        for v, groups in g.separation:
            body = " ".join("[" + " ".join(grp) + "]" for grp in groups)
            lines.append(f"separation {v} : {body}")
        return "\n".join(lines) + "\n"
    raise GraphError(f"cannot print {type(g).__name__}")


def graph_sha256(g) -> str:
    return hashlib.sha256(print_graph(g).encode("utf-8")).hexdigest()


def graph_payload(g) -> dict:
    """JSON-ready description used by the CLI."""
    if isinstance(g, WeightedGraph):
        return {
            "kind": "weighted",
            "vertices": list(g.graph.vertices),
            "edges": [list(e) for e in g.graph.edges],
            "weights": {e: w for e, w in g.weights},
        }
    if isinstance(g, BipartiteSeparatedGraph):
        return {**graph_payload(g.base), "kind": "bipartite",
                "upper": list(g.upper), "lower": list(g.lower)}
    if isinstance(g, SeparatedGraph):
        return {
            "kind": "separated",
            "vertices": list(g.graph.vertices),
            "edges": [list(e) for e in g.graph.edges],
            "separation": {v: [list(grp) for grp in groups]
                           for v, groups in g.separation},
        }
    raise GraphError(f"cannot describe {type(g).__name__}")
