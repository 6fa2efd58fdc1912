"""Directed, separated, bipartite separated, and weighted graphs.

The data model is deliberately small.  A directed graph is an ordered tuple
of vertex names together with an ordered tuple of named edges; a separated
graph adds, for each vertex, a partition of its outgoing edges into groups;
a bipartite separated graph splits the vertices into an upper and a lower
level with all edges pointing down; a weighted graph attaches a positive
integer to every edge.

All graph values are immutable after construction and hashable, so they can
be shared freely between algebra carriers, caches and test fixtures.  A
constructor raises ``GraphError`` only for what a graph value cannot hold;
each class checks the fields it adds.  The shape rule: every field other
than an inner graph is a ``tuple``, every edge is a (name, source, range)
3-tuple, every separation entry a (vertex, tuple of group tuples) pair and
every weight entry an (edge, weight) pair.  A value that cannot be hashed
is refused too, naming the first in ``validate``'s words.  ``validate``
reports everything else as a list of human-readable violations, and
``require_valid`` turns a non-empty report into a ``GraphError``.

Every public function that takes a graph opens with one gate, or hands the
graph straight to a function that does.  A gate returns the graph in the
kind the caller needs, after one ``require_valid``, and raises
``GraphError`` for any other kind:

* ``as_weighted`` accepts a weighted graph;
* ``as_separated`` accepts a separated graph, and gives the base of a
  bipartite one;
* ``as_bipartite`` accepts a bipartite separated graph, and infers the
  levels of a plain separated one.

So a graph of the wrong kind is a ``GraphError``, never an
``AttributeError`` from deep inside a construction.  Outside this module a
kind is tested only to choose between two accepted kinds.

Each graph object is validated once.  Its fields are tuples of names and
weights, so its report is a pure function of the value; the report is
stored on the graph as a tuple, like ``vertex_set`` or ``out_edges``, and
repeat checks of the same object (``enumerate_hsat`` runs one per closure
step) only copy it.  A separated, bipartite or weighted graph builds its
report on the stored report of the graph inside it.

A graph that ``constructions`` builds from a graph that passed its gate is
born valid: ``_born_valid`` sets its fields and stores the empty report,
so neither the constructor's checks nor the validators run on it, and a
gate only reads that report.  The builders that do this, each with its
argument (``constructions`` states them in full; the tests rebuild every
such output through the public constructors and validate it afresh):

* ``weighted_completion``: the checked graph with positive weights;
* ``separated_of_vertex_weighted``: each kind of name ends in its own
  character, and reads back the input name it came from;
* ``separated_of_weighted`` and ``one_step_resolution``:
  ``_refuse_repeats`` checks the names against the input's, and the groups
  cover each fiber by construction;
* ``bratteli``'s unions 1 and up: a valid union and a valid layer, whose
  new names it tests for disjointness from the union's.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union, get_args

Edge = tuple[str, str, str]  # (name, source vertex, range vertex)


class GraphError(ValueError):
    """An operation received a structurally invalid graph or argument."""


# matches exactly the characters with c.isspace() or c == "#"
_BAD_CHAR = re.compile(r"[\s#]")


def _check_names(kind: str, names: tuple, out: list[str]) -> None:
    for name, count in Counter(names).items():
        if count > 1:
            out.append(f"duplicate {kind} name {name!r}")
        if not isinstance(name, str):
            out.append(f"{kind} name {name!r} is not a string")
        elif not name:
            out.append(f"empty {kind} name")
        elif _BAD_CHAR.search(name):
            out.append(f"{kind} name {name!r} contains whitespace or '#'")


def _hashes(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _require_kind(g, field: str, kind: type):
    """Field ``field`` of ``g`` if its type is ``kind``, else GraphError."""
    value = getattr(g, field)
    if type(value) is not kind:
        raise GraphError(f"{type(g).__name__} {field} must be a "
                         f"{kind.__name__}, not {type(value).__name__}")
    return value


def _require_tuple(g, field: str, size: int | None = None,
                   message: str = "") -> tuple:
    """The field ``field`` of ``g``, which must be a tuple, of tuples of
    length ``size`` if one is given; else a ``GraphError`` that names the
    first misfit with ``message``.  A plain loop: on the 10,368 edges of a
    Bratteli layer it beats two C-level passes, and on a sweep graph's few
    it is several times faster."""
    items = _require_kind(g, field, tuple)
    if size is not None:
        for x in items:
            if type(x) is not tuple or len(x) != size:
                raise GraphError(message.format(x))
    return items


def _require_hashable(g, fields) -> None:
    """Raise ``GraphError`` unless ``fields`` hash, with the message of the
    first ``(value, message)`` of ``g._faults()`` whose value does not."""
    if not _hashes(fields):
        raise GraphError(next(m for v, m in g._faults() if not _hashes(v)))


@dataclass(frozen=True)
class DirectedGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        _require_tuple(self, "vertices")
        _require_tuple(self, "edges", 3,
                       "edge {!r} is not a (name, source, range) triple")
        _require_hashable(self, (self.vertices, self.edges))

    def _faults(self):
        for v in self.vertices:
            yield v, f"vertex name {v!r} is not a string"
        for name, s, r in self.edges:
            yield name, f"edge name {name!r} is not a string"
            yield s, f"edge {name!r} has unknown source {s!r}"
            yield r, f"edge {name!r} has unknown range {r!r}"

    @staticmethod
    def make(vertices: Iterable[str], edges: Iterable[Sequence[str]]) -> "DirectedGraph":
        edges = tuple(edges)
        try:
            edges = tuple(map(tuple, edges))
        except TypeError:  # an edge that is not iterable: __post_init__ refuses it
            pass
        return DirectedGraph(tuple(vertices), edges)

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def edge_names(self) -> tuple[str, ...]:
        return tuple(e[0] for e in self.edges)

    @cached_property
    def _ends(self) -> dict[str, tuple[str, str]]:
        return {name: (s, r) for name, s, r in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[str, ...]]:
        fibers: dict[str, list[str]] = {v: [] for v in self.vertices}
        for name, s, _ in self.edges:
            fibers.setdefault(s, []).append(name)
        return {v: tuple(es) for v, es in fibers.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[str, ...]]:
        fibers: dict[str, list[str]] = {v: [] for v in self.vertices}
        for name, _, r in self.edges:
            fibers.setdefault(r, []).append(name)
        return {v: tuple(es) for v, es in fibers.items()}

    def src(self, edge: str) -> str:
        return self._ends[edge][0]

    def rng(self, edge: str) -> str:
        return self._ends[edge][1]

    @cached_property
    def _report(self) -> tuple[str, ...]:
        return tuple(_validate_directed(self))


@dataclass(frozen=True)
class SeparatedGraph:
    """A directed graph with each source fiber partitioned into edge groups.

    ``separation`` holds ``(vertex, groups)`` pairs in vertex order, where
    ``groups`` is a tuple of edge-name tuples.  Group order is significant
    (resolutions enumerate group tuples in this order); within a group the
    names are stored sorted by ``str``, so a name that is not a string
    reaches ``validate`` instead of failing the sort.  Vertices with no
    outgoing edges carry no entry.
    """

    graph: DirectedGraph
    separation: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...]

    def __post_init__(self):
        _require_kind(self, "graph", DirectedGraph)
        message = "separation entry {!r} is not a (vertex, tuple of tuples) pair"
        for entry in _require_tuple(self, "separation", 2, message):
            if type(entry[1]) is not tuple or not all(
                    type(grp) is tuple for grp in entry[1]):
                raise GraphError(message.format(entry))
        _require_hashable(self, self.separation)

    def _faults(self):
        for v, groups in self.separation:
            yield v, f"separation given for unknown vertex {v!r}"
            for e in (e for grp in groups for e in grp):
                yield e, f"separation of {v!r} lists unknown edge {e!r}"

    @staticmethod
    def make(graph: DirectedGraph,
             separation: Mapping[str, Iterable[Iterable[str]]]) -> "SeparatedGraph":
        def entry(v):
            return v, tuple(tuple(sorted(g, key=str)) for g in separation[v])
        # a known vertex with no groups gets no entry; an unknown one keeps
        # its entry, for validate to report
        known = [entry(v) for v in graph.vertices if v in separation]
        unknown = [entry(v) for v in separation if v not in graph.vertex_set]
        return SeparatedGraph(graph, tuple(
            [(v, groups) for v, groups in known if groups] + unknown))

    @staticmethod
    def with_trivial_separation(graph: DirectedGraph) -> "SeparatedGraph":
        """One group per vertex: the ordinary (non-separated) convention."""
        return SeparatedGraph.make(
            graph, {v: [graph.out_edges[v]] for v in graph.vertices if graph.out_edges.get(v)})

    @cached_property
    def sep(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        return dict(self.separation)

    @cached_property
    def group_of(self) -> dict[str, tuple[str, ...]]:
        """Edge name -> the group tuple containing it, one object per group."""
        table: dict[str, tuple[str, ...]] = {}
        for _, groups in self.separation:
            for g in groups:
                for e in g:
                    table[e] = g
        return table

    @cached_property
    def hsat_rules(self) -> tuple[dict[str, int], tuple[tuple[int, int], ...]]:
        """Vertex -> bit, and the (premise, conclusion) bitmasks of the
        closure rules in ``constructions``, for a valid graph."""
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        rng = self.graph.rng
        # each sum runs over a set of distinct bits, so it is their OR
        rules = [(bit[v], sum({bit[rng(e)] for e in es}))
                 for v, es in self.graph.out_edges.items() if es]
        rules += [(sum({bit[rng(e)] for e in grp}), bit[v])
                  for v, groups in self.separation for grp in groups]
        return bit, tuple(rules)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges

    @cached_property
    def _report(self) -> tuple[str, ...]:
        return tuple(_validate_separated(self))


@dataclass(frozen=True)
class BipartiteSeparatedGraph:
    base: SeparatedGraph
    upper: tuple[str, ...]
    lower: tuple[str, ...]

    def __post_init__(self):
        _require_kind(self, "base", SeparatedGraph)
        _require_tuple(self, "upper")
        _require_tuple(self, "lower")
        _require_hashable(self, (self.upper, self.lower))

    def _faults(self):
        for v in (*self.upper, *self.lower):
            yield v, f"level assignment names unknown vertex {v!r}"

    @staticmethod
    def make(base: SeparatedGraph, upper: Iterable[str] | None = None,
             lower: Iterable[str] | None = None) -> "BipartiteSeparatedGraph":
        """Wrap ``base``; if levels are omitted, vertices with outgoing edges
        go up and all others go down."""
        g = base.graph
        if upper is None and lower is None:
            upper = tuple(v for v in g.vertices if g.out_edges[v])
            lower = tuple(v for v in g.vertices if not g.out_edges[v])
        elif upper is None or lower is None:
            raise GraphError("give both levels or neither")
        return BipartiteSeparatedGraph(base, tuple(upper), tuple(lower))

    @cached_property
    def upper_set(self) -> frozenset[str]:
        return frozenset(self.upper)

    @cached_property
    def lower_set(self) -> frozenset[str]:
        return frozenset(self.lower)

    @cached_property
    def is_proper(self) -> bool:
        """Every upper vertex emits an edge and every lower vertex receives one."""
        g = self.base.graph
        return (all(g.out_edges.get(v) for v in self.upper)
                and all(g.in_edges.get(w) for w in self.lower))

    @property
    def graph(self) -> DirectedGraph:
        return self.base.graph

    @property
    def separation(self):
        return self.base.separation

    @property
    def sep(self):
        return self.base.sep

    @property
    def group_of(self):
        return self.base.group_of

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.base.graph.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.base.graph.edges

    @cached_property
    def _report(self) -> tuple[str, ...]:
        return tuple(_validate_bipartite(self))


@dataclass(frozen=True)
class WeightedGraph:
    graph: DirectedGraph
    weights: tuple[tuple[str, int], ...]  # in edge order

    def __post_init__(self):
        _require_kind(self, "graph", DirectedGraph)
        _require_tuple(self, "weights", 2,
                       "weight entry {!r} is not an (edge, weight) pair")
        _require_hashable(self, self.weights)

    def _faults(self):
        for e, w in self.weights:
            yield e, f"weight given for unknown edge {e!r}"
            yield w, f"weight of {e!r} is {w!r}; weights are positive integers"

    @staticmethod
    def make(graph: DirectedGraph, weights: Mapping[str, int]) -> "WeightedGraph":
        listed = tuple((e, weights[e]) for e in graph.edge_names if e in weights)
        extra = tuple((e, w) for e, w in weights.items() if e not in graph._ends)
        return WeightedGraph(graph, listed + extra)

    @cached_property
    def w(self) -> dict[str, int]:
        return dict(self.weights)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges

    @cached_property
    def _report(self) -> tuple[str, ...]:
        return tuple(_validate_weighted(self))


AnyGraph = Union[DirectedGraph, SeparatedGraph, BipartiteSeparatedGraph, WeightedGraph]
# a tuple for isinstance, which tests it several times faster than the Union
_GRAPH_TYPES = get_args(AnyGraph)


def _born_valid(kind: type, *fields):
    """A graph of ``kind`` with ``fields`` in field order, stored with the
    empty report.  Only for the builders the module docstring lists: each
    shows that its output is valid, so the constructor's checks and the
    validators would find nothing."""
    g = object.__new__(kind)
    vars(g).update(zip(kind.__match_args__, fields), _report=())
    return g


# ---------------------------------------------------------------------------
# validation


def _validate_directed(g: DirectedGraph) -> list[str]:
    out: list[str] = []
    _check_names("vertex", g.vertices, out)
    _check_names("edge", g.edge_names, out)
    vertex_set, edge_set = g.vertex_set, set(g.edge_names)
    for name, s, r in g.edges:
        if s not in vertex_set:
            out.append(f"edge {name!r} has unknown source {s!r}")
        if r not in vertex_set:
            out.append(f"edge {name!r} has unknown range {r!r}")
    for name in vertex_set & edge_set:
        out.append(f"name {name!r} used for both a vertex and an edge")
    return out


def _validate_separated(g: SeparatedGraph) -> list[str]:
    out = list(g.graph._report)
    known = set(g.graph.edge_names)
    for v, groups in g.separation:
        if v not in g.graph.vertex_set:
            out.append(f"separation given for unknown vertex {v!r}")
            continue
        fiber = set(g.graph.out_edges.get(v, ()))
        listed: list[str] = []
        for grp in groups:
            if not grp:
                out.append(f"empty separation group at {v!r}")
            for e in grp:
                if e not in known:
                    out.append(f"separation of {v!r} lists unknown edge {e!r}")
                elif e not in fiber:
                    out.append(f"separation of {v!r} lists edge {e!r} outside s^-1({v})")
                listed.append(e)
        dupes = [e for e, c in Counter(listed).items() if c > 1]
        for e in dupes:
            out.append(f"separation groups at {v!r} overlap on edge {e!r}")
        missing = fiber - set(listed)
        if missing:
            out.append(f"separation does not cover s^-1({v}): missing "
                       + ", ".join(sorted(map(str, missing))))
    covered = {v for v, _ in g.separation}
    for v in g.graph.vertices:
        if g.graph.out_edges.get(v) and v not in covered:
            out.append(f"separation does not cover s^-1({v}): no groups given")
    return out


def _validate_bipartite(g: BipartiteSeparatedGraph) -> list[str]:
    out = list(g.base._report)
    both = g.upper_set & g.lower_set
    for v in sorted(both, key=str):
        out.append(f"vertex {v!r} appears on both levels")
    uncovered = g.base.graph.vertex_set - g.upper_set - g.lower_set
    for v in sorted(uncovered, key=str):
        out.append(f"vertex {v!r} assigned to neither level")
    for v in sorted((g.upper_set | g.lower_set) - g.base.graph.vertex_set,
                    key=str):
        out.append(f"level assignment names unknown vertex {v!r}")
    for name, s, r in g.base.graph.edges:
        if s in g.lower_set:
            out.append(f"edge {name!r} starts at lower vertex {s!r}")
        if r in g.upper_set:
            out.append(f"edge {name!r} ends at upper vertex {r!r}")
    return out


def _validate_weighted(g: WeightedGraph) -> list[str]:
    out = list(g.graph._report)
    names = set(g.graph.edge_names)
    for e, w in g.weights:
        if e not in names:
            out.append(f"weight given for unknown edge {e!r}")
        if not isinstance(w, int) or w <= 0:
            out.append(f"weight of {e!r} is {w!r}; weights are positive integers")
    weighted = {e for e, _ in g.weights}
    for e in g.graph.edge_names:
        if e not in weighted:
            out.append(f"edge {e!r} has no weight")
    for v in g.graph.vertices:
        if not g.graph.out_edges.get(v) and not g.graph.in_edges.get(v):
            out.append(f"isolated vertex {v!r}")
    return out


def validate(g: AnyGraph) -> list[str]:
    """Return a list of violated invariants; empty means the graph is valid.

    The report is computed on the first call for each graph object and
    stored on it, since the graph is immutable; every call returns a fresh
    list, so a caller that changes it cannot change the stored report.
    """
    if not isinstance(g, _GRAPH_TYPES):
        raise TypeError(f"not a graph: {type(g).__name__}")
    return list(g._report)


def require_valid(g: AnyGraph) -> None:
    report = validate(g)
    if report:
        raise GraphError("; ".join(report))


# ---------------------------------------------------------------------------
# vertex weights


def vertex_weight(g: WeightedGraph, v: str) -> int:
    """Largest weight on the outgoing edges of ``v``; 0 at a sink."""
    g = as_weighted(g)
    if v not in g.graph.vertex_set:
        raise GraphError(f"unknown vertex {v!r}")
    return _vertex_weight(g, v)


def is_vertex_weighted(g: WeightedGraph) -> bool:
    """True when every edge carries the weight of its source vertex."""
    return _is_vertex_weighted(as_weighted(g))


# the readings past a gate, for builders and relation families that have
# checked ``g`` once


def _vertex_weight(g: WeightedGraph, v: str) -> int:
    return max((g.w[e] for e in g.graph.out_edges.get(v, ())), default=0)


def _is_vertex_weighted(g: WeightedGraph) -> bool:
    return all(g.w[e] == _vertex_weight(g, s) for e, s, _ in g.graph.edges)


# ---------------------------------------------------------------------------
# gates: the one place where a graph's kind and validity are checked


def _wrong_kind(want: str, g) -> GraphError:
    return GraphError(f"expected a {want} graph, got {type(g).__name__}")


def as_weighted(g: AnyGraph) -> WeightedGraph:
    """``g`` itself once it is checked to be a valid weighted graph."""
    if not isinstance(g, WeightedGraph):
        raise _wrong_kind("weighted", g)
    require_valid(g)
    return g


def as_separated(g: AnyGraph) -> SeparatedGraph:
    """``g`` checked as a separated graph; a bipartite graph gives its base."""
    if isinstance(g, BipartiteSeparatedGraph):
        g = g.base
    elif not isinstance(g, SeparatedGraph):
        raise _wrong_kind("separated", g)
    require_valid(g)
    return g


def as_bipartite(g: AnyGraph) -> BipartiteSeparatedGraph:
    """``g`` checked as a bipartite separated graph.  A plain separated
    graph gets inferred levels (``BipartiteSeparatedGraph.make``); it is an
    error if some vertex both emits and receives edges."""
    if isinstance(g, BipartiteSeparatedGraph):
        require_valid(g)
        return g
    if not isinstance(g, SeparatedGraph):
        raise _wrong_kind("separated", g)
    b = BipartiteSeparatedGraph.make(g)
    try:
        require_valid(b)
    except GraphError as exc:
        raise GraphError(f"not bipartite: {exc}") from None
    return b
