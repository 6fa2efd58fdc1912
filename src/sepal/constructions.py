"""Graph-to-graph constructions and hereditary saturated-subset machinery.

Covers the builder for the two-vertex multi-edge graphs with a two-group
separation, the two translations from weighted graphs to bipartite separated
graphs (one for the vertex-weighted case, one in general), the one-step
resolution with its iterated tower, and the lattice of hereditary
group-saturated vertex sets with closures and quotients.

Every function is pure and returns new immutable graphs.  Names of generated
vertices and edges are canonical strings, built only by the ``name_*``
helpers, so two runs over equal inputs produce identical graphs; downstream
comparisons rely on this, and so does the check in the tests that the
quotient of the resolved completion is the direct companion (Theorem 3.10).
The resolution and the direct companion raise ``GraphError`` rather than
use one name twice in the graph they build, and so do the unions of a
tower.

Five builders return born-valid graphs (see ``graphs``): their outputs
skip the constructors' checks and the validators, so each builder's own
argument is what makes its output valid.  ``build_emn`` and
``quotient_graph`` build with the public constructors.

* ``weighted_completion`` keeps the checked graph and gives each edge the
  weight of its source, a positive integer.
* ``separated_of_vertex_weighted`` ends each kind of name in its own
  character (``_0``, ``_1``, ``~``, ``)``), and each kind reads back the
  input name it came from, so no name repeats; each regular vertex's
  fiber is its tilde group and its h group, neither empty.
* ``separated_of_weighted`` and ``one_step_resolution`` have distinct
  names because ``_refuse_repeats`` checks them, and groups that cover
  each fiber by construction: the slot and edge groups at a vertex are
  its out-edges, and the groups at a resolved vertex w are the ones the
  edges into w spawn, none empty since no input group is.
* Union k >= 1 of a tower is union k-1 with the valid layer k, whose new
  lower vertices and edges ``bratteli`` finds disjoint from the names of
  union k-1.  Union 0 is rebuilt with the public constructors.

The layout of a one-step resolution is a contract too, and
``one_step_resolution`` alone makes it:

* the old lower vertices form the new upper level; the new lower vertices
  follow them, upper vertex by upper vertex, each run in the product
  order of the choice tuples over that vertex's groups;
* the edges run tuple by tuple, and within a tuple by position;
* the separation lists the new upper vertices in the order of the old
  lower level, and group j at each new upper vertex w is the group
  spawned by ``in_edges(w)[j]``;
* the names within a group are sorted.

The names of a resolution are positions in that layout.  The t-th choice
tuple under upper vertex u is the vertex ``u:t``.  An edge x at position i
of a tuple spawns one edge per rest, the tuple with position i left out;
the one for the j-th rest, in the product order of the other groups, is
``x:j``; no other builder and nothing in the element grammar uses ``:``.
So a new name is one old name, a colon and an index, and a name
at layer k of a tower is at most k indices longer than an input name.
The new names are distinct: the text after a name's last ``:`` is an
integer, so a name gives back its old name and its index, and a valid
graph never names a vertex and an edge alike.  Input names may hold
``:``, so a new name can still equal a kept lower vertex, or a name of an
earlier layer; ``_refuse_repeats`` and the union check refuse those.

``homs.phi0`` reads its images off the vertex runs and the group order.

Union k of a Bratteli tower extends union k-1 by layer k's new lower
vertices, its edges and its groups.

A vertex set is hereditary and group-saturated when it obeys the rules
v -> r(s^-1(v)) for each vertex v and r(X) -> v for each group X at v.
``hsat_closure`` chains them, stored once per graph as bitmasks
(``SeparatedGraph.hsat_rules``), and ``enumerate_hsat`` walks the closed
sets by NextClosure, at most k closures per set found on k vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable

from .graphs import (
    BipartiteSeparatedGraph,
    DirectedGraph,
    GraphError,
    SeparatedGraph,
    WeightedGraph,
    _born_valid,
    _is_vertex_weighted,
    _vertex_weight,
    as_bipartite,
    as_separated,
    as_weighted,
)


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its configured size cap."""


# the most edges ``build_emn`` builds, and the default and largest cap of
# a ``bratteli`` tower
TOWER_CAP = 10 ** 6
# the most sets ``enumerate_hsat`` lists, and ``monoids.order_ideal_oracle``
MAX_HSAT_SETS = 1 << 16


# ---------------------------------------------------------------------------
# canonical names for generated graphs


def name_upper_copy(v: str) -> str:
    return f"{v}_0"


def name_lower_copy(v: str) -> str:
    return f"{v}_1"


def name_tilde(e: str) -> str:
    return f"{e}~"


def name_h(v: str, i: int) -> str:
    return f"h({v},{i})"


def name_tuple_vertices(u: str, count: int) -> list[str]:
    return [f"{u}:{t}" for t in range(count)]


def name_spawned(x: str, count: int) -> list[str]:
    return [f"{x}:{j}" for j in range(count)]


def name_slot_vertex(e: str, i: int) -> str:
    return f"v({e},{i})"


def name_slot_edge(i: int, e: str) -> str:
    return f"a{i}({e})"


def name_edge_slot(e: str, i: int) -> str:
    return f"a^{e}({i})"


def _refuse_repeats(names: list[str], what: str) -> None:
    """``GraphError`` naming the first name that ``names`` holds twice.
    Generated names share the name space of the input, so a generated name
    can repeat a kept one."""
    if len(set(names)) < len(names):
        seen: set[str] = set()
        twice = next(x for x in names if x in seen or seen.add(x))
        raise GraphError(f"{what} would use the name {twice!r} twice")


# ---------------------------------------------------------------------------
# builders


def build_emn(m: int, n: int) -> BipartiteSeparatedGraph:
    """Two vertices, n+m parallel edges v->w, outgoing fiber split into a
    group of n and a group of m edges.  ``ResourceLimitError`` past
    ``TOWER_CAP`` (10^6) edges."""
    if m < 1 or n < m:
        raise GraphError(f"need 1 <= m <= n, got m={m}, n={n}")
    if n + m > TOWER_CAP:
        raise ResourceLimitError(
            f"E({m},{n}) has {n + m:,} edges, more than {TOWER_CAP:,}")
    edges = [(f"e{i}", "v", "w") for i in range(1, n + 1)]
    edges += [(f"f{i}", "v", "w") for i in range(1, m + 1)]
    graph = DirectedGraph.make(("v", "w"), edges)
    sep = SeparatedGraph.make(graph, {
        "v": [[e for e, _, _ in edges[:n]], [f for f, _, _ in edges[n:]]],
    })
    return BipartiteSeparatedGraph.make(sep, upper=("v",), lower=("w",))


def weighted_completion(g: WeightedGraph) -> WeightedGraph:
    """Raise every edge weight to the weight of its source vertex."""
    g = as_weighted(g)
    return _born_valid(WeightedGraph, g.graph, tuple(
        (e, _vertex_weight(g, s)) for e, s, _ in g.graph.edges))


def separated_of_vertex_weighted(g: WeightedGraph) -> BipartiteSeparatedGraph:
    """Bipartite separated double of a vertex-weighted graph.

    Regular vertices get an upper copy v_0, every vertex a lower copy v_1.
    Each edge e becomes e~ from s(e)_0 to r(e)_1, and each regular v gets
    parallel edges h(v,i) from v_0 to v_1, one per weight slot.  The fiber
    at v_0 is split into the tilde group and the h group, in that order;
    resolution tuples below depend on this order.
    """
    g = as_weighted(g)
    if not _is_vertex_weighted(g):
        raise GraphError("edge weights must equal their source vertex weight")
    d = g.graph
    regular = [v for v in d.vertices if d.out_edges.get(v)]
    upper = tuple(name_upper_copy(v) for v in regular)
    lower = tuple(name_lower_copy(v) for v in d.vertices)
    edges: list[tuple[str, str, str]] = []
    sep = []
    for v in regular:
        tildes = [name_tilde(e) for e in d.out_edges[v]]
        hs = [name_h(v, i) for i in range(1, _vertex_weight(g, v) + 1)]
        edges += [(name_tilde(e), name_upper_copy(v), name_lower_copy(d.rng(e)))
                  for e in d.out_edges[v]]
        edges += [(h, name_upper_copy(v), name_lower_copy(v)) for h in hs]
        sep.append((name_upper_copy(v), (tuple(sorted(tildes)),
                                         tuple(sorted(hs)))))
    graph = _born_valid(DirectedGraph, upper + lower, tuple(edges))
    return _born_valid(BipartiteSeparatedGraph,
                       _born_valid(SeparatedGraph, graph, tuple(sep)),
                       upper, lower)


def one_step_resolution(g: BipartiteSeparatedGraph) -> BipartiteSeparatedGraph:
    """Resolve each upper fiber: new lower vertices are the choice tuples
    across the groups of an upper vertex, and each old edge x spawns the
    group of edges out of r(x), one per complementary tuple (rest).

    The layout and the names are the ones the module docstring states: the
    t-th tuple under u is ``u:t``, and the j-th rest of x gives ``x:j``;
    new lower vertices in product order per upper vertex, edges
    tuple-major and then by position, group j at w spawned by
    ``in_edges(w)[j]``, and the names within a group sorted.  Each upper
    vertex is built one column per position, and the edge triples are
    zipped from the columns.
    """
    g = as_bipartite(g)
    if not g.is_proper:
        raise GraphError("one-step resolution needs a proper bipartite graph")
    d = g.base.graph
    new_lower: list[str] = []
    edges: list[tuple[str, str, str]] = []
    spawned: dict[str, list[str]] = {}
    for u in g.upper:
        groups = g.sep[u]
        size = math.prod(map(len, groups))
        tuple_vertices = name_tuple_vertices(u, size)
        columns = []
        after = size
        for grp in groups:
            after //= len(grp)
            names = [name_spawned(x, size // len(grp)) for x in grp]
            spawned.update(zip(grp, names))
            # the names x spawns run over the rests, prefix first; tuple
            # order puts x between the prefix and the suffix, so cut each
            # list into one run per prefix and interleave the runs
            runs = zip(*(zip(*[iter(ns)] * after) for ns in names))
            columns.append(chain.from_iterable(chain.from_iterable(runs)))
        ranges = [[d.rng(x) for x in grp] for grp in groups]
        new_lower += tuple_vertices
        edges += zip(chain.from_iterable(zip(*columns)),
                     chain.from_iterable(product(*ranges)),
                     chain.from_iterable(zip(*[tuple_vertices] * len(groups))))
    _refuse_repeats([*g.lower, *new_lower,
                     *chain.from_iterable(spawned.values())],
                    "the one-step resolution")
    # the groups are stored as SeparatedGraph.make stores them: in the
    # order of g.lower, and sorted (the names are all strings)
    lower = tuple(new_lower)
    sep = tuple((w, tuple(tuple(sorted(spawned[x])) for x in d.in_edges[w]))
                for w in g.lower)
    graph = _born_valid(DirectedGraph, g.lower + lower, tuple(edges))
    return _born_valid(BipartiteSeparatedGraph,
                       _born_valid(SeparatedGraph, graph, sep), g.lower, lower)


def separated_of_weighted(g: WeightedGraph) -> BipartiteSeparatedGraph:
    """Bipartite separated companion of an arbitrary weighted graph.

    Upper level keeps the original vertex names; each pair (e, i) with
    i <= weight(e) becomes a lower vertex v(e,i).  Slot groups sit at the
    source vertex: for each slot i the group of edges a{i}(e) over the edges
    of weight >= i.  Edge groups sit at the range vertex: for each incoming
    edge e the group a^e(1..weight(e)).
    """
    g = as_weighted(g)
    d = g.graph
    lower = tuple(name_slot_vertex(e, i)
                  for e, _, _ in d.edges for i in range(1, g.w[e] + 1))
    edges: list[tuple[str, str, str]] = []
    sep = []
    for v in d.vertices:
        groups: list[tuple[str, ...]] = []
        for i in range(1, _vertex_weight(g, v) + 1):
            grp = [name_slot_edge(i, e) for e in d.out_edges[v] if g.w[e] >= i]
            edges += [(name_slot_edge(i, e), v, name_slot_vertex(e, i))
                      for e in d.out_edges[v] if g.w[e] >= i]
            groups.append(tuple(sorted(grp)))
        for e in d.in_edges.get(v, ()):
            grp = [name_edge_slot(e, i) for i in range(1, g.w[e] + 1)]
            edges += [(name_edge_slot(e, i), v, name_slot_vertex(e, i))
                      for i in range(1, g.w[e] + 1)]
            groups.append(tuple(sorted(grp)))
        if groups:
            sep.append((v, tuple(groups)))
    # the generated names cannot repeat one another, only an input vertex
    _refuse_repeats([*d.vertices, *lower, *(e for e, _, _ in edges)],
                    "the direct companion")
    graph = _born_valid(DirectedGraph, d.vertices + lower, tuple(edges))
    return _born_valid(BipartiteSeparatedGraph,
                       _born_valid(SeparatedGraph, graph, tuple(sep)),
                       d.vertices, lower)


# ---------------------------------------------------------------------------
# towers


@dataclass(frozen=True)
class BratteliTower:
    """Iterated resolutions: ``layers[k+1]`` resolves ``layers[k]``, and
    ``unions[k]`` glues layers 0..k along the shared level vertices."""
    layers: tuple[BipartiteSeparatedGraph, ...]
    unions: tuple[SeparatedGraph, ...]


def _digits_below(n: int) -> int:
    """The decimal digits of 0, 1, ..., n - 1 together."""
    total, power = n, 10
    while power < n:
        total += n - power
        power *= 10
    return total


def _resolution_size(g: BipartiteSeparatedGraph) -> int:
    """The edges of ``one_step_resolution(g)`` plus the characters of its
    new names, in closed form from the naming rule: the T tuples under u
    add T names ``u:t``, and each x of a group of size s adds T / s names
    ``x:j``."""
    size = 0
    for u in g.upper:
        groups = g.sep[u]
        tuples = math.prod(map(len, groups))
        size += tuples * (len(u) + 1 + len(groups)) + _digits_below(tuples)
        for grp in groups:
            rests = tuples // len(grp)
            size += (sum(map(len, grp)) + len(grp)) * rests \
                + len(grp) * _digits_below(rests)
    return size


def bratteli(g: BipartiteSeparatedGraph, depth: int,
             cap: int = TOWER_CAP) -> BratteliTower:
    """The first ``depth`` resolutions of g and their unions.  Union k
    extends union k-1 by layer k's new lower vertices, edges and groups;
    ``GraphError`` if that would repeat a name of union k-1.

    ``ResourceLimitError`` before a layer is built if the tower would then
    hold more than ``cap`` edges and name characters, and for a ``cap``
    above ``TOWER_CAP`` (10^6).  The count runs over the whole tower: each
    layer's edges and new names, and each union's edges and names, since
    the tower holds every union and union k repeats all below it.  A count
    of one layer would not bound the tower: E(1,1) has two edges per layer
    and names that grow by two characters per layer, so every layer would
    pass while the unions grew without bound in the depth.
    """
    g = as_bipartite(g)
    if depth < 0:
        raise GraphError("depth must be nonnegative")
    if cap > TOWER_CAP:
        raise ResourceLimitError(
            f"a tower cap of {cap:,} is past the limit of {TOWER_CAP:,}")
    union = len(g.edges) + sum(map(len, g.vertices + g.graph.edge_names))
    spent = union
    layers = [g]
    for _ in range(depth):
        top = layers[-1]
        layer = _resolution_size(top)
        union += layer
        spent += layer + union
        if spent > cap:
            raise ResourceLimitError(
                f"the tower would exceed {cap:,} edges and name characters")
        layers.append(one_step_resolution(top))
    # layer k+1's upper level is layer k's lower level, so union k extends
    # union k-1 by layer k's new lower vertices, edges and groups.  Only
    # union 1 orders its groups anew, by g's vertices, as g's levels may
    # interleave; later groups sit at the last vertices of the union.
    unions = [SeparatedGraph.make(DirectedGraph.make(g.vertices, g.edges),
                                  g.sep)]
    names = set(g.upper)  # the names of union k-1 that layer k lacks
    for k, layer in enumerate(layers[1:], 1):
        names.update(layers[k - 1].graph.edge_names)
        for kind, new in (("vertex", layer.lower),
                          ("edge", layer.graph.edge_names)):
            if not names.isdisjoint(new):
                name = next(x for x in new if x in names)
                raise GraphError(f"union {k} would repeat {kind} name {name!r}")
        names.update(layer.upper)
        prev = unions[-1]
        if k == 1:
            groups = {**prev.sep, **layer.sep}
            sep = tuple((v, groups[v]) for v in g.vertices if v in groups)
        else:
            sep = prev.separation + layer.separation
        graph = _born_valid(DirectedGraph, prev.vertices + layer.lower,
                            prev.edges + layer.edges)
        unions.append(_born_valid(SeparatedGraph, graph, sep))
    return BratteliTower(tuple(layers), tuple(unions))


# ---------------------------------------------------------------------------
# hereditary group-saturated subsets


HSatSet = frozenset


@dataclass(frozen=True)
class HSatReport:
    hereditary: bool
    saturated: bool
    # edge leaving the subset, and (vertex, group) forcing the vertex in
    hereditary_witness: tuple[str, str, str] | None
    saturated_witness: tuple[str, tuple[str, ...]] | None


def is_hsat(g, subset: Iterable[str]) -> HSatReport:
    s = as_separated(g)
    h = frozenset(subset)
    unknown = h - s.graph.vertex_set
    if unknown:
        raise GraphError("unknown vertices: " + ", ".join(sorted(unknown)))
    hered_w = None
    for e, src, rng in s.graph.edges:
        if src in h and rng not in h:
            hered_w = (e, src, rng)
            break
    sat_w = None
    for v, groups in s.separation:
        if v in h:
            continue
        for grp in groups:
            if all(s.graph.rng(x) in h for x in grp):
                sat_w = (v, grp)
                break
        if sat_w:
            break
    return HSatReport(hereditary=hered_w is None, saturated=sat_w is None,
                      hereditary_witness=hered_w, saturated_witness=sat_w)


def hsat_closure(g, subset: Iterable[str]) -> frozenset[str]:
    """Least hereditary group-saturated superset: the graph's rules,
    chained forward until none adds a vertex."""
    s = as_separated(g)
    h = set(subset)
    unknown = h - s.graph.vertex_set
    if unknown:
        raise GraphError("unknown vertices: " + ", ".join(sorted(unknown)))
    bit, rules = s.hsat_rules
    closed = sum(bit[v] for v in h)
    grown = True
    while grown:
        grown = False
        for premise, conclusion in rules:
            if closed & premise == premise and closed | conclusion != closed:
                closed |= conclusion
                grown = True
    return frozenset(v for v in s.vertices if closed & bit[v])


def enumerate_hsat(g) -> list[frozenset[str]]:
    """All hereditary group-saturated vertex sets, smallest first.

    They are the sets that ``hsat_closure`` fixes, so Ganter's NextClosure
    lists them in lectic order (B. Ganter, "Two basic algorithms in concept
    analysis", 1984): after H comes the closure of (H below v) + v for the
    last vertex v outside H whose closure adds nothing below v, found with
    at most k closures.  The tests compare it with a scan over all subsets.
    Finding more than ``MAX_HSAT_SETS`` (2^16) sets raises
    ``ResourceLimitError``: k isolated vertices give 2^k.
    """
    s = as_separated(g)
    vs = s.vertices
    below = [frozenset(vs[:i]) for i in range(len(vs))]
    found = [hsat_closure(s, ())]
    while len(found[-1]) < len(vs):
        closed = found[-1]
        for i in reversed(range(len(vs))):
            if vs[i] in closed:
                continue
            low = closed & below[i]
            nxt = hsat_closure(s, low | {vs[i]})
            if nxt & below[i] == low:
                break
        found.append(nxt)
        if len(found) > MAX_HSAT_SETS:
            raise ResourceLimitError(
                f"more than {MAX_HSAT_SETS:,} hereditary saturated sets")
    return sorted(found, key=lambda h: (len(h), sorted(h)))


def quotient_graph(g, subset: Iterable[str]):
    """Drop a hereditary group-saturated set: keep vertices outside it and
    the edges whose range survives; saturation keeps every group nonempty."""
    s = as_separated(g)
    h = frozenset(subset)
    rep = is_hsat(s, h)
    if not (rep.hereditary and rep.saturated):
        raise GraphError(
            "subset is not hereditary group-saturated: "
            f"hereditary={rep.hereditary}, saturated={rep.saturated}")
    vertices = [v for v in s.graph.vertices if v not in h]
    edges = [(e, a, b) for e, a, b in s.graph.edges if b not in h]
    kept = {e for e, _, _ in edges}
    sep = {v: [[x for x in grp if x in kept] for grp in groups]
           for v, groups in s.separation if v not in h}
    out = SeparatedGraph.make(DirectedGraph.make(vertices, edges), sep)
    if isinstance(g, BipartiteSeparatedGraph):
        return BipartiteSeparatedGraph.make(
            out, upper=[v for v in g.upper if v not in h],
            lower=[v for v in g.lower if v not in h])
    return out
