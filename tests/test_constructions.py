import functools
import inspect
import itertools
import math
import operator
import pathlib
import random
import textwrap
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from sepal import constructions as cons
from sepal import graphs
from sepal.graphs import (
    BipartiteSeparatedGraph,
    DirectedGraph,
    GraphError,
    SeparatedGraph,
    WeightedGraph,
    as_separated,
    validate,
    vertex_weight,
)
from sepal.graphio import load_graph, parse_graph
from sepal.homs import phi0
from sepal.staralg import StarAlgebra
from sepal.sweeps import bipartite_sweep, emn_sweep, weighted_sweep


def hsat_by_scan(g) -> list[frozenset[str]]:
    """Oracle for ``enumerate_hsat``: test every vertex subset with
    ``is_hsat``, smallest first."""
    s = as_separated(g)
    found = []
    for bits in itertools.product((False, True), repeat=len(s.vertices)):
        h = frozenset(v for v, b in zip(s.vertices, bits) if b)
        rep = cons.is_hsat(s, h)
        if rep.hereditary and rep.saturated:
            found.append(h)
    return sorted(found, key=lambda h: (len(h), sorted(h)))


def hsat_closure_by_rescan(g, subset) -> frozenset[str]:
    """Reference for ``hsat_closure``: alternate a pass along every edge
    with a pass of the saturation rule over every group until nothing
    changes."""
    s = as_separated(g)
    h = set(subset)
    changed = True
    while changed:
        changed = False
        for e, src, rng in s.graph.edges:
            if src in h and rng not in h:
                h.add(rng)
                changed = True
        for v, groups in s.separation:
            if v in h:
                continue
            if any(all(s.graph.rng(x) in h for x in grp) for grp in groups):
                h.add(v)
                changed = True
    return frozenset(h)


def hsat_by_search(g) -> list[frozenset[str]]:
    """Reference for ``enumerate_hsat``: every such set is reached from the
    closure of the empty set by closures that each add one vertex, so
    close every set found with each vertex outside it, with a seen-set."""
    s = as_separated(g)
    bottom = hsat_closure_by_rescan(s, ())
    seen = {bottom}
    queue = [bottom]
    while queue:
        h = queue.pop()
        for v in s.graph.vertices:
            if v not in h:
                bigger = hsat_closure_by_rescan(s, h | {v})
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
    return sorted(seen, key=lambda h: (len(h), sorted(h)))


# Theorem 3.10: the direct companion (E(w)_1, C(w)^1) of a weighted graph is
# the quotient of the resolved completion by the hidden slot vertices, up to
# the rename below.

def thm310_tuples(g: WeightedGraph):
    """(e, j, tuple vertex, edge spawned by h, edge spawned by e~) for each
    edge e and slot j <= weight(s(e)): the names that the resolution of
    the completion's double gives the tuple (e~, h(s,j)) at s_0, read off
    the positions a of e~ and b of h(s,j) in the two groups at s_0: the
    tuple is number a * |hs| + b, and the rest of h is number a, of e~
    number b."""
    double = cons.separated_of_vertex_weighted(cons.weighted_completion(g))
    for e, s, _ in g.graph.edges:
        u, tilde = cons.name_upper_copy(s), cons.name_tilde(e)
        tildes, hs = double.sep[u]
        a = tildes.index(tilde)
        for j in range(1, vertex_weight(g, s) + 1):
            h = cons.name_h(s, j)
            b = hs.index(h)
            yield e, j, f"{u}:{a * len(hs) + b}", f"{h}:{a}", f"{tilde}:{b}"


def thm310_hidden_vertices(g: WeightedGraph) -> frozenset[str]:
    """Tuple vertices of the resolved completion that track the weight
    slots missing from g: the tuples (e~, h(v,j)) for weight(e) < j."""
    return frozenset(tv for e, j, tv, _, _ in thm310_tuples(g)
                     if j > g.w[e])


def thm310_rename(g: WeightedGraph) -> dict[str, str]:
    """Rename table from resolved-completion names to the direct companion
    names of ``separated_of_weighted``: the tuple (e~, h(v,i)) -> v(e,i),
    the edge h(v,i) spawns there -> a{i}(e), the one e~ spawns -> a^e(i),
    and v_1 -> v."""
    table = {cons.name_lower_copy(v): v for v in g.graph.vertices}
    for e, i, tv, by_h, by_tilde in thm310_tuples(g):
        if i <= g.w[e]:
            table[tv] = cons.name_slot_vertex(e, i)
            table[by_h] = cons.name_slot_edge(i, e)
            table[by_tilde] = cons.name_edge_slot(e, i)
    return table


def rename_graph(g: BipartiteSeparatedGraph,
                 table: dict[str, str]) -> BipartiteSeparatedGraph:
    """Apply a vertex and edge rename table; unlisted names stay."""
    def nm(x: str) -> str:
        return table.get(x, x)

    graph = DirectedGraph.make(
        [nm(v) for v in g.vertices],
        [(nm(e), nm(a), nm(b)) for e, a, b in g.edges])
    sep = SeparatedGraph.make(
        graph, {nm(v): [[nm(e) for e in grp] for grp in groups]
                for v, groups in g.separation})
    return BipartiteSeparatedGraph.make(
        sep, upper=[nm(v) for v in g.upper], lower=[nm(v) for v in g.lower])


def same_bipartite_structure(a: BipartiteSeparatedGraph,
                             b: BipartiteSeparatedGraph) -> bool:
    """Equality up to list order: groups are compared as a set of sets,
    since the stored orders only steer generated names."""
    def shape(g):
        return (frozenset(g.vertices), frozenset(g.edges),
                frozenset((v, frozenset(map(frozenset, groups)))
                          for v, groups in g.separation),
                g.upper_set, g.lower_set)
    return shape(a) == shape(b)


def thm310_route(g: WeightedGraph):
    """Companion of g via completion, doubling, resolution, quotient."""
    full = cons.weighted_completion(g)
    double = cons.separated_of_vertex_weighted(full)
    res = cons.one_step_resolution(double)
    q = cons.quotient_graph(res, thm310_hidden_vertices(g))
    return rename_graph(q, thm310_rename(g))


# --- build_emn -------------------------------------------------------------

def test_build_emn_counts():
    for m, n in [(2, 3), (3, 5), (1, 1), (3, 3)]:
        g = cons.build_emn(m, n)
        assert len(g.edges) == n + m
        assert g.upper == ("v",) and g.lower == ("w",)
        assert [len(grp) for grp in g.sep["v"]] == [n, m]
        assert validate(g) == []


def test_build_emn_rejects_bad_shape():
    with pytest.raises(GraphError):
        cons.build_emn(0, 3)
    with pytest.raises(GraphError):
        cons.build_emn(3, 2)


# --- doubling a vertex-weighted graph ---------------------------------------

def test_double_of_loop():
    d = DirectedGraph.make(("v",), [("e1", "v", "v"), ("e2", "v", "v")])
    g = WeightedGraph.make(d, {"e1": 2, "e2": 2})
    double = cons.separated_of_vertex_weighted(g)
    assert double.upper == ("v_0",)
    assert double.lower == ("v_1",)
    assert sorted(e for e, _, _ in double.edges) == \
        ["e1~", "e2~", "h(v,1)", "h(v,2)"]
    assert double.sep["v_0"] == (("e1~", "e2~"), ("h(v,1)", "h(v,2)"))


def test_double_sink_has_lower_copy_only():
    d = DirectedGraph.make(("v", "w"), [("e", "v", "w")])
    g = WeightedGraph.make(d, {"e": 1})
    double = cons.separated_of_vertex_weighted(g)
    assert "w_0" not in double.vertices
    assert "w_1" in double.lower
    assert double.graph.rng("e~") == "w_1"


def test_double_rejects_non_vertex_weighted():
    d = DirectedGraph.make(("v", "w"), [("e", "v", "w"), ("f", "v", "w")])
    g = WeightedGraph.make(d, {"e": 2, "f": 1})
    with pytest.raises(GraphError):
        cons.separated_of_vertex_weighted(g)


# --- one-step resolution -----------------------------------------------------

def test_resolution_of_e23(e23):
    res = cons.one_step_resolution(e23)
    assert res.upper == ("w",)
    assert len(res.lower) == 6          # 3 * 2 choice tuples
    assert len(res.edges) == 12         # each tuple spawns 2 edges
    sizes = Counter(len(grp) for grp in res.sep["w"])
    assert sizes == Counter({2: 3, 3: 2})
    assert validate(res) == []


def test_resolution_count_formula():
    for g in bipartite_sweep():
        res = cons.one_step_resolution(g)
        expected = 0
        for u in g.upper:
            tuples = 1
            for grp in g.sep[u]:
                tuples *= len(grp)
            expected += tuples
        assert len(res.lower) == expected


def test_resolution_singleton_groups_degenerate():
    # every group a singleton: one tuple per upper vertex, and one edge,
    # for the empty rest
    d = DirectedGraph.make(("u", "w"), [("e", "u", "w")])
    s = SeparatedGraph.make(d, {"u": [["e"]]})
    from sepal.graphs import BipartiteSeparatedGraph
    b = BipartiteSeparatedGraph.make(s)
    res = cons.one_step_resolution(b)
    assert res.lower == ("u:0",)
    assert res.edges == (("e:0", "w", "u:0"),)


def test_resolution_requires_proper():
    d = DirectedGraph.make(("u", "w", "z"), [("e", "u", "w")])
    s = SeparatedGraph.make(d, {"u": [["e"]]})
    from sepal.graphs import BipartiteSeparatedGraph
    b = BipartiteSeparatedGraph.make(s, upper=("u", "z"), lower=("w",))
    assert not b.is_proper
    with pytest.raises(GraphError):
        cons.one_step_resolution(b)


# --- direct companion of a weighted graph ------------------------------------

def test_companion_of_rose():
    # n loops of weight m at one vertex
    m, n = 2, 3
    d = DirectedGraph.make(("v",), [(f"e{j}", "v", "v") for j in range(1, n + 1)])
    g = WeightedGraph.make(d, {f"e{j}": m for j in range(1, n + 1)})
    comp = cons.separated_of_weighted(g)
    assert len(comp.lower) == m * n
    assert len(comp.sep["v"]) == m + n
    slot_groups = comp.sep["v"][:m]
    edge_groups = comp.sep["v"][m:]
    assert all(len(grp) == n for grp in slot_groups)
    assert all(len(grp) == m for grp in edge_groups)


def test_companion_uneven_weights():
    d = DirectedGraph.make(("v",), [("e1", "v", "v"), ("e2", "v", "v")])
    g = WeightedGraph.make(d, {"e1": 3, "e2": 1})
    comp = cons.separated_of_weighted(g)
    assert len(comp.lower) == 4
    # slot 1 sees both edges, slots 2 and 3 only e1; then two edge groups
    assert [len(grp) for grp in comp.sep["v"]] == [2, 1, 1, 3, 1]
    assert "a1(e2)" in comp.sep["v"][0]
    assert comp.sep["v"][3] == ("a^e1(1)", "a^e1(2)", "a^e1(3)")


# --- the quotient route ------------------------------------------------------

def test_hidden_set_is_hsat_on_sweep():
    for g in weighted_sweep():
        res = cons.one_step_resolution(
            cons.separated_of_vertex_weighted(cons.weighted_completion(g)))
        rep = cons.is_hsat(res, thm310_hidden_vertices(g))
        assert rep.hereditary and rep.saturated


def test_route_matches_direct_companion_on_sweep():
    for g in weighted_sweep():
        assert same_bipartite_structure(
            thm310_route(g), cons.separated_of_weighted(g))


def test_route_matches_on_emn_completions():
    from sepal.mnlab import weighted_completion_of
    for m in range(1, 4):
        for n in range(m, 4):
            g = weighted_completion_of(m, n)
            assert same_bipartite_structure(
                thm310_route(g), cons.separated_of_weighted(g))


# --- hereditary group-saturated sets -----------------------------------------

def test_is_hsat_witnesses(e23):
    rep = cons.is_hsat(e23, {"w"})
    assert rep.hereditary and not rep.saturated
    v, grp = rep.saturated_witness
    assert v == "v" and set(grp) <= {"e1", "e2", "e3", "f1", "f2"}
    rep = cons.is_hsat(e23, {"v"})
    assert not rep.hereditary
    assert rep.hereditary_witness[1] == "v" and rep.hereditary_witness[2] == "w"
    with pytest.raises(GraphError):
        cons.is_hsat(e23, {"zz"})


def test_hsat_closure_frozen(e23):
    assert cons.hsat_closure(e23, {"w"}) == frozenset({"v", "w"})
    assert cons.hsat_closure(e23, ()) == frozenset()


def test_hsat_closure_is_closure_operator():
    rng = random.Random(7)
    graphs = bipartite_sweep()
    for g in rng.sample(graphs, min(12, len(graphs))):
        vs = list(g.vertices)
        a = frozenset(rng.sample(vs, rng.randrange(len(vs) + 1)))
        b = frozenset(rng.sample(vs, rng.randrange(len(vs) + 1)))
        ca = cons.hsat_closure(g, a)
        assert a <= ca                                    # extensive
        assert ca == cons.hsat_closure(g, ca)             # idempotent
        if a <= b:
            assert ca <= cons.hsat_closure(g, b)          # monotone
        cab = cons.hsat_closure(g, a | b)
        assert ca | cons.hsat_closure(g, b) <= cab


def test_enumerate_hsat_frozen(e23):
    found = cons.enumerate_hsat(e23)
    assert found == [frozenset(), frozenset({"v", "w"})]


def test_enumerate_methods_agree():
    for g in bipartite_sweep():
        assert cons.enumerate_hsat(g) == hsat_by_scan(g)


@functools.cache
def _by_companion_size() -> dict[int, list[WeightedGraph]]:
    """weighted_sweep(3, 4, 3) keyed by the vertex count of the direct
    companion: one per vertex plus one per weight slot."""
    pools: dict[int, list[WeightedGraph]] = {}
    for g in weighted_sweep(3, 4, 3):
        pools.setdefault(len(g.vertices) + sum(g.w.values()), []).append(g)
    return pools


# sizes first, so the small companions are drawn as often as the many
# large ones; 5-12 vertices covers what the monoid benchmark enumerates
@settings(max_examples=40, deadline=None)
@given(st.integers(5, 12).flatmap(
    lambda size: st.sampled_from(_by_companion_size()[size])))
def test_enumerate_matches_scan_on_companions(g):
    companion = cons.separated_of_weighted(g)
    assert cons.enumerate_hsat(companion) == hsat_by_scan(companion)


def hsat_rules_with(g: SeparatedGraph, add_ranges=False, saturate=True):
    """``SeparatedGraph.hsat_rules`` built again, with switches for the
    mutant test: a group's range bits added instead of OR-ed, and one-way
    rules that only follow the edges down."""
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    rng = g.graph.rng

    def ored(es):
        return functools.reduce(operator.or_, (bit[rng(e)] for e in es))

    def added(es):
        return sum(bit[rng(e)] for e in es)

    rules = [(bit[v], ored(es)) for v, es in g.graph.out_edges.items() if es]
    if saturate:
        join = added if add_ranges else ored
        rules += [(join(grp), bit[v])
                  for v, groups in g.separation for grp in groups]
    return bit, tuple(rules)


def engine_matches_references(g, subsets) -> bool:
    """``enumerate_hsat`` equals ``hsat_by_search``, and ``hsat_closure``
    equals ``hsat_closure_by_rescan`` on each subset."""
    return cons.enumerate_hsat(g) == hsat_by_search(g) and all(
        cons.hsat_closure(g, h) == hsat_closure_by_rescan(g, h)
        for h in subsets)


# bipartite_sweep() has groups with two edges into one vertex, where adding
# range bits instead of OR-ing them goes wrong; no companion of
# weighted_sweep(3, 4, 3) has one
@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.sampled_from(bipartite_sweep()),
    st.integers(5, 15).flatmap(lambda size: st.sampled_from(
        _by_companion_size()[size])).map(cons.separated_of_weighted)),
    st.data())
def test_engine_matches_the_rescanning_references(g, data):
    s = as_separated(g)
    subsets = data.draw(st.lists(st.frozensets(st.sampled_from(s.vertices)),
                                 max_size=4))
    assert s.hsat_rules == hsat_rules_with(s)
    assert engine_matches_references(g, subsets)


@pytest.mark.parametrize("switch", [{"add_ranges": True}, {"saturate": False}],
                         ids=["ranges-added", "one-way-rules"])
def test_references_catch_engine_mutants(monkeypatch, switch):
    monkeypatch.setattr(SeparatedGraph, "hsat_rules", property(
        lambda g: hsat_rules_with(g, **switch)))
    wrong = [g for g in bipartite_sweep()
             if not engine_matches_references(g, [{v} for v in g.vertices])]
    assert wrong
    if "add_ranges" in switch:
        # the mutant goes wrong only where a group has two edges into one
        # vertex
        assert all(any(len({g.graph.rng(e) for e in grp}) < len(grp)
                       for _, groups in g.separation for grp in groups)
                   for g in wrong)


def test_hsat_family_is_a_lattice():
    for g in bipartite_sweep()[:8]:
        sets = cons.enumerate_hsat(g)
        family = set(sets)
        for a in sets:
            for b in sets:
                assert a & b in family
                assert cons.hsat_closure(g, a | b) in family


def test_quotient_graph(e23):
    assert same_bipartite_structure(cons.quotient_graph(e23, ()), e23)
    assert not same_bipartite_structure(e23, cons.build_emn(3, 3))
    with pytest.raises(GraphError):
        cons.quotient_graph(e23, {"w"})


def test_quotient_drops_vertices_and_groups():
    # one group with mixed ranges: dropping z keeps the group, minus f
    d = DirectedGraph.make(("u", "w", "z"),
                           [("e", "u", "w"), ("f", "u", "z")])
    s = SeparatedGraph.make(d, {"u": [["e", "f"]]})
    h = cons.hsat_closure(s, {"z"})
    assert h == frozenset({"z"})
    q = cons.quotient_graph(s, h)
    assert set(q.vertices) == {"u", "w"}
    assert [e for e, _, _ in q.edges] == ["e"]
    assert q.sep["u"] == (("e",),)


# --- towers ------------------------------------------------------------------

def test_bratteli_layer_counts(e23):
    tower = cons.bratteli(e23, depth=2)
    assert len(tower.layers) == 3
    for prev, nxt in zip(tower.layers, tower.layers[1:]):
        assert set(nxt.upper) == set(prev.lower)
    assert len(tower.unions) == 3
    assert validate(tower.unions[-1]) == []
    # union grows by exactly the new layer's lower vertices
    assert set(tower.unions[1].graph.vertices) == \
        set(tower.unions[0].graph.vertices) | set(tower.layers[1].lower)


def spawned_by_names(g: BipartiteSeparatedGraph, x: str) -> list[str]:
    """The names x:j of the group that edge x spawns, j running over the
    tuples of the other groups at s(x)."""
    groups = g.sep[g.graph.src(x)]
    i = next(k for k, grp in enumerate(groups) if x in grp)
    others = groups[:i] + groups[i + 1:]
    return [f"{x}:{j}" for j in range(math.prod(map(len, others)))]


def phi0_by_names(g: BipartiteSeparatedGraph, alg: StarAlgebra) -> dict:
    """Oracle for ``phi0``: every image derived from the generated names
    alone, as a sum built one letter at a time."""
    images = {w: alg.vertex(w) for w in g.lower}
    for u in g.upper:
        total = alg.zero()
        for t in range(math.prod(map(len, g.sep[u]))):
            total = total + alg.vertex(f"{u}:{t}")
        images[u] = total
    for x in g.graph.edge_names:
        total = alg.zero()
        for name in spawned_by_names(g, x):
            total = total + alg.ghost(name)
        images[x] = total
    return images


def unions_by_dedupe(layers) -> list[SeparatedGraph]:
    """Oracle for the unions of ``bratteli``: glue the layers one by one,
    keeping each vertex the first time it is seen."""
    vertices, edges, sep, known = [], [], {}, set()
    unions = []
    for layer in layers:
        for v in layer.vertices:
            if v not in known:
                known.add(v)
                vertices.append(v)
        edges += list(layer.edges)
        for v, groups in layer.separation:
            sep[v] = [list(grp) for grp in groups]
        unions.append(SeparatedGraph.make(
            DirectedGraph.make(list(vertices), list(edges)),
            {v: [list(grp) for grp in gs] for v, gs in sep.items()}))
    return unions


def _tower_bases() -> list[BipartiteSeparatedGraph]:
    out = emn_sweep()
    for g in weighted_sweep(2, 3, 2):
        out.append(cons.separated_of_weighted(g))
        out.append(cons.separated_of_vertex_weighted(
            cons.weighted_completion(g)))
    return out


# the E(m, n) of the benchmark's resolve-wide cases
RESOLVE_EMN = ((1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3))

# the upper vertex v sits between the two lower ones in the vertex order
MIXED_LEVELS = BipartiteSeparatedGraph.make(SeparatedGraph.make(
    DirectedGraph.make(("w", "v", "x"), [("e", "v", "w"), ("f", "v", "x"),
                                         ("g", "v", "w")]),
    {"v": [["e", "f"], ["g"]]}), upper=("v",), lower=("w", "x"))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_tower_bases()), st.integers(0, 2))
@example(MIXED_LEVELS, 2)
def test_resolution_layout_matches_the_names(g, depth):
    tower = cons.bratteli(g, depth)
    for low, high in zip(tower.layers, tower.layers[1:]):
        # group j at w is the group spawned by the j-th edge into w
        for w in low.lower:
            assert [set(grp) for grp in high.sep[w]] == [
                set(spawned_by_names(low, x)) for x in low.graph.in_edges[w]]
        gmap = phi0(low)
        assert gmap.images == phi0_by_names(low, gmap.target)
    for union, want in zip(tower.unions, unions_by_dedupe(tower.layers),
                           strict=True):
        assert union == want


def positional_tuple(u: str, t: int, tup: tuple) -> str:
    return f"{u}:{t}"


def positional_edge(x: str, j: int, rest: tuple) -> str:
    return f"{x}:{j}"


def resolution_by_tuples(g: BipartiteSeparatedGraph,
                         tuple_name=positional_tuple,
                         edge_name=positional_edge) -> BipartiteSeparatedGraph:
    """Reference for ``one_step_resolution``: one loop over the choice
    tuples, naming the t-th tuple under u ``tuple_name(u, t, tuple)`` and
    the edge that x at position i spawns ``edge_name(x, j, rest)``, for the
    rest, the tuple less position i, and its number j among the rests,
    looked up in a table of its own.  The default names are ``u:t`` and
    ``x:j``."""
    d = g.graph
    new_lower: list[str] = []
    edges: list[tuple[str, str, str]] = []
    spawned: dict[str, list[str]] = {x: [] for x in d.edge_names}
    for u in g.upper:
        groups = g.sep[u]
        rests = [{rest: j for j, rest in enumerate(itertools.product(
                      *groups[:i], *groups[i + 1:]))}
                 for i in range(len(groups))]
        for t, tup in enumerate(itertools.product(*groups)):
            tv = tuple_name(u, t, tup)
            new_lower.append(tv)
            for i, x in enumerate(tup):
                rest = tup[:i] + tup[i + 1:]
                alpha = edge_name(x, rests[i][rest], rest)
                spawned[x].append(alpha)
                edges.append((alpha, d.rng(x), tv))
    sep = {w: [spawned[x] for x in d.in_edges[w]] for w in g.lower}
    graph = DirectedGraph.make(g.lower + tuple(new_lower), edges)
    return BipartiteSeparatedGraph.make(SeparatedGraph.make(graph, sep),
                                        upper=g.lower, lower=tuple(new_lower))


def resolves_by_tuples(g, depth: int, resolve=None) -> bool:
    """Whether ``resolve`` (``one_step_resolution`` by default) gives the
    reference's graph value on g and on each of its first ``depth - 1``
    resolutions."""
    resolve = resolve or cons.one_step_resolution
    for _ in range(depth):
        nxt = resolve(g)
        if nxt != resolution_by_tuples(g):
            return False
        g = nxt
    return True


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_tower_bases() + bipartite_sweep() + [MIXED_LEVELS]),
       st.integers(1, 2))
@example(MIXED_LEVELS, 2)
def test_resolution_matches_the_tuple_loop(g, depth):
    # equal as values: vertex, edge and group order and every name
    assert resolves_by_tuples(g, depth)


def test_resolution_matches_the_tuple_loop_on_e23_layer_3(e23):
    layers = cons.bratteli(e23, 3).layers
    assert layers[3] == resolution_by_tuples(layers[2])
    assert len(layers[3].edges) == 10368


def mutant(fn, old: str, new: str):
    """The ``constructions`` function ``fn`` with ``old`` replaced by
    ``new`` in its source, run over the module's own names."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    names = dict(vars(cons))
    exec(source.replace(old, new), names)
    return names[fn.__name__]


RESOLUTION_MUTANTS = {
    "rests-numbered-backwards":
        ("name_spawned(x, size // len(grp))",
         "name_spawned(x, size // len(grp))[::-1]"),
    "columns-in-reversed-positions":
        ("zip(*columns)", "zip(*columns[::-1])"),
}


@pytest.mark.parametrize("old, new", RESOLUTION_MUTANTS.values(),
                         ids=RESOLUTION_MUTANTS.keys())
def test_tuple_loop_catches_resolution_mutants(e23, old, new):
    assert resolves_by_tuples(e23, 2)
    assert not resolves_by_tuples(
        e23, 2, mutant(cons.one_step_resolution, old, new))


# --- tower names ---------------------------------------------------------------
# Resolutions once named the tuple (x, y, ...) under u "v(x,y,...)" and the
# edge that x spawns with rest (y, ...) "a^x(y,...)", so each name held whole
# names of the layer before and their length grew geometrically with the
# depth.  Positional names must give the same graphs up to a rename.

def nested_tuple(u: str, t: int, tup: tuple) -> str:
    return "v(" + ",".join(tup) + ")"


def nested_edge(x: str, j: int, rest: tuple) -> str:
    return f"a^{x}(" + ",".join(rest) + ")"


def renames_to_nested(layers) -> bool:
    """Whether each of ``layers`` after the first is its resolution under
    nested names, renamed by position: the k-th vertex and the k-th edge to
    the k-th of the nested layer, the same rename over the whole tower and
    injective, with vertex and edge order equal and groups equal as
    sets."""
    g = layers[0]
    table = {x: x for x in g.vertices + g.graph.edge_names}
    old = g
    for layer in layers[1:]:
        old = resolution_by_tuples(old, nested_tuple, nested_edge)
        if (len(layer.vertices), len(layer.edges)) != \
                (len(old.vertices), len(old.edges)):
            return False
        for new, was in (*zip(layer.vertices, old.vertices),
                         *zip(layer.graph.edge_names, old.graph.edge_names)):
            if table.setdefault(new, was) != was:
                return False
        if len(set(table.values())) < len(table):
            return False
        # make stores each group sorted, so equal values hold equal sets
        if rename_graph(layer, table) != old:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(bipartite_sweep() + emn_sweep() + [MIXED_LEVELS]),
       st.integers(1, 2))
@example(cons.build_emn(2, 3), 2)
@example(MIXED_LEVELS, 2)
def test_tower_layers_equal_the_nested_names_up_to_a_rename(g, depth):
    assert renames_to_nested(cons.bratteli(g, depth).layers)


def nested_rename(layers) -> dict[str, str]:
    """Each positional name of ``layers`` spelled out in nested names: the
    tuple u:t is v(...) of the t-th choice tuple over u's groups, and the
    edge x:j is a^x(...) of x's j-th rest, with every part spelled out."""
    g = layers[0]
    table = {x: x for x in g.vertices + g.graph.edge_names}
    for layer in layers[:-1]:
        for u in layer.upper:
            groups = layer.sep[u]
            for t, tup in enumerate(itertools.product(*groups)):
                table[f"{u}:{t}"] = nested_tuple(u, t, tuple(map(table.get,
                                                                 tup)))
            for i, grp in enumerate(groups):
                rests = itertools.product(*groups[:i], *groups[i + 1:])
                for j, rest in enumerate(rests):
                    for x in grp:
                        table[f"{x}:{j}"] = nested_edge(
                            table[x], j, tuple(map(table.get, rest)))
    return table


def test_deep_layers_are_the_nested_layers_under_the_spelled_out_rename(e23):
    # from layer 3 on, a group of more than ten edges sorts x:10 before
    # x:2, so the tuples are numbered in another order than under nested
    # names and the rename is no longer by position; each layer is still
    # the nested one with every name spelled out
    layers = cons.bratteli(e23, 3).layers
    assert renames_to_nested(layers[:3])
    assert not renames_to_nested(layers)
    table = nested_rename(layers)
    assert len(set(table.values())) == len(table)
    old = e23
    for layer in layers[1:]:
        old = resolution_by_tuples(old, nested_tuple, nested_edge)
        assert same_bipartite_structure(rename_graph(layer, table), old)


def test_rename_check_catches_schemes_that_break_the_layout(e23):
    # a scheme that drops t names two tuples alike, which the resolution
    # refuses; a layout with the positions of each tuple reversed renames
    # to no nested layer
    drop_t = mutant(cons.one_step_resolution, "name_tuple_vertices(u, size)",
                    "name_tuple_vertices(u, 1) * size")
    with pytest.raises(GraphError) as exc:
        drop_t(e23)
    assert str(exc.value) == \
        "the one-step resolution would use the name 'v:0' twice"
    reverse = mutant(cons.one_step_resolution, "zip(*columns)",
                     "zip(*columns[::-1])")
    assert renames_to_nested([e23, cons.one_step_resolution(e23)])
    assert not renames_to_nested([e23, reverse(e23)])


def test_tower_names_grow_linearly_with_the_depth():
    # each layer adds one index to a name: on E(1,2) the longest name at
    # layer k is at most the longest input name plus k (1 + the digits of
    # the largest index); here every index is 0 or 1, so it is 2 + 2k
    g = cons.build_emn(1, 2)
    tower = cons.bratteli(g, 16)
    longest_input = max(map(len, g.vertices + g.graph.edge_names))
    largest = 0
    for k, layer in enumerate(tower.layers[1:], 1):
        new = layer.lower + layer.graph.edge_names
        largest = max(largest, *(int(x.rpartition(":")[2]) for x in new))
        bound = longest_input + k * (1 + len(str(largest)))
        assert max(map(len, new)) <= bound
        assert max(map(len, new)) == 2 + 2 * k
    # E(2,3) to layer 3, whose longest nested edge name had 98 characters
    layers = cons.bratteli(cons.build_emn(2, 3), 3).layers
    names = [e for layer in layers[1:] for e in layer.graph.edge_names]
    assert len(set(names)) == len(names) == 10740
    assert max(map(len, names)) == 10


def tower_fits(g, depth: int, cap: int) -> bool:
    try:
        cons.bratteli(g, depth, cap=cap)
    except cons.ResourceLimitError:
        return False
    return True


def test_tower_cap_counts_edges_and_name_characters_of_the_whole_tower():
    # E(1,1) keeps two edges per layer while its names grow, so only a
    # count over the whole tower stops it
    g = cons.build_emn(1, 1)
    t0 = time.perf_counter()
    with pytest.raises(cons.ResourceLimitError) as exc:
        cons.bratteli(g, 10 ** 9)
    assert time.perf_counter() - t0 < 5
    assert str(exc.value) == \
        "the tower would exceed 1,000,000 edges and name characters"
    # the unions hold about d^3 names' characters at depth d
    deepest = next(d for d in itertools.count()
                   if not tower_fits(g, d + 1, cons.TOWER_CAP))
    assert deepest == 102
    with pytest.raises(cons.ResourceLimitError) as exc:
        cons.bratteli(g, 1, cap=cons.TOWER_CAP + 1)
    assert str(exc.value) == \
        "a tower cap of 1,000,001 is past the limit of 1,000,000"


# (m, n, depth) of the towers that the benchmark's resolve-wide workload
# builds under the default cap; E(2,3) to depth 3 is the largest
RESOLVE_TOWERS = ((2, 3, 3), (2, 3, 2), (2, 2, 3), (3, 3, 2), (2, 4, 2),
                  (2, 2, 2), (1, 4, 4), (1, 3, 4))


def test_the_benchmark_towers_fit_under_the_default_cap():
    for m, n, depth in RESOLVE_TOWERS:
        assert tower_fits(cons.build_emn(m, n), depth, cons.TOWER_CAP)
    union = cons.bratteli(cons.build_emn(2, 3), 3).unions[-1]
    assert len(union.edges) == 10745


@pytest.mark.parametrize("g", [cons.build_emn(m, n) for m, n in RESOLVE_EMN]
                         + [MIXED_LEVELS, cons.build_emn(1, 1)],
                         ids=[f"E({m},{n})" for m, n in RESOLVE_EMN]
                         + ["mixed-levels", "E(1,1)"])
def test_tower_cap_is_the_count_of_what_the_tower_holds(g):
    # the closed form, checked against the tower built: the base once as
    # union 0, then every layer's edges and new names, and every union's
    # edges and names
    tower = cons.bratteli(g, 2)

    def size(graph, names):
        return len(graph.edges) + sum(map(len, names))

    held = sum(size(layer, layer.lower + layer.graph.edge_names)
               for layer in tower.layers[1:])
    held += sum(size(union, union.vertices + union.graph.edge_names)
                for union in tower.unions)
    assert tower_fits(g, 2, held)
    assert not tower_fits(g, 2, held - 1)


# (construct verb, graph text, the name generated twice): a tuple vertex or
# a spawned edge can take the name of a kept lower vertex, and a slot vertex
# can equal an input vertex
NAME_COLLISIONS = [
    ("resolve", "graph separated\nvertex u\nvertex u:0\n"
     "edge e = u -> u:0\nseparation u : [e]\n",
     "the one-step resolution would use the name 'u:0' twice"),
    ("resolve", "graph separated\nvertex u\nvertex e:0\n"
     "edge e = u -> e:0\nseparation u : [e]\n",
     "the one-step resolution would use the name 'e:0' twice"),
    ("w2sep", "graph weighted\nvertex u\nvertex v(e,1)\n"
     "edge e = u -> v(e,1)\nweight e = 1\n",
     "the direct companion would use the name 'v(e,1)' twice"),
]
COLLISION_IDS = ["kept-vertex", "kept-vertex-as-edge", "slot-vertex"]


@pytest.mark.parametrize("verb, text, message", NAME_COLLISIONS,
                         ids=COLLISION_IDS)
def test_generated_names_that_collide_are_refused(verb, text, message):
    g = parse_graph(text)
    assert validate(g) == []
    build = {"resolve": cons.one_step_resolution,
             "w2sep": cons.separated_of_weighted}[verb]
    with pytest.raises(GraphError) as exc:
        build(g)
    assert str(exc.value) == message


def test_bratteli_cap(e23):
    with pytest.raises(cons.ResourceLimitError):
        cons.bratteli(e23, depth=6, cap=100)
    with pytest.raises(GraphError):
        cons.bratteli(e23, depth=-1)


def test_a_union_that_would_repeat_a_vertex_is_refused():
    # every layer is valid, but layer 2's new lower vertex w:0 is also a
    # vertex of the base, so union 2 would list it twice
    g = parse_graph("graph separated\nvertex u\nvertex w\nvertex w:0\n"
                    "edge e = u -> w\nedge f = u -> w:0\n"
                    "separation u : [e] [f]\n")
    assert validate(cons.one_step_resolution(cons.one_step_resolution(g))) == []
    assert validate(cons.bratteli(g, 1).unions[1]) == []
    with pytest.raises(GraphError) as exc:
        cons.bratteli(g, 2)
    assert str(exc.value) == "union 2 would repeat vertex name 'w:0'"


# Graphs whose every layer is valid, but where a new name of layer 2 is
# already a name of union 1.  Over BASE_E alone, layer 2 holds the vertex
# w:0 and the edge e:0:0; each graph adds an upper vertex y whose edge, or
# its edge's range, takes one of those names (ids: the kind of the new
# name, then of the old one)
BASE_E = ("graph separated\nvertex u\nvertex w\nvertex x\nvertex y\n"
          "edge e = u -> w\nedge f = u -> x\nseparation u : [e] [f]\n")
REPEATED_EDGE = parse_graph(BASE_E + "edge e:0:0 = y -> x\n"
                            "separation y : [e:0:0]\n")
UNION_COLLISIONS = [
    (REPEATED_EDGE, "union 2 would repeat edge name 'e:0:0'"),
    (parse_graph(BASE_E + "edge w:0 = y -> x\nseparation y : [w:0]\n"),
     "union 2 would repeat vertex name 'w:0'"),
    (parse_graph(BASE_E + "vertex e:0:0\nedge h = y -> e:0:0\n"
                 "separation y : [h]\n"),
     "union 2 would repeat edge name 'e:0:0'"),
]


@pytest.mark.parametrize("g, message", UNION_COLLISIONS,
                         ids=["edge-edge", "vertex-edge", "edge-vertex"])
def test_a_union_that_would_repeat_a_name_is_refused(g, message):
    layers = [g]
    for _ in range(2):
        layers.append(cons.one_step_resolution(layers[-1]))
    assert [fresh_report(layer) for layer in layers] == [[], [], []]
    with pytest.raises(GraphError) as exc:
        cons.bratteli(g, 2)
    assert str(exc.value) == message


# --- sweeps ------------------------------------------------------------------

def test_sweeps_are_nonempty_and_valid():
    ws = weighted_sweep()
    assert len(ws) == 194
    for g in ws:
        assert validate(g) == []
    assert len(emn_sweep()) == 6    # (1,1),(1,2),(1,3),(2,2),(2,3),(3,3)
    for g in bipartite_sweep():
        assert validate(g) == []
        assert g.is_proper


# --- constructors build valid graphs ---------------------------------------------
# The constructors do not validate what they build, and most store an empty
# report on it (the ``graphs`` docstring lists them), so ``validate`` would
# only read that report back; these properties check afresh.


def rebuilt(g):
    """``g`` rebuilt through the public ``make`` constructors, which keep
    every check."""
    if isinstance(g, BipartiteSeparatedGraph):
        return BipartiteSeparatedGraph.make(rebuilt(g.base), g.upper, g.lower)
    if isinstance(g, SeparatedGraph):
        return SeparatedGraph.make(rebuilt(g.graph), g.sep)
    if isinstance(g, WeightedGraph):
        return WeightedGraph.make(rebuilt(g.graph), g.w)
    return DirectedGraph.make(g.vertices, g.edges)


def fresh_report(g) -> list[str]:
    """The checks of every level of g, run afresh.  Each private validator
    starts from the report stored on the graph inside, so that graph is
    checked on its own as well; the list is empty exactly when g is
    valid."""
    if isinstance(g, BipartiteSeparatedGraph):
        return graphs._validate_bipartite(g) + fresh_report(g.base)
    if isinstance(g, SeparatedGraph):
        return graphs._validate_separated(g) + fresh_report(g.graph)
    if isinstance(g, WeightedGraph):
        return graphs._validate_weighted(g) + fresh_report(g.graph)
    return graphs._validate_directed(g)


def unearned(built) -> list:
    """The graphs of ``built`` that differ from their rebuild or that the
    validators, run afresh, find fault with."""
    return [g for g in built if rebuilt(g) != g or fresh_report(g)]


def born_valid_outputs(g) -> list:
    """What the library builds born valid from g: a weighted graph's
    completion and its two companions; a bipartite graph's tower layers
    and unions 1 and 2 (every phi0 target is such a layer)."""
    if isinstance(g, WeightedGraph):
        full = cons.weighted_completion(g)
        return [full, cons.separated_of_vertex_weighted(full),
                cons.separated_of_weighted(g)]
    tower = cons.bratteli(g, 2)
    return [*tower.layers[1:], *tower.unions[1:]]


# the fixtures
FIXTURE_FILES = sorted((pathlib.Path(__file__).resolve().parent.parent
                        / "fixtures").glob("*.txt"))


@pytest.mark.parametrize(
    "g", [cons.build_emn(m, n) for m, n in RESOLVE_EMN]
    + [load_graph(str(p)) for p in FIXTURE_FILES],
    ids=[f"E({m},{n})" for m, n in RESOLVE_EMN]
    + [p.stem for p in FIXTURE_FILES])
def test_born_valid_outputs_earn_their_report(g):
    assert unearned(born_valid_outputs(g)) == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(bipartite_sweep() + weighted_sweep(3, 3, 3)))
def test_born_valid_outputs_earn_their_report_on_the_sweeps(g):
    assert unearned(born_valid_outputs(g)) == []


def test_born_valid_check_catches_a_resolution_that_drops_edges(e23):
    # each group of the layer loses one spawned edge, so it no longer
    # covers its fiber
    drop = mutant(cons.one_step_resolution, "tuple(sorted(spawned[x]))",
                  "tuple(sorted(spawned[x])[1:])")
    assert unearned([cons.one_step_resolution(e23)]) == []
    bad = drop(e23)
    assert unearned([bad]) == [bad]


def test_born_valid_check_catches_a_union_without_the_name_check():
    unchecked = mutant(cons.bratteli, "if not names.isdisjoint(new):",
                       "if False:")
    tower = unchecked(REPEATED_EDGE, 2)
    assert unearned(tower.layers) == []
    assert unearned(tower.unions) == [tower.unions[2]]
    assert "duplicate edge name 'e:0:0'" in fresh_report(tower.unions[2])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(weighted_sweep(2, 3, 2)))
def test_constructor_outputs_are_valid(g):
    full = cons.weighted_completion(g)
    double = cons.separated_of_vertex_weighted(full)
    companion = cons.separated_of_weighted(g)
    built = [full, double, companion,
             cons.one_step_resolution(double),
             cons.one_step_resolution(companion)]
    for bip in (double, companion):
        built += [cons.quotient_graph(bip, h) for h in cons.enumerate_hsat(bip)]
    for out in built:
        assert fresh_report(out) == [], out


@pytest.mark.parametrize("g", emn_sweep(),
                         ids=lambda g: f"E({len(g.sep['v'][1])},"
                                       f"{len(g.sep['v'][0])})")
def test_bratteli_outputs_are_valid(g):
    tower = cons.bratteli(g, 2)
    for out in tower.layers + tower.unions:
        assert fresh_report(out) == [], out


# --- invalid input is refused with the full report ------------------------------

# unknown range x, f left out of the separation, groups at unknown y
BAD_SEP = SeparatedGraph.make(
    DirectedGraph.make(("u", "w"), [("e", "u", "w"), ("f", "u", "x")]),
    {"u": [["e"]], "y": [["e"]]})
# the separated faults, plus w on both levels and e ending at an upper vertex
BAD_BIP = BipartiteSeparatedGraph.make(BAD_SEP, upper=("u", "w"), lower=("w",))
# a zero weight, a missing weight and an isolated vertex
BAD_W = WeightedGraph.make(
    DirectedGraph.make(("v", "z"), [("e", "v", "v"), ("f", "v", "v")]),
    {"e": 0})

# (name, call, argument, the graph whose report the error must carry)
BAD_CALLS = [
    ("one_step_resolution", cons.one_step_resolution, BAD_BIP, BAD_BIP),
    ("bratteli", lambda g: cons.bratteli(g, 1), BAD_BIP, BAD_BIP),
    ("phi0", phi0, BAD_BIP, BAD_BIP),
    ("separated_of_weighted", cons.separated_of_weighted, BAD_W, BAD_W),
    ("quotient_graph-bipartite", lambda g: cons.quotient_graph(g, ()),
     BAD_BIP, BAD_SEP),
    ("quotient_graph-separated", lambda g: cons.quotient_graph(g, ()),
     BAD_SEP, BAD_SEP),
    ("enumerate_hsat-bipartite", cons.enumerate_hsat, BAD_BIP, BAD_SEP),
    ("enumerate_hsat-separated", cons.enumerate_hsat, BAD_SEP, BAD_SEP),
]


@pytest.mark.parametrize("call, arg, checked",
                         [c[1:] for c in BAD_CALLS],
                         ids=[c[0] for c in BAD_CALLS])
def test_invalid_input_raises_full_report(call, arg, checked):
    report = validate(checked)
    assert len(report) >= 2
    with pytest.raises(GraphError) as exc:
        call(arg)
    assert str(exc.value) == "; ".join(report)
