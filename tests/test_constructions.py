import functools
import inspect
import itertools
import math
import operator
import pathlib
import random
import textwrap
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

def thm310_hidden_vertices(g: WeightedGraph) -> frozenset[str]:
    """Tuple vertices of the resolved completion that track the weight
    slots missing from g: v(e~,h(v,j)) for weight(e) < j."""
    return frozenset(
        cons.name_tuple_vertex((cons.name_tilde(e), cons.name_h(s, j)))
        for e, s, _ in g.graph.edges
        for j in range(g.w[e] + 1, vertex_weight(g, s) + 1))


def thm310_rename(g: WeightedGraph) -> dict[str, str]:
    """Rename table from resolved-completion names to the direct companion
    names of ``separated_of_weighted``: v(e~,h(v,j)) -> v(e,j),
    a^h(v,i)(e~) -> a{i}(e), a^e~(h(v,i)) -> a^e(i), v_1 -> v."""
    table = {cons.name_lower_copy(v): v for v in g.graph.vertices}
    for e, s, _ in g.graph.edges:
        for i in range(1, g.w[e] + 1):
            tilde, h = cons.name_tilde(e), cons.name_h(s, i)
            table[cons.name_tuple_vertex((tilde, h))] = \
                cons.name_slot_vertex(e, i)
            table[cons.name_alpha(h, (tilde,))] = cons.name_slot_edge(i, e)
            table[cons.name_alpha(tilde, (h,))] = cons.name_edge_slot(e, i)
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
    # every group a singleton: one tuple per upper vertex, alpha over empty rest
    d = DirectedGraph.make(("u", "w"), [("e", "u", "w")])
    s = SeparatedGraph.make(d, {"u": [["e"]]})
    from sepal.graphs import BipartiteSeparatedGraph
    b = BipartiteSeparatedGraph.make(s)
    res = cons.one_step_resolution(b)
    assert res.lower == ("v(e)",)
    assert len(res.edges) == 1
    assert res.edges[0][1] == "w"


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
    """The names a^x(rest) of the group that edge x spawns, rest running
    over the tuples of the other groups at s(x)."""
    groups = g.sep[g.graph.src(x)]
    i = next(k for k, grp in enumerate(groups) if x in grp)
    others = groups[:i] + groups[i + 1:]
    return [cons.name_alpha(x, rest) for rest in itertools.product(*others)]


def phi0_by_names(g: BipartiteSeparatedGraph, alg: StarAlgebra) -> dict:
    """Oracle for ``phi0``: every image derived from the generated names
    alone, as a sum built one letter at a time."""
    images = {w: alg.vertex(w) for w in g.lower}
    for u in g.upper:
        total = alg.zero()
        for tup in itertools.product(*g.sep[u]):
            total = total + alg.vertex(cons.name_tuple_vertex(tup))
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


def resolution_by_tuples(g: BipartiteSeparatedGraph) -> BipartiteSeparatedGraph:
    """Reference for ``one_step_resolution``: one loop over the choice
    tuples, naming every edge a^x(rest) with its own ``name_alpha`` call."""
    d = g.graph
    new_lower: list[str] = []
    edges: list[tuple[str, str, str]] = []
    spawned: dict[str, list[str]] = {x: [] for x in d.edge_names}
    for u in g.upper:
        for tup in itertools.product(*g.sep[u]):
            tv = cons.name_tuple_vertex(tup)
            new_lower.append(tv)
            for i, x in enumerate(tup):
                alpha = cons.name_alpha(x, tup[:i] + tup[i + 1:])
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
    "rests-over-reversed-groups":
        ("product(*groups[:i], *groups[i + 1:])",
         "product(*groups[i + 1:][::-1], *groups[:i][::-1])"),
    "columns-in-reversed-positions":
        ("zip(*columns)", "zip(*columns[::-1])"),
}


@pytest.mark.parametrize("old, new", RESOLUTION_MUTANTS.values(),
                         ids=RESOLUTION_MUTANTS.keys())
def test_tuple_loop_catches_resolution_mutants(e23, old, new):
    assert resolves_by_tuples(e23, 2)
    assert not resolves_by_tuples(
        e23, 2, mutant(cons.one_step_resolution, old, new))


def test_each_resolved_edge_is_named_once(monkeypatch, e23):
    # the builder calls name_alpha once per rest, with a blank for the
    # spawning edge, and name_tuple_vertex once per rest of the first
    # position; no helper runs per edge
    calls = Counter()
    for helper in ("name_alpha", "name_tuple_vertex"):
        real = getattr(cons, helper)
        monkeypatch.setattr(cons, helper, lambda *args, real=real, helper=helper:
                            calls.update((helper,)) or real(*args))
    tower = cons.bratteli(e23, 3)
    rests = firsts = 0
    for layer in tower.layers[:-1]:
        for _, groups in layer.separation:
            tuples = math.prod(map(len, groups))
            rests += sum(tuples // len(grp) for grp in groups)
            firsts += tuples // len(groups[0])
    assert calls == {"name_alpha": rests, "name_tuple_vertex": firsts}
    assert (rests, firsts) == (521, 182)
    names = [e for layer in tower.layers[1:] for e in layer.graph.edge_names]
    assert len(set(names)) == len(names) == 10740
    calls.clear()
    gmap = phi0(tower.layers[1])
    assert calls["name_alpha"] == 156       # the rests at w, once each
    assert len(gmap.meta["resolution"].edges) == 360


# (construct verb, graph text, the name generated twice): a generated name
# can equal a kept vertex, two choice tuples can join to one name, and a
# slot vertex can equal an input vertex
NAME_COLLISIONS = [
    ("resolve", "graph separated\nvertex u\nvertex v(e)\n"
     "edge e = u -> v(e)\nseparation u : [e]\n",
     "the one-step resolution would use the name 'v(e)' twice"),
    ("resolve", "graph separated\nvertex u\nvertex x\nvertex y\n"
     "edge a = u -> x\nedge a,b = u -> x\nedge b,c = u -> y\n"
     "edge c = u -> y\nseparation u : [a a,b] [b,c c]\n",
     "the one-step resolution would use the name 'v(a,b,c)' twice"),
    ("w2sep", "graph weighted\nvertex u\nvertex v(e,1)\n"
     "edge e = u -> v(e,1)\nweight e = 1\n",
     "the direct companion would use the name 'v(e,1)' twice"),
]


@pytest.mark.parametrize("verb, text, message", NAME_COLLISIONS,
                         ids=["kept-vertex", "joined-tuples", "slot-vertex"])
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
    # every layer is valid, but layer 2's new lower vertex v(a^e(f)) is
    # also a vertex of the base, so union 2 would list it twice
    g = parse_graph("graph separated\nvertex u\nvertex w\nvertex v(a^e(f))\n"
                    "edge e = u -> w\nedge f = u -> v(a^e(f))\n"
                    "separation u : [e] [f]\n")
    assert validate(cons.one_step_resolution(cons.one_step_resolution(g))) == []
    assert validate(cons.bratteli(g, 1).unions[1]) == []
    with pytest.raises(GraphError) as exc:
        cons.bratteli(g, 2)
    assert str(exc.value) == "union 2 would repeat vertex name 'v(a^e(f))'"


# Graphs whose every layer is valid, but where a new name of layer 2 is
# already a name of union 1.  Over BASE_E alone, layer 2 holds the vertex
# v(a^e(f)) and the edge a^a^e(f)(); each graph adds an upper vertex y
# whose edge, or its edge's range, takes one of those names (ids: the kind
# of the new name, then of the old one)
BASE_E = ("graph separated\nvertex u\nvertex w\nvertex x\nvertex y\n"
          "edge e = u -> w\nedge f = u -> x\nseparation u : [e] [f]\n")
REPEATED_EDGE = parse_graph(BASE_E + "edge a^a^e(f)() = y -> x\n"
                            "separation y : [a^a^e(f)()]\n")
UNION_COLLISIONS = [
    (REPEATED_EDGE, "union 2 would repeat edge name 'a^a^e(f)()'"),
    (parse_graph(BASE_E + "edge v(a^e(f)) = y -> x\n"
                 "separation y : [v(a^e(f))]\n"),
     "union 2 would repeat vertex name 'v(a^e(f))'"),
    (parse_graph(BASE_E + "vertex a^a^e(f)()\nedge h = y -> a^a^e(f)()\n"
                 "separation y : [h]\n"),
     "union 2 would repeat edge name 'a^a^e(f)()'"),
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


# the E(m, n) of the benchmark's resolve-wide cases, and the fixtures
RESOLVE_EMN = ((1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3))
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
    assert "duplicate edge name 'a^a^e(f)()'" in fresh_report(tower.unions[2])


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
