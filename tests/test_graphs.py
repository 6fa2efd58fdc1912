import pytest
from hypothesis import example, given, settings, strategies as st

from sepal import constructions as cons
from sepal import exprs, graphio, graphs, homs, monoids
from sepal.constructions import enumerate_hsat, separated_of_weighted
from sepal.graphs import (
    BipartiteSeparatedGraph,
    DirectedGraph,
    GraphError,
    SeparatedGraph,
    WeightedGraph,
    as_bipartite,
    as_separated,
    as_weighted,
    is_vertex_weighted,
    require_valid,
    validate,
    vertex_weight,
)
from sepal.homs import phi1
from sepal.monoids import m1_of
from sepal.staralg import StarAlgebra


def triangle():
    return DirectedGraph.make(
        ("a", "b", "c"),
        [("e", "a", "b"), ("f", "b", "c"), ("g", "a", "c")])


def test_directed_accessors():
    d = triangle()
    assert d.src("e") == "a" and d.rng("e") == "b"
    assert d.out_edges["a"] == ("e", "g")
    assert d.in_edges["c"] == ("f", "g")
    assert validate(d) == []


def test_duplicate_and_bad_names():
    d = DirectedGraph.make(("v", "v"), [("e", "v", "v")])
    assert any("duplicate vertex" in msg for msg in validate(d))
    d = DirectedGraph.make(("v",), [("e x", "v", "v")])
    assert any("whitespace" in msg for msg in validate(d))
    d = DirectedGraph.make(("v", "e"), [("e", "v", "v")])
    assert any("both a vertex and an edge" in msg for msg in validate(d))


def test_unknown_endpoints_reported():
    d = DirectedGraph.make(("v",), [("e", "v", "zz")])
    assert any("unknown range" in msg for msg in validate(d))


def test_separation_must_cover_fiber():
    d = triangle()
    s = SeparatedGraph.make(d, {"a": [["e"]], "b": [["f"]]})
    report = validate(s)
    assert any("missing g" in msg for msg in report)
    good = SeparatedGraph.make(d, {"a": [["e"], ["g"]], "b": [["f"]]})
    assert validate(good) == []


def test_separation_overlap_and_unknown_edge():
    d = triangle()
    s = SeparatedGraph.make(d, {"a": [["e", "g"], ["g"]], "b": [["f"]]})
    assert any("overlap" in msg for msg in validate(s))
    s = SeparatedGraph.make(d, {"a": [["e", "qq"], ["g"]], "b": [["f"]]})
    assert any("unknown edge" in msg for msg in validate(s))


@pytest.mark.parametrize("graph, violation", [
    (DirectedGraph(("v", ""), ()), "empty vertex name"),
    (SeparatedGraph.make(triangle(), {"a": [["e", "g", "f"]], "b": [["f"]]}),
     "separation of 'a' lists edge 'f' outside s^-1(a)"),
    (SeparatedGraph.make(triangle(), {"a": [["e", "g"]]}),
     "separation does not cover s^-1(b): no groups given"),
], ids=["empty-name", "outside-fiber", "no-groups"])
def test_validate_names_the_violation(graph, violation):
    assert validate(graph) == [violation]


def test_trivial_separation_covers_everything():
    s = SeparatedGraph.with_trivial_separation(triangle())
    assert validate(s) == []
    assert s.sep["a"] == (("e", "g"),)


def test_group_lookup_tables():
    s = SeparatedGraph.make(triangle(), {"a": [["e"], ["g"]], "b": [["f"]]})
    assert s.group_of["e"] == ("e",)
    # every member of a group maps to the group's own tuple
    assert s.group_of["g"] is s.sep["a"][1]


def test_separation_sum_matches_fiber_size():
    # group sizes partition each outgoing fiber
    s = SeparatedGraph.make(triangle(), {"a": [["e"], ["g"]], "b": [["f"]]})
    require_valid(s)
    for v, groups in s.separation:
        assert sum(len(g) for g in groups) == len(s.graph.out_edges[v])


def test_bipartite_level_inference():
    d = DirectedGraph.make(("u", "w"), [("e", "u", "w")])
    b = BipartiteSeparatedGraph.make(SeparatedGraph.with_trivial_separation(d))
    assert b.upper == ("u",) and b.lower == ("w",)
    assert b.is_proper
    with pytest.raises(GraphError):
        BipartiteSeparatedGraph.make(b.base, upper=("u",))


def test_bipartite_edge_direction_checked():
    d = DirectedGraph.make(("u", "w"), [("e", "u", "w"), ("f", "w", "u")])
    s = SeparatedGraph.with_trivial_separation(d)
    b = BipartiteSeparatedGraph.make(s, upper=("u",), lower=("w",))
    report = validate(b)
    assert any("starts at lower vertex" in msg for msg in report)
    assert any("ends at upper vertex" in msg for msg in report)


def test_as_bipartite_rejects_mixed_vertices():
    d = DirectedGraph.make(("a", "b", "c"),
                           [("e", "a", "b"), ("f", "b", "c")])
    s = SeparatedGraph.with_trivial_separation(d)
    with pytest.raises(GraphError):
        as_bipartite(s)


def test_weighted_validation():
    d = DirectedGraph.make(("v",), [("e", "v", "v")])
    g = WeightedGraph.make(d, {"e": 0})
    assert any("positive integers" in msg for msg in validate(g))
    g = WeightedGraph.make(d, {})
    assert any("has no weight" in msg for msg in validate(g))
    d2 = DirectedGraph.make(("v", "z"), [("e", "v", "v")])
    g = WeightedGraph.make(d2, {"e": 1})
    assert any("isolated vertex" in msg for msg in validate(g))


def test_vertex_weight_and_predicate():
    d = DirectedGraph.make(("v", "w"), [("e", "v", "w"), ("f", "v", "w")])
    g = WeightedGraph.make(d, {"e": 2, "f": 1})
    assert vertex_weight(g, "v") == 2
    assert vertex_weight(g, "w") == 0
    assert not is_vertex_weighted(g)
    g2 = WeightedGraph.make(d, {"e": 2, "f": 2})
    assert is_vertex_weighted(g2)
    with pytest.raises(GraphError):
        vertex_weight(g, "zz")


def test_graphs_are_hashable_values():
    assert triangle() == triangle()
    assert hash(triangle()) == hash(triangle())
    s = SeparatedGraph.with_trivial_separation(triangle())
    assert len({s, SeparatedGraph.with_trivial_separation(triangle())}) == 1


names = st.sampled_from(["a", "b", "c", "d"])


@given(st.lists(st.tuples(names, names), min_size=1, max_size=5))
def test_trivial_separation_always_validates(pairs):
    vertices = tuple(sorted({x for p in pairs for x in p}))
    edges = [(f"e{i}", s, r) for i, (s, r) in enumerate(pairs)]
    g = DirectedGraph.make(vertices, edges)
    assert validate(SeparatedGraph.with_trivial_separation(g)) == []


def test_bad_name_pattern_is_isspace_or_hash():
    # over every code point, surrogates included
    text = "".join(map(chr, range(0x110000)))
    found = {m.start() for m in graphs._BAD_CHAR.finditer(text)}
    assert found == {i for i, c in enumerate(text)
                     if c.isspace() or c == "#"}


@pytest.mark.parametrize("weight", [2.5, "2"])
def test_non_integer_weight_is_a_violation(weight):
    g = WeightedGraph.make(DirectedGraph.make(("v",), [("e", "v", "v")]),
                           {"e": weight})
    assert validate(g) == [
        f"weight of 'e' is {weight!r}; weights are positive integers"]
    for build in (require_valid, separated_of_weighted, m1_of, phi1):
        with pytest.raises(GraphError):
            build(g)


def test_non_string_names_are_violations():
    d = DirectedGraph.make((1, "w"), [("e", 1, "w")])
    assert validate(d) == ["vertex name 1 is not a string"]
    with pytest.raises(GraphError):
        require_valid(WeightedGraph.make(d, {"e": 1}))
    d = DirectedGraph.make(("v", "w"), [(7, "v", "w"), ("f", "v", "w")])
    assert validate(d) == ["edge name 7 is not a string"]
    s = SeparatedGraph.make(d, {"v": [["f"]]})
    assert validate(s) == ["edge name 7 is not a string",
                           "separation does not cover s^-1(v): missing 7"]
    # levels that mix names and non-names are reported, not sorted together
    d = DirectedGraph.make(("u", 1), [("e", "u", 1)])
    b = BipartiteSeparatedGraph.make(SeparatedGraph.make(d, {"u": [["e"]]}),
                                     upper=("u", 1), lower=(1, "u", 2))
    assert validate(b) == [
        "vertex name 1 is not a string",
        "vertex 1 appears on both levels", "vertex 'u' appears on both levels",
        "level assignment names unknown vertex 2",
        "edge 'e' starts at lower vertex 'u'", "edge 'e' ends at upper vertex 1"]


def _faults(i, v):
    """What each kind of fault ``i`` adds to a valid weighted graph with a
    vertex ``v``: (vertices, edges, weights).  Each gives a message."""
    loop = [(f"x{i}", v, v)]
    return {
        "duplicate vertex": ([v], [], {}),
        "bad name": ([f"b {i}"], [(f"x{i}", f"b {i}", f"b {i}")], {f"x{i}": 1}),
        "unknown range": ([], [(f"x{i}", v, "zz")], {f"x{i}": 1}),
        "isolated vertex": ([f"iso{i}"], [], {}),
        "int vertex": ([i], [], {}),
        "no weight": ([], loop, {}),
        "weight for unknown edge": ([], [], {f"x{i}": 1}),
        "zero weight": ([], loop, {f"x{i}": 0}),
        "float weight": ([], loop, {f"x{i}": 2.5}),
        "string weight": ([], loop, {f"x{i}": "2"}),
    }


def _views(vertices, edges, weights):
    d = DirectedGraph.make(vertices, edges)
    s = SeparatedGraph.with_trivial_separation(d)
    return (d, WeightedGraph.make(d, weights), s,
            BipartiteSeparatedGraph.make(s))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(names, names, st.integers(1, 3)),
                min_size=1, max_size=5),
       st.lists(st.sampled_from(sorted(_faults(0, "a"))), max_size=5))
def test_stored_report_is_the_report_of_the_value(triples, faults):
    vertices = sorted({x for s, r, _ in triples for x in (s, r)})
    edges = [(f"e{i}", s, r) for i, (s, r, _) in enumerate(triples)]
    weights = {f"e{i}": w for i, (_, _, w) in enumerate(triples)}
    for i, kind in enumerate(faults):
        more_vertices, more_edges, more_weights = _faults(i, vertices[0])[kind]
        vertices += more_vertices
        edges += more_edges
        weights.update(more_weights)
    views = _views(vertices, edges, weights)
    assert bool(validate(views[1])) == bool(faults)
    for view, fresh in zip(views, _views(vertices, edges, weights)):
        first = validate(view)
        first.append("changed by the caller")
        second = validate(view)
        assert second == first[:-1]
        assert fresh == view and validate(fresh) == second
        assert validate(view) == second


def _record_checks(monkeypatch, *names):
    """Record the graph of every call of the named private validators."""
    checked = []
    for name in names:
        def recording(g, real=getattr(graphs, name)):
            checked.append(g)
            return real(g)
        monkeypatch.setattr(graphs, name, recording)
    return checked


def test_enumerate_hsat_validates_its_graph_once(monkeypatch):
    checked = _record_checks(monkeypatch, "_validate_separated")
    d = DirectedGraph.make(("u", "v"),
                           [("e", "u", "v"), ("f", "v", "u"), ("g", "u", "u")])
    b = separated_of_weighted(WeightedGraph.make(d, {"e": 2, "f": 1, "g": 2}))
    assert len(b.vertices) >= 6
    # the companion is born valid: no validation at all
    assert len(enumerate_hsat(b)) > 2
    assert checked == []
    # the same graph built by hand is validated once, at the first gate
    by_hand = SeparatedGraph.make(
        DirectedGraph.make(b.vertices, b.edges), b.sep)
    assert by_hand == b.base
    assert enumerate_hsat(by_hand) == enumerate_hsat(b)
    assert checked == [by_hand]


def test_as_bipartite_keeps_the_report_it_computes(monkeypatch):
    checked = _record_checks(monkeypatch, "_validate_separated",
                             "_validate_bipartite")
    s = SeparatedGraph.with_trivial_separation(
        DirectedGraph.make(("u", "w"), [("e", "u", "w"), ("f", "u", "w")]))
    b = as_bipartite(s)
    StarAlgebra(b)
    require_valid(b)
    assert checked == [b, s]


def test_malformed_edges_are_refused():
    for edge in [("e", "v"), ("e", "v", "v", "x"), 5]:
        with pytest.raises(GraphError) as exc:
            DirectedGraph.make(("v",), [edge])
        assert str(exc.value) == (
            f"edge {edge!r} is not a (name, source, range) triple")


def _refusal(build):
    with pytest.raises(GraphError) as exc:
        build()
    return str(exc.value)


def test_unhashable_name_is_a_violation():
    # a graph value cannot hold it, so the constructor refuses it in the
    # words validate uses for a name
    assert _refusal(lambda: DirectedGraph.make((["a"],), [])) == (
        "vertex name ['a'] is not a string")
    assert _refusal(lambda: DirectedGraph.make(
        ("v", ["a"], ["a"]), [({}, "v", "v")])) == (
        "vertex name ['a'] is not a string")
    assert _refusal(lambda: DirectedGraph.make(
        ("v",), [({}, "v", "v")])) == "edge name {} is not a string"
    assert _refusal(lambda: DirectedGraph.make(
        ("v",), [("e", "v", ["v"])])) == "edge 'e' has unknown range ['v']"


LOOP = DirectedGraph.make(("v",), [("e", "v", "v")])


@pytest.mark.parametrize("build, message", [
    (lambda: SeparatedGraph(LOOP, ((["v"], (("e",),)),)),
     "separation given for unknown vertex ['v']"),
    (lambda: BipartiteSeparatedGraph(
        SeparatedGraph.with_trivial_separation(LOOP), ("v",), ({},)),
     "level assignment names unknown vertex {}"),
    (lambda: WeightedGraph.make(LOOP, {"e": [1]}),
     "weight of 'e' is [1]; weights are positive integers"),
], ids=["separated", "bipartite", "weighted"])
def test_unhashable_name_stops_every_report(build, message):
    # each kind checks the fields it adds to the graph inside it
    assert _refusal(build) == message


def test_constructors_take_an_unhashable_name():
    # each ``make`` takes an unhashable name in the part it adds and answers
    # with a GraphError, never a bare TypeError
    s = SeparatedGraph.with_trivial_separation(LOOP)
    assert _refusal(lambda: DirectedGraph.make(
        ("v",), [(["e"], "v", "v")])) == "edge name ['e'] is not a string"
    assert _refusal(lambda: SeparatedGraph.make(LOOP, {"v": [[["e"]]]})) == (
        "separation of 'v' lists unknown edge ['e']")
    assert _refusal(lambda: BipartiteSeparatedGraph.make(s, [["v"]], [])) == (
        "level assignment names unknown vertex ['v']")
    assert _refusal(lambda: WeightedGraph.make(LOOP, {"e": 1, "f": [1]})) == (
        "weight of 'f' is [1]; weights are positive integers")


def _unhashable_vertex():
    return DirectedGraph.make((["a"],), [])


@pytest.mark.parametrize("gate, build", [
    (as_weighted, lambda: WeightedGraph.make(_unhashable_vertex(), {})),
    (as_separated, lambda: SeparatedGraph.make(_unhashable_vertex(), {})),
    (as_bipartite, lambda: SeparatedGraph.make(_unhashable_vertex(), {})),
], ids=["weighted", "separated", "bipartite"])
def test_gates_refuse_an_unhashable_name(gate, build):
    # the graph a gate would check cannot be built, so the refusal comes
    # before the gate runs, in the words validate uses for the name
    assert _refusal(lambda: gate(build())) == (
        "vertex name ['a'] is not a string")


@pytest.mark.parametrize("build, message", [
    (lambda: DirectedGraph(("v",), (e for e in [("e", "v", "v")])),
     "DirectedGraph edges must be a tuple, not generator"),
    (lambda: DirectedGraph("vw", ()),
     "DirectedGraph vertices must be a tuple, not str"),
    (lambda: DirectedGraph(("a", "b", "c"), ("abc",)),
     "edge 'abc' is not a (name, source, range) triple"),
    (lambda: SeparatedGraph(LOOP, [("v", (("e",),))]),
     "SeparatedGraph separation must be a tuple, not list"),
    (lambda: SeparatedGraph(LOOP, (("v",),)),
     "separation entry ('v',) is not a (vertex, tuple of tuples) pair"),
    (lambda: SeparatedGraph(LOOP, (("v", ("e",)),)),
     "separation entry ('v', ('e',)) is not a (vertex, tuple of tuples) pair"),
    (lambda: SeparatedGraph(LOOP, (("v", "e"),)),
     "separation entry ('v', 'e') is not a (vertex, tuple of tuples) pair"),
    (lambda: BipartiteSeparatedGraph(
        SeparatedGraph.with_trivial_separation(LOOP), iter(("v",)), ()),
     "BipartiteSeparatedGraph upper must be a tuple, not tuple_iterator"),
    (lambda: WeightedGraph(LOOP, (("e", 1, 2),)),
     "weight entry ('e', 1, 2) is not an (edge, weight) pair"),
    (lambda: WeightedGraph(LOOP, ("e1",)),
     "weight entry 'e1' is not an (edge, weight) pair"),
    (lambda: validate(SeparatedGraph("x", ())),
     "SeparatedGraph graph must be a DirectedGraph, not str"),
    (lambda: validate(WeightedGraph("x", ())),
     "WeightedGraph graph must be a DirectedGraph, not str"),
    (lambda: validate(BipartiteSeparatedGraph(LOOP, ("v",), ())),
     "BipartiteSeparatedGraph base must be a SeparatedGraph, "
     "not DirectedGraph"),
], ids=["edge-generator", "vertex-str", "edge-str", "separation-list",
        "separation-short-entry", "separation-flat-groups",
        "separation-str-groups", "level-iterator", "weight-triple",
        "weight-str", "separated-inner-str", "weighted-inner-str",
        "bipartite-inner-directed"])
def test_constructors_refuse_a_field_of_the_wrong_shape(build, message):
    # each of these hashes, so without the shape rule it would build a
    # wrong graph or make validate raise a bare ValueError or AttributeError
    assert _refusal(build) == message


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _built(build, *values):
    """``build()``, which must raise ``GraphError`` exactly when one of
    ``values`` cannot be hashed; None when it does."""
    hashable = all(map(_hashable, values))
    try:
        g = build()
    except GraphError:
        assert not hashable
        return None
    assert hashable
    return g


def _every_check(g) -> None:
    """Run each report and gate on ``g``; only ``GraphError`` may escape."""
    for check in (validate, require_valid, as_weighted, as_separated,
                  as_bipartite):
        try:
            check(g)
        except GraphError:
            pass


any_name = st.one_of(st.sampled_from(["v", "w", "e", "f"]), st.integers(0, 1),
                     st.lists(st.sampled_from(["v", "e"]), max_size=1),
                     st.dictionaries(st.sampled_from(["v", "e"]),
                                     st.integers(1, 2), max_size=1))
names_of = st.lists(any_name, max_size=3)


@settings(max_examples=200, deadline=None)
@given(vertices=names_of,
       edges=st.lists(st.tuples(any_name, any_name, any_name), max_size=3),
       separation=st.lists(st.tuples(any_name, st.lists(names_of, max_size=2)),
                           max_size=2),
       levels=st.tuples(names_of, names_of),
       weights=st.lists(st.tuples(any_name, st.one_of(st.integers(0, 2),
                                                      any_name)),
                        max_size=3))
# values a lookup would meet: a source (validate), a level, a group member,
# a source (with_trivial_separation's fibers), a range (as_bipartite)
@example(vertices=["v"], edges=[("e", ["v"], "v")], separation=[],
         levels=([], []), weights=[])
@example(vertices=["v"], edges=[], separation=[], levels=([["v"]], []),
         weights=[])
@example(vertices=["v", "w"], edges=[("e", "v", "w")],
         separation=[("v", [[["e"]]])], levels=([], []), weights=[])
@example(vertices=["v"], edges=[("e", {}, "v")], separation=[],
         levels=([], []), weights=[])
@example(vertices=["v"], edges=[("e", "v", ["v"])], separation=[],
         levels=([], []), weights=[])
def test_construction_refuses_exactly_the_unhashable(vertices, edges,
                                                     separation, levels,
                                                     weights):
    ends = [x for e in edges for x in e]
    directed = [_built(lambda: DirectedGraph.make(vertices, edges),
                       *vertices, *ends),
                _built(lambda: DirectedGraph(tuple(vertices), tuple(edges)),
                       *vertices, *ends)]
    if directed[0] is None:
        return
    d = directed[0]
    members = [e for _, groups in separation for g in groups for e in g]
    keyed = {v: groups for v, groups in separation if _hashable(v)}
    separated = [
        SeparatedGraph.with_trivial_separation(d),
        _built(lambda: SeparatedGraph(d, tuple(
            (v, tuple(map(tuple, groups))) for v, groups in separation)),
               *(v for v, _ in separation), *members),
        _built(lambda: SeparatedGraph.make(d, keyed),
               *(e for groups in keyed.values() for g in groups for e in g)),
    ]
    upper, lower = levels
    bipartite = []
    for s in filter(None, separated):
        bipartite += [
            BipartiteSeparatedGraph.make(s),
            _built(lambda: BipartiteSeparatedGraph(s, tuple(upper),
                                                   tuple(lower)),
                   *upper, *lower),
            _built(lambda: BipartiteSeparatedGraph.make(s, upper, lower),
                   *upper, *lower)]
    keyed = {e: w for e, w in weights if _hashable(e)}
    weighted = [
        _built(lambda: WeightedGraph(d, tuple(weights)),
               *(x for pair in weights for x in pair)),
        _built(lambda: WeightedGraph.make(d, keyed),
               *keyed.values())]
    for g in directed + separated + bipartite + weighted:
        if g is not None:
            _every_check(g)


def test_group_mixing_names_and_non_names_is_reported():
    d = DirectedGraph.make(("v", "w"), [("e", "v", "w"), (1, "v", "w")])
    s = SeparatedGraph.with_trivial_separation(d)
    assert s.sep["v"] == ((1, "e"),)
    assert validate(s) == ["edge name 1 is not a string"]
    # groups of names keep their sorted order
    s = SeparatedGraph.make(d, {"v": [["f2", "e10", "e1"]]})
    assert s.sep["v"] == (("e1", "e10", "f2"),)


# --- gates: one kind check and one validation per call -----------------------

def test_gates_validate_once_and_hand_back_the_kind(monkeypatch, e23, wmax22):
    calls = []
    real = graphs.require_valid
    monkeypatch.setattr(graphs, "require_valid",
                        lambda g: calls.append(g) or real(g))
    assert as_weighted(wmax22) is wmax22
    assert as_separated(e23) is e23.base
    assert as_separated(e23.base) is e23.base
    assert as_bipartite(e23) is e23
    inferred = as_bipartite(e23.base)
    assert (inferred.upper, inferred.lower) == (e23.upper, e23.lower)
    assert calls == [wmax22, e23.base, e23.base, e23, inferred]


@pytest.mark.parametrize("gate, want", [(as_weighted, "weighted"),
                                        (as_separated, "separated"),
                                        (as_bipartite, "separated")])
def test_gates_name_the_wrong_kind(gate, want):
    d = triangle()
    with pytest.raises(GraphError) as exc:
        gate(d)
    assert str(exc.value) == f"expected a {want} graph, got DirectedGraph"


def test_gates_carry_the_full_report():
    bad = WeightedGraph.make(triangle(), {"e": 0})
    with pytest.raises(GraphError) as exc:
        as_weighted(bad)
    assert str(exc.value) == "; ".join(validate(bad))
    with pytest.raises(GraphError) as exc:
        as_bipartite(SeparatedGraph.with_trivial_separation(triangle()))
    assert str(exc.value) == "not bipartite: edge 'e' ends at upper vertex 'b'"


# Every public entry point that takes a graph, called with five kinds of
# graph: each call returns or raises GraphError, never an AttributeError
# from inside a construction.
W = ("weighted",)
S = ("bipartite", "separated", "loop")
B = ("bipartite", "separated")  # the loop has no levels to infer


ENTRY_POINTS = [
    ("vertex_weight", lambda g: vertex_weight(g, g.vertices[0]), W),
    ("is_vertex_weighted", is_vertex_weighted, W),
    ("weighted_completion", cons.weighted_completion, W),
    ("separated_of_vertex_weighted", cons.separated_of_vertex_weighted, W),
    ("separated_of_weighted", cons.separated_of_weighted, W),
    ("one_step_resolution", cons.one_step_resolution, B),
    ("bratteli", lambda g: cons.bratteli(g, 1), B),
    ("is_hsat", lambda g: cons.is_hsat(g, ()), S),
    ("hsat_closure", lambda g: cons.hsat_closure(g, ()), S),
    ("enumerate_hsat", cons.enumerate_hsat, S),
    ("quotient_graph", lambda g: cons.quotient_graph(g, ()), S),
    ("StarAlgebra", StarAlgebra, S),
    ("relations-separated", lambda g: homs.relations("separated", g), S),
    ("relations-weighted", lambda g: homs.relations("weighted", g), W),
    ("relations-weighted-l1", lambda g: homs.relations("weighted-l1", g), W),
    ("relations-lv", lambda g: homs.relations("lv", g), B),
    ("relations-lw", lambda g: homs.relations("lw", g), B),
    ("phi_vw", homs.phi_vw, W),
    ("phi1", homs.phi1, W),
    ("phi0", homs.phi0, B),
    ("rho_tau", homs.rho_tau, B),
    ("ideal_generators-i0", lambda g: homs.ideal_generators("i0", g), W),
    ("ideal_generators-kernel",
     lambda g: homs.ideal_generators("kernel", g), B),
    ("ideal_generators-commutator",
     lambda g: homs.ideal_generators("commutator", g, bound=1), S + W),
    ("ideal_generators-hsat",
     lambda g: homs.ideal_generators("hsat", g, subset=()), S),
    ("parse_weighted", lambda g: exprs.parse_weighted(g.vertices[0], g), W),
    ("monoid_of", monoids.monoid_of, S),
    ("m1_of", monoids.m1_of, W),
    ("order_ideals", monoids.order_ideals, S + W),
    ("print_graph", graphio.print_graph, S + W),
    ("graph_payload", graphio.graph_payload, S + W),
]


@pytest.fixture(scope="module")
def five_kinds(e23, wmax22):
    return {
        "bipartite": e23,
        "separated": e23.base,
        "weighted": wmax22,
        "directed": wmax22.graph,
        "loop": SeparatedGraph.with_trivial_separation(
            DirectedGraph.make(("v",), [("e", "v", "v")])),
    }


@pytest.mark.parametrize("call, accepts", [e[1:] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
def test_entry_point_takes_its_kinds_and_refuses_the_rest(five_kinds, call,
                                                          accepts):
    for kind, g in five_kinds.items():
        if kind in accepts:
            call(g)
        else:
            with pytest.raises(GraphError):
                call(g)


def test_inferred_levels_give_the_same_results(e23):
    for call in (cons.one_step_resolution, lambda g: cons.bratteli(g, 2),
                 lambda g: homs.relations("lv", g),
                 lambda g: homs.relations("lw", g),
                 lambda g: homs.phi0(g).images,
                 lambda g: homs.rho_tau(g).images,
                 lambda g: homs.ideal_generators("kernel", g)):
        assert call(e23.base) == call(e23)
