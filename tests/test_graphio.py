import pytest

from sepal.graphs import (
    BipartiteSeparatedGraph,
    SeparatedGraph,
    WeightedGraph,
    validate,
)
from sepal.graphio import (
    ParseError,
    graph_payload,
    graph_sha256,
    load_graph,
    parse_graph,
    print_graph,
)
from sepal.sweeps import bipartite_sweep, weighted_sweep


def test_round_trip_fixtures(e23, wmax22, omega0_35):
    for g in (e23, wmax22, omega0_35):
        text = print_graph(g)
        again = parse_graph(text)
        assert again == g
        assert print_graph(again) == text


def test_round_trip_sweeps():
    for g in weighted_sweep() + bipartite_sweep():
        assert parse_graph(print_graph(g)) == g


def test_load_graph(fixture_dir, e23):
    g = load_graph(str(fixture_dir / "e23.txt"))
    assert g == e23
    assert isinstance(g, BipartiteSeparatedGraph)


def test_kinds_inferred():
    g = parse_graph("graph weighted\nvertex v\nedge e = v -> v\nweight e = 2\n")
    assert isinstance(g, WeightedGraph)
    assert g.w["e"] == 2
    s = parse_graph("graph separated\nvertex v\nedge e = v -> v\n"
                    "separation v : [e]\n")
    assert isinstance(s, SeparatedGraph)
    assert not isinstance(s, BipartiteSeparatedGraph)


def test_comments_and_blank_lines():
    text = ("# leading comment\n\ngraph weighted\n"
            "vertex v   # trailing comment\nedge e = v -> v\nweight e = 1\n")
    g = parse_graph(text)
    assert g.graph.vertices == ("v",)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("vertex v\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("graph separated\nvertex v\nedge e v v\n")
    with pytest.raises(ParseError, match="line 2: unknown directive"):
        parse_graph("graph weighted\nspin e = 2\n")
    with pytest.raises(ParseError, match="not an integer"):
        parse_graph("graph weighted\nvertex v\nedge e = v -> v\n"
                    "weight e = two\n")
    with pytest.raises(ParseError, match="weight line in a separated"):
        parse_graph("graph separated\nvertex v\nedge e = v -> v\n"
                    "weight e = 1\n")
    with pytest.raises(ParseError, match="separation line in a weighted"):
        parse_graph("graph weighted\nvertex v\nedge e = v -> v\n"
                    "separation v : [e]\n")
    with pytest.raises(ParseError, match="second weight"):
        parse_graph("graph weighted\nvertex v\nedge e = v -> v\n"
                    "weight e = 1\nweight e = 2\n")
    with pytest.raises(ParseError, match="unclosed"):
        parse_graph("graph separated\nvertex v\nedge e = v -> v\n"
                    "separation v : [e\n")


SEPARATED = "graph separated\nvertex v\nedge e = v -> v\n"
WEIGHTED = "graph weighted\nvertex v\nedge e = v -> v\n"


@pytest.mark.parametrize("text, message", [
    ("graph directed\n",
     "line 1: graph kind must be 'separated' or 'weighted'"),
    ("graph weighted\ngraph weighted\n", "line 2: second 'graph' directive"),
    ("graph weighted\nvertex v w\n", "line 2: vertex takes exactly one name"),
    (SEPARATED + "separation v [e]\n", "line 4: separation syntax is: "
     "separation V : [E ...] [E ...]"),
    (SEPARATED + "separation v : [e]\nseparation v : [e]\n",
     "line 5: second separation for 'v'"),
    (SEPARATED + "separation v : [[e]]\n", "line 4: nested '['"),
    (SEPARATED + "separation v : ]\n", "line 4: unmatched ']'"),
    (SEPARATED + "separation v : e\n",
     "line 4: edge name 'e' outside brackets"),
    (SEPARATED + "separation v :\n",
     "line 4: separation needs at least one group"),
    (WEIGHTED + "weight e 2\n", "line 4: weight syntax is: weight EDGE = N"),
    (WEIGHTED + "bipartite upper: v lower:\n",
     "line 4: bipartite line in a weighted graph"),
    (SEPARATED + "bipartite upper: v lower:\nbipartite upper: v lower:\n",
     "line 5: second bipartite directive"),
    (SEPARATED + "bipartite lower: v upper: v\n", "line 4: bipartite syntax "
     "is: bipartite upper: V ... lower: W ..."),
], ids=["kind", "second-graph", "vertex", "separation-syntax",
        "second-separation", "nested", "unmatched", "outside-brackets",
        "no-group", "weight-syntax", "bipartite-weighted", "second-bipartite",
        "bipartite-syntax"])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_zero_weight_is_semantic_not_syntactic():
    # the parser accepts it; validation rejects it
    g = parse_graph("graph weighted\nvertex v\nedge e = v -> v\nweight e = 0\n")
    assert any("positive integers" in m for m in validate(g))


MALFORMED_SEPARATIONS = [
    ("[e f] []", "empty separation group at 'u'"),
    ("[e e] [f]", "separation groups at 'u' overlap on edge 'e'"),
]


def malformed_separation_text(groups):
    return ("graph separated\nvertex u\nvertex w\n"
            "edge e = u -> w\nedge f = u -> w\n"
            f"separation u : {groups}\n")


@pytest.mark.parametrize("groups, violation", MALFORMED_SEPARATIONS,
                         ids=["empty_group", "repeated_edge"])
def test_malformed_separation_reaches_validate(groups, violation):
    # the parser keeps empty and repeated groups; validation rejects them
    g = parse_graph(malformed_separation_text(groups))
    assert validate(g) == [violation]


def test_bipartite_line_round_trip(e23):
    text = print_graph(e23)
    assert "bipartite upper: v lower: w" in text


def test_sha_is_stable_under_reprint(e23):
    h1 = graph_sha256(e23)
    h2 = graph_sha256(parse_graph(print_graph(e23)))
    assert h1 == h2
    assert len(h1) == 64


def test_payload_shapes(e23, wmax22):
    p = graph_payload(e23)
    assert p["kind"] == "bipartite"
    assert p["upper"] == ["v"]
    q = graph_payload(wmax22)
    assert q["kind"] == "weighted"
    assert q["weights"]["e1"] == 2
