import random
from fractions import Fraction

import pytest

from sepal.constructions import build_emn
from sepal.exprs import ExprError, parse_element, parse_weighted
from sepal.staralg import StarAlgebra, basis_words, format_element, normal_form


@pytest.fixture(scope="module")
def A23(e23):
    return StarAlgebra(e23)


def test_parse_basic(A23):
    assert parse_element("v", A23) == A23.vertex("v")
    assert parse_element("e1*", A23) == A23.ghost("e1")
    assert parse_element("e1 e2*", A23) == A23.edge("e1") * A23.ghost("e2")
    assert parse_element("2 v - w", A23) == \
        A23.vertex("v").scale(2) - A23.vertex("w")
    assert parse_element("0", A23).is_zero
    assert parse_element("1/2 v", A23) == A23.vertex("v").scale(Fraction(1, 2))


def test_punctuation_is_a_boundary(A23):
    # stars and signs split tokens, so spaces around them are optional
    assert parse_element("e1*e2", A23) == parse_element("e1* e2", A23)
    assert parse_element("v-e1 e1*-e2 e2*", A23) == \
        parse_element("v - e1 e1* - e2 e2*", A23)
    # two names need whitespace between them
    with pytest.raises(ExprError, match="unknown identifier"):
        parse_element("e1e2*", A23)


def test_longest_name_wins():
    # e1 and e11 both exist: "e11" must not lex as e1 followed by junk
    from sepal.graphs import DirectedGraph, SeparatedGraph
    d = DirectedGraph.make(("v",), [("e1", "v", "v"), ("e11", "v", "v")])
    alg = StarAlgebra(SeparatedGraph.with_trivial_separation(d))
    assert parse_element("e11", alg) == alg.edge("e11")
    assert parse_element("e11*e1", alg) == alg.ghost("e11") * alg.edge("e1")


def test_parse_errors(A23):
    with pytest.raises(ExprError, match="unknown identifier"):
        parse_element("v + bogus", A23)
    with pytest.raises(ExprError, match="empty"):
        parse_element("   ", A23)
    with pytest.raises(ExprError, match="at 2"):
        parse_element("v %", A23)
    with pytest.raises(ExprError, match="needs a weighted graph"):
        parse_element("e1.1", A23)
    with pytest.raises(ExprError):
        parse_element("v +", A23)


def test_format_zero_one_and_signs(A23):
    assert format_element(A23.zero()) == "0"
    assert format_element(A23.vertex("v")) == "v"
    assert format_element(-A23.vertex("v")) == "-v"
    x = A23.vertex("v") - A23.edge("e1") * A23.ghost("e1")
    assert format_element(x) == "v - e1 e1*"
    assert format_element(A23.vertex("v").scale(Fraction(3, 2))) == "3/2 v"


def test_format_parse_round_trip(A23):
    rng = random.Random(5)
    words = basis_words(A23, 3)
    for _ in range(150):
        terms = {w: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
                 for w in rng.sample(words, rng.randrange(1, 4))}
        x = normal_form(A23.element(terms))
        assert parse_element(format_element(x), A23) == x


def test_parse_weighted_indices(wmax22):
    expr = parse_weighted("e1.1 e1.2*", wmax22)
    assert list(expr.terms) == [(("e1.1", False), ("e1.2", True))]
    expr = parse_weighted("v", wmax22)
    assert list(expr.terms) == [(("v", False),)]


def test_parse_weighted_errors(wmax22):
    with pytest.raises(ExprError, match="needs an index"):
        parse_weighted("e1", wmax22)
    with pytest.raises(ExprError, match="out of range"):
        parse_weighted("e1.3", wmax22)
    with pytest.raises(ExprError, match="out of range"):
        parse_weighted("e1.0", wmax22)
    with pytest.raises(ExprError, match="takes no index"):
        parse_weighted("v.1", wmax22)


def test_weighted_star_flag(omega0_35):
    expr = parse_weighted("e1.2* e2.1 - 3 v", omega0_35)
    words = sorted(expr.terms, key=len)
    assert expr.terms[(("v", False),)] == -3
    assert all(type(c) is int for c in expr.terms.values())
    assert (("e1.2", True), ("e2.1", False)) in expr.terms
