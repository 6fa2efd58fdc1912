import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepal.constructions import (
    build_emn,
    separated_of_vertex_weighted,
    separated_of_weighted,
)
from sepal.graphs import is_vertex_weighted
from sepal.staralg import (
    DIRECT,
    GHOST,
    VERTEX,
    AlgebraError,
    StarAlgebra,
    _measure,
    _redexes,
    _rewrite,
    basis_words,
    corner,
    equals,
    is_normal,
    mul,
    normal_form,
)
from sepal.exprs import parse_element
from sepal.sweeps import weighted_sweep


nf = normal_form


def nf_oracle(x, rng=None, max_steps=10_000):
    """Oracle for ``normal_form``: rewrite at a redex drawn by ``rng`` (the
    leftmost one when ``rng`` is None), check that every step shrinks the
    well-founded term measure, and fail after ``max_steps`` steps.  The
    rules are confluent, so every choice of redex gives one answer."""
    alg = x.alg
    pending = dict(x.terms)
    done = {}
    steps = 0
    while pending:
        word, coeff = pending.popitem()
        spots = list(_redexes(alg, word))
        if not spots:
            done[word] = done.get(word, 0) + coeff
            continue
        steps += 1
        assert steps <= max_steps, f"rewriting exceeded {max_steps} steps"
        i = spots[0] if rng is None else rng.choice(spots)
        for new_word, sign in _rewrite(alg, word, i):
            assert _measure(alg, new_word) < _measure(alg, word), \
                "rewrite failed to shrink the term measure"
            pending[new_word] = pending.get(new_word, 0) + sign * coeff
    return alg.element(done)


@pytest.fixture(scope="module")
def A23(e23):
    return StarAlgebra(e23)


def rand_elem(alg, rng, words, max_terms=3):
    terms = {}
    for w in rng.sample(words, rng.randrange(1, max_terms + 1)):
        terms[w] = Fraction(rng.choice([-2, -1, 1, 2]))
    return alg.element(terms)


# --- frozen normal forms ------------------------------------------------------

def test_designated_edge_expansion(A23):
    got = nf(A23.edge("e3") * A23.ghost("e3"))
    want = parse_element("v - e1 e1* - e2 e2*", A23)
    assert got == want
    # non-designated edges stay put
    e11 = A23.edge("e1") * A23.ghost("e1")
    assert nf(e11) == e11


def test_singleton_group_collapses_to_vertex():
    alg = StarAlgebra(build_emn(1, 2))
    assert nf(alg.edge("f1") * alg.ghost("f1")) == alg.vertex("v")
    assert nf(alg.edge("e2") * alg.ghost("e2")) == \
        parse_element("v - e1 e1*", alg)


def test_frozen_products(A23):
    assert mul(A23.ghost("e1"), A23.edge("e2")).is_zero
    assert mul(A23.ghost("e1"), A23.edge("e1")) == A23.vertex("w")
    lhs = mul(A23.edge("e1") * A23.ghost("e1"), A23.edge("e1") * A23.ghost("e2"))
    assert lhs == nf(A23.edge("e1") * A23.ghost("e2"))
    # letters from different groups do not cancel
    assert not mul(A23.ghost("e1"), A23.edge("f1")).is_zero


def test_vertex_absorption_and_orthogonality(A23):
    v, w = A23.vertex("v"), A23.vertex("w")
    assert mul(v, v) == v
    assert mul(v, w).is_zero
    assert mul(v, A23.edge("e1")) == A23.edge("e1")
    assert mul(A23.edge("e1"), w) == A23.edge("e1")
    assert mul(A23.edge("e1"), v).is_zero


def test_separated_relations_rewrite_to_zero(A23):
    # ghost-direct pairs inside one group
    for e in ("e1", "e2", "e3"):
        for f in ("e1", "e2", "e3"):
            prod = A23.ghost(e) * A23.edge(f)
            want = A23.vertex("w") if e == f else A23.zero()
            assert nf(prod) == want
    # each group sums to its source vertex
    acc = A23.zero()
    for e in ("e1", "e2", "e3"):
        acc = acc + A23.edge(e) * A23.ghost(e)
    assert nf(acc - A23.vertex("v")).is_zero
    acc = A23.edge("f1") * A23.ghost("f1") + A23.edge("f2") * A23.ghost("f2")
    assert nf(acc - A23.vertex("v")).is_zero


# --- engine behaviour ---------------------------------------------------------

def test_strategies_agree_and_nf_idempotent(A23):
    rng = random.Random(42)
    words = basis_words(A23, 3)
    for _ in range(200):
        a = rand_elem(A23, rng, words)
        b = rand_elem(A23, rng, words)
        prod = a * b
        left = nf(prod)
        assert nf_oracle(prod) == left
        assert nf_oracle(prod, random.Random(rng.random())) == left
        assert nf(left) == left
        assert is_normal(left)


def test_involution_and_associativity(A23):
    rng = random.Random(9)
    words = basis_words(A23, 3)
    for _ in range(100):
        a = rand_elem(A23, rng, words)
        b = rand_elem(A23, rng, words)
        c = rand_elem(A23, rng, words)
        assert nf(a.star().star()) == nf(a)
        assert nf((a * b).star()) == nf(b.star() * a.star())
        assert nf((a * b) * c) == nf(a * (b * c))
        assert nf((a + b) * c) == nf(a * c + b * c)


def test_mixing_carriers_rejected(A23):
    other = StarAlgebra(build_emn(1, 2))
    with pytest.raises(AlgebraError):
        A23.vertex("v") + other.vertex("v")
    assert not A23.same_carrier(other)


def test_equal_graphs_share_a_carrier(A23):
    twin = StarAlgebra(build_emn(2, 3))
    assert twin is not A23 and A23.same_carrier(twin)
    assert A23.vertex("v") == twin.vertex("v")
    assert A23.vertex("v") + twin.vertex("v") == A23.vertex("v").scale(2)
    assert mul(A23.ghost("e1"), twin.edge("e1")) == twin.vertex("w")
    assert nf(twin.edge("e3") * A23.ghost("e3")) == \
        nf(A23.edge("e3") * A23.ghost("e3"))


def test_unknown_names_rejected(A23):
    with pytest.raises(AlgebraError):
        A23.vertex("nope")
    with pytest.raises(AlgebraError):
        A23.edge("w")
    with pytest.raises(AlgebraError):
        A23.ghost("v")


# --- basis ---------------------------------------------------------------------

def test_basis_words_are_normal_and_distinct(A23):
    words = basis_words(A23, 3)
    assert len(words) == len(set(words))
    seen = set()
    for w in words:
        x = A23.element({w: Fraction(1)})
        assert is_normal(x)
        assert nf(x) == x
        key = tuple(sorted(nf(x).terms))
        assert key not in seen
        seen.add(key)


def test_basis_restricted_to_source(A23):
    for w in basis_words(A23, 2, start="w"):
        assert A23.word_source(w) == "w"


def test_basis_counts_grow(A23):
    n1 = len(basis_words(A23, 1))
    n2 = len(basis_words(A23, 2))
    assert 2 < n1 < n2


# --- corners --------------------------------------------------------------------

def test_corner_projections(A23):
    v = A23.vertex("v")
    e = A23.edge("e1")
    ew = nf(A23.edge("e1") * A23.ghost("e2"))
    assert corner(v, "V") == v
    assert corner(v, "W").is_zero
    assert corner(e, "V").is_zero and corner(e, "W").is_zero
    assert corner(ew, "V") == ew
    mixed = v + e + A23.vertex("w")
    assert corner(mixed, "V") == v
    assert corner(mixed, "W") == A23.vertex("w")
    with pytest.raises(AlgebraError):
        corner(v, "U")


def test_corner_fullness_witnesses(e23):
    # W-corner: every lower vertex is hit by some ghost-direct product
    alg = StarAlgebra(e23)
    assert mul(alg.ghost("e1"), alg.edge("e1")) == alg.vertex("w")
    # V-corner: each group of direct-ghost products sums to its vertex
    acc = alg.zero()
    for e in ("f1", "f2"):
        acc = acc + alg.edge(e) * alg.ghost(e)
    assert equals(acc, alg.vertex("v"))


# --- equals convenience -----------------------------------------------------------

def test_equals(A23):
    a = A23.edge("e3") * A23.ghost("e3")
    b = parse_element("v - e1 e1* - e2 e2*", A23)
    assert equals(a, b)
    assert not equals(a, A23.vertex("v"))


# --- coefficients ---------------------------------------------------------------

# E(2,3) and the separated companions of the small weighted graphs
SMALL = weighted_sweep(2, 2, 2)
CARRIERS = ([build_emn(2, 3)]
            + [separated_of_weighted(g) for g in SMALL]
            + [separated_of_vertex_weighted(g) for g in SMALL
               if is_vertex_weighted(g)])


@st.composite
def int_elements(draw):
    """An algebra over one of ``CARRIERS`` and a sum of composable, not
    necessarily reduced, words with small integer coefficients."""
    alg = StarAlgebra(draw(st.sampled_from(CARRIERS)))
    edges = alg.sep.graph.edge_names
    letters = [(e, DIRECT) for e in edges] + [(e, GHOST) for e in edges]
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 4)) == 0:
            word = ((draw(st.sampled_from(sorted(alg.vertex_names))),
                     VERTEX),)
        else:
            word = (draw(st.sampled_from(letters)),)
            for _ in range(draw(st.integers(0, 3))):
                nxt = [l for l in letters
                       if alg.letter_source(l) == alg.word_range(word)]
                if not nxt:
                    break
                word += (draw(st.sampled_from(nxt)),)
        terms[word] = draw(st.integers(-3, 3))
    return alg.element(terms)


@settings(max_examples=150, deadline=None)
@given(int_elements(), st.fractions(max_denominator=12))
def test_scaling_commutes_with_normalizing(x, r):
    assert all(type(c) is int for c in x.terms.values())
    normal = nf(x)
    assert all(type(c) is int for c in normal.terms.values())
    assert nf(x.scale(r)) == normal.scale(r)


def test_scale_keeps_rationals_exact(A23):
    r = Fraction(3, 2)
    assert A23.vertex("v").scale(r).terms == {(("v", VERTEX),): r}
    x = nf((A23.edge("e3") * A23.ghost("e3")).scale(r))
    assert sorted(x.terms.values()) == [-r, -r, r]
    assert nf(A23.vertex("v").scale(Fraction(1, 2))
              + A23.vertex("v").scale(Fraction(1, 2))) == A23.vertex("v")
