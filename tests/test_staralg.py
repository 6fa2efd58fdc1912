import functools
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sepal.constructions import (
    bratteli,
    build_emn,
    separated_of_vertex_weighted,
    separated_of_weighted,
)
from sepal.graphs import as_bipartite, is_vertex_weighted
from sepal.staralg import (
    DIRECT,
    GHOST,
    VERTEX,
    AlgebraError,
    AlgElement,
    StarAlgebra,
    basis_words,
    normal_form,
)
from sepal.exprs import parse_element
from sepal.sweeps import bipartite_sweep, emn_sweep, weighted_sweep


nf = normal_form


def corner(elem, side: str):
    """The terms whose words start and end on one level of a bipartite
    separated graph: side ``V`` is upper, ``W`` lower."""
    bip = as_bipartite(elem.alg.graph)
    level = {"V": bip.upper_set, "W": bip.lower_set}[side]
    ends = elem.alg.ends
    return AlgElement(elem.alg, {
        w: c for w, c in elem.terms.items()
        if ends[w[0]][0] in level and ends[w[-1]][1] in level})


class OracleRules:
    """The rewrite rules of a separated graph's algebra, read straight off
    the graph: each group's members, its greatest member as the designated
    edge, and the ends of each edge."""

    def __init__(self, sep):
        self.graph = sep.graph
        self.group = {e: grp for _, groups in sep.separation
                      for grp in groups for e in grp}
        self.designated = {max(grp) for grp in self.group.values()}

    def redexes(self, word):
        """Every position i where word[i] word[i+1] is e* f with e, f in
        one group, or e e* with e designated."""
        return [i for i, ((n1, k1), (n2, k2)) in enumerate(zip(word, word[1:]))
                if (k1, k2) == (GHOST, DIRECT) and self.group[n1] == self.group[n2]
                or (k1, k2) == (DIRECT, GHOST) and n1 == n2
                and n1 in self.designated]

    def rewrite(self, word, i):
        """e* f -> [e = f] r(e); e e* -> s(e) - sum of g g* over the other
        members g of the group of e."""
        (n1, k1), (n2, _) = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2:]
        if k1 == GHOST and n1 != n2:
            return []
        vertex = self.graph.rng(n1) if k1 == GHOST else self.graph.src(n1)
        out = [(head + tail or ((vertex, VERTEX),), 1)]
        if k1 == DIRECT:
            out += [(head + ((g, DIRECT), (g, GHOST)) + tail, -1)
                    for g in self.group[n1] if g != n1]
        return out

    def measure(self, word):
        """Well-founded, and shrunk by every rewrite: shorter words first,
        then a designated letter above its group mates at one position."""
        return len(word), tuple((k, n in self.designated, n) for n, k in word)


def nf_oracle(x, rng=None, max_steps=10_000):
    """Oracle for ``normal_form``, with its own rules (``OracleRules``):
    rewrite at a redex drawn by ``rng`` (the leftmost one when ``rng`` is
    None), check that every step shrinks the term measure, and fail after
    ``max_steps`` steps.  The rules are confluent, so every choice of redex
    gives one answer."""
    rules = OracleRules(x.alg.sep)
    pending = dict(x.terms)
    done = {}
    steps = 0
    while pending:
        word, coeff = pending.popitem()
        spots = rules.redexes(word)
        if not spots:
            done[word] = done.get(word, 0) + coeff
            continue
        steps += 1
        assert steps <= max_steps, f"rewriting exceeded {max_steps} steps"
        i = spots[0] if rng is None else rng.choice(spots)
        for new_word, sign in rules.rewrite(word, i):
            assert rules.measure(new_word) < rules.measure(word), \
                "rewrite failed to shrink the term measure"
            pending[new_word] = pending.get(new_word, 0) + sign * coeff
    return x.alg.element(done)


def mul_by_all_pairs(a, b, seam=True):
    """Oracle for ``AlgElement.__mul__``: try every pair of words, read
    where each word starts and ends from the graph itself, and keep the
    pairs that meet.  A vertex word acts as the identity on its side.
    Where a word ending in e* meets a word starting with an edge f of e's
    group (groups read from the separation), apply e* f = δ_ef r(e): drop
    the pair for f ≠ e, and splice it, or give r(e) when nothing is left,
    for f = e.  ``seam=False`` keeps the raw concatenation instead."""
    sep = a.alg.sep
    d = sep.graph
    group = {e: grp for _, groups in sep.separation
             for grp in groups for e in grp}

    def ends(letter):
        name, kind = letter
        if kind == VERTEX:
            return name, name
        s, r = d.src(name), d.rng(name)
        return (s, r) if kind == DIRECT else (r, s)

    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            if ends(wa[-1])[1] != ends(wb[0])[0]:
                continue
            (n1, k1), (n2, k2) = wa[-1], wb[0]
            if (seam and (k1, k2) == (GHOST, DIRECT)
                    and group[n1] == group[n2]):
                if n1 != n2:
                    continue
                w = wa[:-1] + wb[1:] or ((d.rng(n1), VERTEX),)
            elif k1 == VERTEX:
                w = wb
            elif k2 == VERTEX:
                w = wa
            else:
                w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c != 0}


def redex_pairs(alg):
    """Every letter pair that is a redex: a key of ``alg.rules``, or e* f
    with e, f in one group (groups read from the separation)."""
    pairs = set(alg.rules)
    for _, groups in alg.sep.separation:
        for grp in groups:
            pairs.update(((e, GHOST), (f, DIRECT)) for e in grp for f in grp)
    return pairs


def one_step(alg, word, i):
    """``word`` rewritten once at the redex i by its entry in ``alg.rules``,
    or 0 for an e* f with no entry."""
    u, splices = alg.rules.get((word[i], word[i + 1]), (None, ()))
    return alg.element({word[:i] + mid + word[i + 2:] or u: sign
                        for mid, sign in splices})


def unresolved_overlaps(alg):
    """The overlaps a b c, with a b and b c both redexes, whose two one-step
    rewrites reach different normal forms.  The rules terminate (``nf_oracle``
    checks a term measure), so by Bergman's Diamond Lemma the irreducible
    words are a basis exactly when this list is empty."""
    pairs = redex_pairs(alg)
    after = {}
    for a, b in pairs:
        after.setdefault(a, []).append(b)
    return [(a, b, c) for a, b in pairs for c in after.get(b, ())
            if nf(one_step(alg, (a, b, c), 0))
            != nf(one_step(alg, (a, b, c), 1))]


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
    assert nf(A23.ghost("e1") * A23.edge("e2")).is_zero
    assert nf(A23.ghost("e1") * A23.edge("e1")) == A23.vertex("w")
    lhs = nf((A23.edge("e1") * A23.ghost("e1"))
             * (A23.edge("e1") * A23.ghost("e2")))
    assert lhs == nf(A23.edge("e1") * A23.ghost("e2"))
    # letters from different groups do not cancel
    assert not nf(A23.ghost("e1") * A23.edge("f1")).is_zero


def test_vertex_absorption_and_orthogonality(A23):
    v, w = A23.vertex("v"), A23.vertex("w")
    assert nf(v * v) == v
    assert nf(v * w).is_zero
    assert nf(v * A23.edge("e1")) == A23.edge("e1")
    assert nf(A23.edge("e1") * w) == A23.edge("e1")
    assert nf(A23.edge("e1") * v).is_zero


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

def test_oracle_catches_a_wrong_rewrite_rule(A23, monkeypatch):
    # a table that drops one g g* splice from e3 e3* = v - e1 e1* - e2 e2*
    assert unresolved_overlaps(A23) == []
    key = (("e3", DIRECT), ("e3", GHOST))
    u, splices = A23.rules[key]
    monkeypatch.setitem(A23.rules, key, (u, splices[:2]))
    x = A23.edge("e3") * A23.ghost("e3")
    assert nf(x) == parse_element("v - e1 e1*", A23)
    assert nf(x) != nf_oracle(x)
    # e2* e3 e3* rewrites to 0 by e2* e3, but to e2* by the mutant entry
    assert (("e2", GHOST), ("e3", DIRECT), ("e3", GHOST)) in \
        unresolved_overlaps(A23)


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


# the layers of depth-2 Bratteli towers over E(m,n) and over the direct
# companions of the small weighted graphs
TOWER_BASES = (emn_sweep()
               + [separated_of_weighted(g) for g in weighted_sweep(2, 3, 2)])


@functools.cache
def tower_layer(base: int, depth: int) -> StarAlgebra:
    return StarAlgebra(bratteli(TOWER_BASES[base], 2).layers[depth])


@st.composite
def walks(draw, alg, start=None):
    """A start vertex (``start`` if given), 0-3 edge letters that follow
    the graph from it, and the vertex where they end."""
    d = alg.sep.graph
    if start is None:
        start = draw(st.sampled_from(d.vertices))
    v = start
    letters = ()
    for _ in range(draw(st.integers(0, 3))):
        out = ([(e, DIRECT) for e in d.out_edges.get(v, ())]
               + [(e, GHOST) for e in d.in_edges.get(v, ())])
        if not out:
            break
        name, kind = draw(st.sampled_from(out))
        letters += ((name, kind),)
        v = d.rng(name) if kind == DIRECT else d.src(name)
    return start, letters, v


def as_word(letters, vertex):
    return letters if letters else ((vertex, VERTEX),)


def letters_star(letters):
    return tuple((n, GHOST if k == DIRECT else DIRECT)
                 for n, k in reversed(letters))


COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                   st.fractions(-3, 3, max_denominator=4).filter(bool))


def carriers(depths):
    """The algebra of a ``bipartite_sweep()`` graph or of a tower layer of
    one of ``depths``."""
    return st.one_of(
        st.sampled_from(bipartite_sweep()).map(StarAlgebra),
        st.builds(tower_layer, st.integers(0, len(TOWER_BASES) - 1),
                  st.sampled_from(depths)))


def word_star(w):
    """Reference for ``AlgElement.star``, letter by letter: a vertex word
    is its own star; otherwise reverse the word and swap each letter's
    kind."""
    if w[0][1] == VERTEX:
        return w
    return tuple((n, DIRECT if k == GHOST else GHOST) for n, k in reversed(w))


def star_matches_reference(x, star=AlgElement.star) -> bool:
    """Whether ``star`` takes x to the reference's star of each word, and
    back to x, with letters from the algebra's table."""
    y = star(x)
    table = x.alg.star_of
    return (y.terms == {word_star(w): c for w, c in x.terms.items()}
            and star(y).terms == x.terms
            and all(table[table[l]] is l for w in y.terms for l in w))


@settings(max_examples=100, deadline=None)
@given(carriers((1, 2)).flatmap(lambda alg: st.lists(
    st.tuples(walks(alg), COEFFS), min_size=1, max_size=5).map(
        lambda ts: alg.element({as_word(letters, start): c
                                for (start, letters, _), c in ts}))))
def test_star_reads_the_letter_table(x):
    assert star_matches_reference(x)


def test_star_reference_catches_a_star_that_keeps_the_order(A23):
    def unreversed(x):
        flip = x.alg.star_of.__getitem__
        return AlgElement(x.alg, {tuple(map(flip, w)): c
                                  for w, c in x.terms.items()})
    x = A23.edge("e1") * A23.ghost("e2") + A23.vertex("v")
    assert star_matches_reference(x)
    assert not star_matches_reference(x, unreversed)


@st.composite
def operand_pairs(draw):
    """Two elements over one carrier: words from several start vertices,
    vertex words among them; one walk w split twice as w = h1 t1 = h2 t2
    with coefficients that cancel in the product; and a word ending in e*
    beside a word starting with an edge f of e's group, often e itself."""
    alg = draw(carriers((0, 1, 2)))
    d = alg.sep.graph
    sides = [{}, {}]
    for terms in sides:
        for _ in range(draw(st.integers(0, 4))):
            start, letters, _ = draw(walks(alg))
            terms[as_word(letters, start)] = draw(COEFFS)
    start, letters, end = draw(walks(alg))
    if letters:
        i = draw(st.integers(0, len(letters) - 1))
        j = draw(st.integers(i + 1, len(letters)))
        c1, d1, c2 = draw(COEFFS), draw(COEFFS), draw(COEFFS)
        for cut, c, k in ((i, c1, d1), (j, c2, Fraction(-c1 * d1) / c2)):
            head = as_word(letters[:cut], start)
            tail = as_word(letters[cut:], end)
            sides[0][head] = sides[0].get(head, 0) + c
            sides[1][tail] = sides[1].get(tail, 0) + k
    e = draw(st.sampled_from(d.edge_names))
    f = draw(st.sampled_from((e,) + alg.sep.group_of[e]))
    _, back, _ = draw(walks(alg, d.rng(e)))
    _, ahead, _ = draw(walks(alg, d.rng(f)))
    head = letters_star(back) + ((e, GHOST),)
    tail = ((f, DIRECT),) + ahead
    sides[0][head] = sides[0].get(head, 0) + draw(COEFFS)
    sides[1][tail] = sides[1].get(tail, 0) + draw(COEFFS)
    return alg.element(sides[0]), alg.element(sides[1])


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
def test_products_pair_only_words_that_meet(pair):
    a, b = pair
    prod = a * b
    assert prod.terms == mul_by_all_pairs(a, b)
    assert 0 not in prod.terms.values()


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
def test_seam_rule_keeps_normal_forms(pair):
    a, b = pair
    raw = a.alg.element(mul_by_all_pairs(a, b, seam=False))
    assert nf(a * b) == nf(raw)


def collapse_at_source(alg, e, entry):
    """Mutant (e*, e) entry: e* e gives s(e), not r(e)."""
    return ((alg.ends[(e, DIRECT)][0], VERTEX),), entry[1]


def drop_every_pair(alg, e, entry):
    """Mutant (e*, e) entry: e* e dies with the rest of e's group."""
    return entry[0], ()


@pytest.mark.parametrize("mutant", [collapse_at_source, drop_every_pair])
def test_oracles_catch_seam_mutants(A23, monkeypatch, mutant):
    # e1* e1 collapses to w = r(e1) and e3 e2* e2 splices to e3; e1* e2
    # and e3 e2* e1 die; e1* f1 and e3 e2* f1 cross groups and stay
    a = A23.element({(("e1", GHOST),): 1,
                     (("e3", DIRECT), ("e2", GHOST)): 2})
    b = A23.edge("e1") + A23.edge("e2") + A23.edge("f1")
    assert (a * b).terms == mul_by_all_pairs(a, b)
    raw = A23.element(mul_by_all_pairs(a, b, seam=False))
    assert nf(raw) == nf_oracle(raw)
    for e in A23.sep.graph.edge_names:
        key = ((e, GHOST), (e, DIRECT))
        monkeypatch.setitem(A23.rules, key, mutant(A23, e, A23.rules[key]))
    assert (a * b).terms != mul_by_all_pairs(a, b)
    assert nf(raw) != nf_oracle(raw)


@settings(max_examples=100, deadline=None)
@given(carriers((1, 2)))
def test_every_overlap_resolves(alg):
    # one (e*, e) entry per edge and one (e, e*) entry per group
    groups = sum(len(gs) for _, gs in alg.sep.separation)
    assert len(alg.rules) == len(alg.sep.graph.edges) + groups
    assert unresolved_overlaps(alg) == []


@st.composite
def raw_products(draw):
    """The raw product of two sums of walks over the algebra of a
    ``bipartite_sweep()`` graph or of a tower layer of depth 1 or 2: every
    pair of words that meet, concatenated, so that e* f and e e* redexes
    sit at the junction as well as inside the words."""
    alg = draw(carriers((1, 2)))
    sides = []
    for _ in range(2):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            start, letters, _ = draw(walks(alg))
            terms[as_word(letters, start)] = draw(COEFFS)
        sides.append(alg.element(terms))
    return alg.element(mul_by_all_pairs(*sides, seam=False))


def spelled(text):
    """The letters of a word written as in ``format_element``."""
    return tuple((n[:-1], GHOST) if n.endswith("*") else (n, DIRECT)
                 for n in text.split())


A23_WORDS = StarAlgebra(build_emn(2, 3)).element({
    spelled("e3 e3* e3 e3*"): 1, spelled("e1* e2 f1* f2"): 1,
    spelled("e3 f2* f1 e2*"): -2})


@settings(max_examples=200, deadline=None)
@given(prod=raw_products(), rng=st.randoms(use_true_random=False))
@example(prod=A23_WORDS.alg.element(
             mul_by_all_pairs(A23_WORDS, A23_WORDS.star(), seam=False)),
         rng=random.Random(42))
def test_strategies_agree_and_nf_idempotent(prod, rng):
    left = nf(prod)
    assert nf_oracle(prod) == left
    assert nf_oracle(prod, rng) == left
    assert nf(left) == left
    assert nf_oracle(left) == left


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
    assert nf(A23.ghost("e1") * twin.edge("e1")) == twin.vertex("w")
    assert nf(twin.edge("e3") * A23.ghost("e3")) == \
        nf(A23.edge("e3") * A23.ghost("e3"))


def test_unknown_names_rejected(A23):
    with pytest.raises(AlgebraError):
        A23.vertex("nope")
    with pytest.raises(AlgebraError):
        A23.edge("w")
    with pytest.raises(AlgebraError):
        A23.ghost("v")


def test_element_takes_only_words_of_the_graph(A23):
    e1, e2 = ("e1", DIRECT), ("e2", DIRECT)
    with pytest.raises(AlgebraError, match="empty"):
        A23.element({(): 1})
    with pytest.raises(AlgebraError, match="unknown letter"):
        A23.element({(("zz", DIRECT),): 1})
    with pytest.raises(AlgebraError, match="unknown letter"):
        A23.element({(("e1", 5),): 1})
    with pytest.raises(AlgebraError, match="vertex letter"):
        A23.element({(("v", VERTEX), e1): 1})
    with pytest.raises(AlgebraError, match="vertex letter"):
        A23.element({(("v", VERTEX), ("v", VERTEX)): 1})
    # r(e1) = w but s(e2) = v, so e1 e2 is not a word
    with pytest.raises(AlgebraError, match="do not meet"):
        A23.element({(e1, e2): 1})
    x = A23.element({(e1, ("e2", GHOST)): 2, (("v", VERTEX),): 0})
    assert x.terms == {(e1, ("e2", GHOST)): 2}


# --- basis ---------------------------------------------------------------------

def test_basis_words_are_normal_and_distinct(A23):
    words = basis_words(A23, 3)
    assert len(words) == len(set(words))
    seen = set()
    for w in words:
        x = A23.element({w: Fraction(1)})
        assert nf_oracle(x) == x
        assert nf(x) == x
        key = tuple(sorted(nf(x).terms))
        assert key not in seen
        seen.add(key)


def test_basis_restricted_to_source(A23):
    for w in basis_words(A23, 2, start="w"):
        assert A23.ends[w[0]][0] == "w"


def test_basis_counts_grow(A23):
    n1 = len(basis_words(A23, 1))
    n2 = len(basis_words(A23, 2))
    assert 2 < n1 < n2


def test_basis_rejects_an_unknown_start(A23):
    with pytest.raises(AlgebraError, match="nope"):
        basis_words(A23, 2, start="nope")
    with pytest.raises(AlgebraError):
        basis_words(A23, 2, start="")


# sha256 of basis_words over bipartite_sweep(), in full to 3 letters and
# from each start vertex to 2, recorded before the word-by-source indexing
BASIS_DIGEST = \
    "e44926c36a35759fa3657cc4d3e1ffa3565043759a3a8cfc46f1c5b72b31f9f5"


def test_basis_words_are_pinned():
    h = hashlib.sha256()
    for g in bipartite_sweep():
        alg = StarAlgebra(g)
        h.update(repr(basis_words(alg, 3)).encode())
        for v in g.base.graph.vertices:
            h.update(repr(basis_words(alg, 2, start=v)).encode())
    assert h.hexdigest() == BASIS_DIGEST


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


def test_corner_fullness_witnesses(e23):
    # W-corner: every lower vertex is hit by some ghost-direct product
    alg = StarAlgebra(e23)
    assert nf(alg.ghost("e1") * alg.edge("e1")) == alg.vertex("w")
    # V-corner: each group of direct-ghost products sums to its vertex
    acc = alg.zero()
    for e in ("f1", "f2"):
        acc = acc + alg.edge(e) * alg.ghost(e)
    assert nf(acc) == alg.vertex("v")


# --- equality of normal forms ------------------------------------------------------

def test_equals(A23):
    a = A23.edge("e3") * A23.ghost("e3")
    b = parse_element("v - e1 e1* - e2 e2*", A23)
    assert nf(a) == nf(b)
    assert nf(a) != A23.vertex("v")


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
                       if alg.ends[l][0] == alg.ends[word[-1]][1]]
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
