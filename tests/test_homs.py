import hashlib
import inspect
import itertools
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sepal import constructions as cons
from sepal import homs
from sepal.graphs import (
    BipartiteSeparatedGraph,
    DirectedGraph,
    GraphError,
    SeparatedGraph,
    WeightedGraph,
    is_vertex_weighted,
)
from sepal.homs import (
    GeneratorMap,
    evaluate,
    ideal_generators,
    phi0,
    phi1,
    phi_vw,
    relations,
    rho_tau,
    r_name,
    slot_name,
    t_name,
    verify,
)
from sepal.staralg import (
    GHOST,
    DIRECT,
    AlgebraError,
    AlgElement,
    StarAlgebra,
    basis_words,
    format_element,
    normal_form,
)
from sepal.sweeps import bipartite_sweep, weighted_sweep
from test_staralg import corner

nf = normal_form


# --- relation families ---------------------------------------------------------

def test_relation_counts_on_e23(e23):
    assert len(relations("separated", e23).relations) == 31
    assert len(relations("lv", e23).relations) == 404
    assert len(relations("lw", e23).relations) == 51


def test_relation_kind_guards(e23, wmax22):
    with pytest.raises(GraphError):
        relations("weighted", e23)
    with pytest.raises(GraphError):
        relations("lv", wmax22)
    with pytest.raises(GraphError):
        relations("nope", e23)


def test_weighted_l1_splits_the_square_relations(wmax22):
    full = relations("weighted", wmax22)
    l1 = relations("weighted-l1", wmax22)
    assert full.generators == l1.generators
    assert {l.split(":")[0] for l, _ in full.relations} >= {"rows", "cols"}
    assert {l.split(":")[0] for l, _ in l1.relations} >= \
        {"offdiag", "offedge", "diag", "full"}


# sha256 of the relation families of all five kinds over weighted_sweep(2, 3,
# 2) and the doubles of its completions, recorded while the families were
# still built by GenExpr arithmetic
FAMILY_DIGEST = \
    "b0dfc67da5e613c7f3be5ac7612f4a7083f9b07bf919446aea8b073190d3fab5"


def family_digest() -> str:
    h = hashlib.sha256()
    for g in weighted_sweep(2, 3, 2):
        double = cons.separated_of_vertex_weighted(cons.weighted_completion(g))
        for kind, x in (("weighted", g), ("weighted-l1", g),
                        ("separated", double), ("lv", double), ("lw", double)):
            rels = relations(kind, x)
            h.update(repr((kind, rels.generators)).encode())
            for label, terms in rels.relations:
                h.update(repr((label, sorted(terms.items()))).encode())
    return h.hexdigest()


def test_relation_families_are_pinned():
    assert family_digest() == FAMILY_DIGEST


# --- the four maps kill their relations ------------------------------------------

def test_phi_vw_on_vertex_weighted(wmax22):
    gmap = phi_vw(wmax22)
    rep = verify(gmap, relations("weighted", wmax22))
    assert rep.all_zero, rep.failures[:3]
    # the image of a slot generator is a two-letter word h(v,i)* e~
    img = gmap.images["e1.1"]
    assert list(img.terms) == [(("h(v,1)", GHOST), ("e1~", DIRECT))]


def test_phi_vw_rejects_uneven_weights(omega0_35):
    with pytest.raises(GraphError):
        phi_vw(omega0_35)


def test_phi1_on_weighted_graphs(wmax22, omega0_35):
    for g in (wmax22, omega0_35):
        gmap = phi1(g)
        rep = verify(gmap, relations("weighted-l1", g))
        assert rep.all_zero, rep.failures[:3]


def test_phi1_images_are_partial_isometries(omega0_35):
    gmap = phi1(omega0_35)
    for name, x in gmap.images.items():
        assert nf(x * x.star() * x) == nf(x)


def test_phi0_on_e23(e23):
    gmap = phi0(e23)
    rep = verify(gmap, relations("separated", e23))
    assert rep.all_zero and rep.checked == 31


def test_rho_tau_kills_both_pair_families(e23):
    gmap = rho_tau(e23)
    for kind in ("lv", "lw"):
        rep = verify(gmap, relations(kind, e23))
        assert rep.all_zero, (kind, rep.failures[:3])


def test_rho_tau_images(e23):
    gmap = rho_tau(e23)
    alg = gmap.target
    assert nf(gmap.images[t_name("e1", "f2")]) == \
        nf(alg.edge("e1") * alg.ghost("f2"))
    assert gmap.images[r_name("e1", "e1")] == alg.vertex("w")
    assert gmap.images[r_name("e1", "e2")].is_zero
    assert nf(gmap.images[r_name("e1", "f1")]) == \
        nf(alg.ghost("e1") * alg.edge("f1"))


# --- term dicts ------------------------------------------------------------------

def as_generator_terms(el: AlgElement) -> dict:
    """An element's words as generator words over its own graph's vertex and
    edge names, the ghost letter e* read as the starred generator e."""
    return {tuple((n, k == GHOST) for n, k in w): c
            for w, c in el.terms.items()}


def test_evaluate_coerces_outside_coefficients(wmax22):
    gmap = phi1(wmax22)
    w = (("e1.1", False), ("e1.1", True))
    half = evaluate({w: 0.5}, gmap)
    assert half == nf(evaluate({w: 1}, gmap).scale(Fraction(1, 2)))
    assert half.terms
    assert all(type(c) is Fraction for c in half.terms.values())
    # a zero term contributes nothing, not even a missing image
    assert evaluate({w: 0, (("zz", False),): 0}, gmap).is_zero
    assert evaluate({w: 2, (("v", False),): 0}, gmap) == \
        evaluate({w: 2}, gmap)
    assert all(type(c) is int for c in evaluate({w: 2}, gmap).terms.values())


# --- homomorphism behaviour -------------------------------------------------------

COEFFS = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)])


def product(a: dict, b: dict) -> dict:
    """Term-dict product by word concatenation; zero sums stay in."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return out


def adjoint(a: dict) -> dict:
    """Term-dict star: each word reversed with its starred flags flipped."""
    return {tuple((n, not s) for n, s in reversed(w)): c
            for w, c in a.items()}


def draw_terms(data, words) -> dict:
    chosen = data.draw(st.lists(words, min_size=1, max_size=2, unique=True))
    return {w: data.draw(COEFFS) for w in chosen}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evaluate_is_multiplicative_and_star_equivariant(data):
    g = data.draw(st.sampled_from(weighted_sweep(2, 3, 2)))
    maps = [phi1(g)] + ([phi_vw(g)] if is_vertex_weighted(g) else [])
    letters = st.tuples(st.sampled_from(relations("weighted", g).generators),
                        st.booleans())
    words = st.lists(letters, min_size=1, max_size=3).map(tuple)
    a, b = draw_terms(data, words), draw_terms(data, words)
    for gmap in maps:
        ea, eb = evaluate(a, gmap), evaluate(b, gmap)
        assert evaluate(product(a, b), gmap) == nf(ea * eb), gmap.kind
        assert evaluate(adjoint(a), gmap) == nf(ea.star()), gmap.kind


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_map_is_multiplicative(data):
    # phi0 read on the algebra of its own graph: it respects that algebra's
    # product and star, not only those of free generator words
    g = data.draw(st.sampled_from(bipartite_sweep()))
    gmap = phi0(g)
    src = StarAlgebra(g)
    words = st.sampled_from(basis_words(src, 2))
    a = src.element(draw_terms(data, words))
    b = src.element(draw_terms(data, words))
    ta, tb = as_generator_terms(a), as_generator_terms(b)
    ea, eb = evaluate(ta, gmap), evaluate(tb, gmap)
    for terms in (product(ta, tb), as_generator_terms(nf(a * b))):
        assert evaluate(terms, gmap) == nf(ea * eb)
    for terms in (adjoint(ta), as_generator_terms(nf(a.star()))):
        assert evaluate(terms, gmap) == nf(ea.star())


def test_evaluate_missing_generator(wmax22):
    gmap = phi1(wmax22)
    with pytest.raises(AlgebraError, match="no image"):
        evaluate({(("zz", False),): 1}, gmap)


def test_empty_word_has_no_image(wmax22, e23):
    for gmap in (phi1(wmax22), phi0(e23)):
        with pytest.raises(AlgebraError, match="empty"):
            evaluate({(): 1}, gmap)


def test_image_over_another_graph_is_rejected(wmax22, e23):
    gmap = phi1(wmax22)
    gmap.images["e1.1"] = StarAlgebra(e23).vertex("v")
    v, e = ("v", False), ("e1.1", False)
    for terms in ({(e,): 1}, {(("e1.1", True),): 1}, {(v,): 1, (e,): 1},
                  {(v, e): 1}):
        with pytest.raises(AlgebraError, match="different graphs"):
            evaluate(terms, gmap)
    rmap = phi0(e23)
    rmap.images["e1"] = StarAlgebra(e23).edge("e1")
    with pytest.raises(AlgebraError, match="different graphs"):
        evaluate({(("e1", False),): 1}, rmap)


def test_images_over_an_equal_graph_are_accepted(wmax22):
    gmap = phi1(wmax22)
    twin = StarAlgebra(phi1(wmax22).target.graph)
    assert twin is not gmap.target
    moved = GeneratorMap(gmap.kind, gmap.target,
                         {n: twin.element(x.terms)
                          for n, x in gmap.images.items()})
    assert verify(moved, relations("weighted-l1", wmax22)).all_zero
    terms = {(("e1.1", False), ("e1.1", True)): 1}
    assert evaluate(terms, moved) == evaluate(terms, gmap)


def test_corrupted_image_is_caught(e23):
    gmap = phi0(e23)
    gmap.images["e1"] = gmap.target.zero()
    rep = verify(gmap, relations("separated", e23))
    assert not rep.all_zero
    assert {label for label, _ in rep.failures} == {"gg:e1.e1", "fiber:v.0"}


# --- kernel words -----------------------------------------------------------------

def kernel_word(rmap: GeneratorMap, e: str, f: str, g2: str,
                h: str) -> AlgElement:
    """The lower-corner word r(e,f)r(f,g)r(g,h) - r(e,g)r(g,f)r(f,h) read
    off the images of ``rho_tau``, normalized; zero words included."""
    def r(a: str, b: str) -> AlgElement:
        return rmap.images[r_name(a, b)]
    return nf(r(e, f) * r(f, g2) * r(g2, h) - r(e, g2) * r(g2, f) * r(f, h))


def test_kernel_generator_identity(e23):
    # r-word difference equals the conjugated projection commutator
    alg = StarAlgebra(e23)
    rmap = rho_tau(e23)

    def pp(x):
        return alg.edge(x) * alg.ghost(x)

    fiber = ("e1", "e2", "e3", "f1", "f2")
    for e, f, g2, h in itertools.product(fiber, repeat=4):
        gamma = kernel_word(rmap, e, f, g2, h)
        comm = pp(f) * pp(g2) - pp(g2) * pp(f)
        want = nf(alg.ghost(e) * comm * alg.edge(h))
        assert gamma == want
        # kernel words live in the lower corner
        assert corner(gamma, "W") == gamma


def test_kernel_words_die_in_the_resolution(e23):
    gmap = phi0(e23)
    gens = ideal_generators("kernel", e23)
    assert gens, "expected nonzero kernel words over E(2,3)"
    for label, el in gens:
        assert label.startswith("gamma:")
        assert evaluate(as_generator_terms(el), gmap).is_zero, label


def test_kernel_needs_common_source():
    # two upper vertices over one lower vertex: both give kernel words,
    # and each word pairs four edges out of one of them
    fibers = {"u1": [["e1", "e2"], ["f1", "f2"]],
              "u2": [["g1", "g2"], ["h1", "h2"]]}
    edges = [(x, u, "w") for u, groups in fibers.items()
             for grp in groups for x in grp]
    g = BipartiteSeparatedGraph.make(
        SeparatedGraph.make(DirectedGraph.make(("u1", "u2", "w"), edges),
                            fibers), upper=("u1", "u2"), lower=("w",))
    source = {x: u for x, u, _ in edges}
    found = {label.split(":")[1] for label, _ in
             ideal_generators("kernel", g)}
    assert {source[x] for quad in found for x in quad.split(".")} == \
        {"u1", "u2"}
    assert all(len({source[x] for x in quad.split(".")}) == 1
               for quad in found)


# --- iterated resolution kills bounded commutators ---------------------------------

def test_double_resolution_kills_upper_commutators(e23):
    gens = ideal_generators("commutator", e23, bound=2)
    first = phi0(e23)
    second = phi0(first.meta["resolution"])
    checked = 0
    for label, el in gens:
        if corner(el, "V") != el:
            continue
        checked += 1
        once = evaluate(as_generator_terms(el), first)
        assert evaluate(as_generator_terms(once), second).is_zero, label
    assert checked > 0


# --- ideal generator families -------------------------------------------------------

def test_i0_generators(wmax22):
    gens = ideal_generators("i0", wmax22)
    assert len(gens) == 8
    labels = {label for label, _ in gens}
    assert "i0:offdiag:e1.1.2" in labels
    assert "i0:offedge:e1.e2.1" in labels
    for _, el in gens:
        assert not el.is_zero


def i0_by_products(g) -> list[tuple[str, AlgElement]]:
    """Reference for ``ideal_generators("i0")``: the products of phi_vw
    images, (e.i)(e.j)* for i != j and (e.i)*(f.i) for e != f out of one
    vertex, listed by hand."""
    gmap = phi_vw(g)
    img = gmap.images
    d = g.graph
    out = []
    for e, _, _ in d.edges:
        for i in range(1, g.w[e] + 1):
            for j in range(1, g.w[e] + 1):
                if i != j:
                    out.append((f"i0:offdiag:{e}.{i}.{j}", normal_form(
                        img[slot_name(e, i)] * img[slot_name(e, j)].star())))
    for v in d.vertices:
        for e in d.out_edges.get(v, ()):
            for f in d.out_edges.get(v, ()):
                if e == f:
                    continue
                for i in range(1, min(g.w[e], g.w[f]) + 1):
                    out.append((f"i0:offedge:{e}.{f}.{i}", normal_form(
                        img[slot_name(e, i)].star() * img[slot_name(f, i)])))
    return out


def formatted(gens) -> list[tuple[str, str]]:
    return [(label, format_element(el)) for label, el in gens]


# edge names that hold a "." and a vertex name that looks like a slot
DOTTED = WeightedGraph.make(DirectedGraph.make(
    ("v.1", "w"), [("x.y", "v.1", "w"), ("z", "v.1", "v.1"),
                   ("x", "w", "v.1")]), {"x.y": 2, "z": 2, "x": 1})
VERTEX_WEIGHTED = [g for g in weighted_sweep(3, 3, 3)
                   if is_vertex_weighted(g)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VERTEX_WEIGHTED))
@example(DOTTED)
def test_i0_is_the_l1_relations_under_phi_vw(g):
    assert formatted(ideal_generators("i0", g)) == formatted(
        i0_by_products(g))


def test_i0_reference_catches_a_map_mutant(wmax22):
    # i0 read under phi1, which kills every generator of I_0
    source = textwrap.dedent(inspect.getsource(homs.ideal_generators))
    old = "gmap = phi_vw(g)"
    assert source.count(old) == 1
    names = dict(vars(homs))
    exec(source.replace(old, "gmap = phi1(g)"), names)
    mutant = names["ideal_generators"]("i0", wmax22)
    assert [label for label, _ in mutant] == [
        label for label, _ in i0_by_products(wmax22)]
    assert all(el.is_zero for _, el in mutant)
    assert formatted(mutant) != formatted(i0_by_products(wmax22))


def test_i0_guards(e23, omega0_35):
    with pytest.raises(GraphError):
        ideal_generators("i0", e23)
    with pytest.raises(GraphError):
        ideal_generators("i0", omega0_35)


def test_hsat_generators(e23):
    assert ideal_generators("hsat", e23, subset=frozenset()) == []
    gens = ideal_generators("hsat", e23, subset={"v", "w"})
    assert [label for label, _ in gens] == ["hsat:v", "hsat:w"]
    with pytest.raises(GraphError):
        ideal_generators("hsat", e23, subset={"w"})


def test_commutator_pairs_are_capped(omega0_35):
    # 945 projections at bound 3 would give 446,040 pairs; the 513th gives
    # 131,328 and is refused
    with pytest.raises(cons.ResourceLimitError,
                       match="more than 131072 projection pairs"):
        ideal_generators("commutator", omega0_35, bound=3)


def test_ideal_kind_guards(e23):
    with pytest.raises(GraphError):
        ideal_generators("commutator", e23)
    with pytest.raises(GraphError):
        ideal_generators("mystery", e23)
    # a plain separated graph gets inferred levels, which a loop cannot have
    loop = SeparatedGraph.with_trivial_separation(
        DirectedGraph.make(("v",), [("e", "v", "v")]))
    with pytest.raises(GraphError, match="not bipartite"):
        ideal_generators("kernel", loop)


# --- image separation ----------------------------------------------------------------

def test_phi1_separates_short_pair_words(wmax22):
    gmap = phi1(wmax22)
    slots = ["e1.1", "e1.2", "e2.1", "e2.2"]
    seen: dict = {}
    for a in slots:
        for b in slots:
            for word in (((a, False), (b, True)), ((a, True), (b, False))):
                img = evaluate({word: Fraction(1)}, gmap)
                if img.is_zero:
                    continue
                key = tuple(sorted(img.terms.items()))
                assert seen.setdefault(key, word) == word, \
                    f"{word} collides with {seen[key]}"
    assert len(seen) > 8


# --- integer coefficients -----------------------------------------------------------


def _in_z(terms) -> bool:
    return all(type(c) is int for c in terms.values())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(weighted_sweep(2, 3, 2)))
def test_core_stays_in_z(g):
    pairs = [(phi1(g), relations("weighted-l1", g))]
    if is_vertex_weighted(g):
        pairs.append((phi_vw(g), relations("weighted", g)))
        double = cons.separated_of_vertex_weighted(g)
        pairs.append((phi0(double), relations("separated", double.base)))
        tau = rho_tau(double)
        pairs += [(tau, relations(kind, double)) for kind in ("lv", "lw")]
    for gmap, rels in pairs:
        for name, img in gmap.images.items():
            assert _in_z(img.terms), (gmap.kind, name)
        for label, terms in rels.relations:
            assert _in_z(terms), (rels.kind, label)
            # term by term, since every relation evaluates to zero
            for word, c in terms.items():
                img = evaluate({word: c}, gmap)
                assert _in_z(img.terms), (gmap.kind, label, word)
