import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepal import constructions as cons
from sepal.graphs import GraphError, is_vertex_weighted
from sepal.homs import (
    GenExpr,
    apply_map,
    evaluate,
    ideal_generators,
    kernel_generator,
    phi0,
    phi1,
    phi_vw,
    relations,
    rho_tau,
    r_name,
    t_name,
    verify,
)
from sepal.staralg import (
    GHOST,
    DIRECT,
    AlgebraError,
    StarAlgebra,
    basis_words,
    corner,
    normal_form,
)
from sepal.sweeps import weighted_sweep

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


# --- homomorphism behaviour -------------------------------------------------------

def rand_expr(names, rng, max_len=4):
    word = tuple((rng.choice(names), rng.random() < 0.5)
                 for _ in range(rng.randrange(1, max_len + 1)))
    return GenExpr({word: Fraction(rng.choice([-2, -1, 1, 2]))})


def test_evaluate_is_multiplicative_and_star_equivariant(wmax22):
    names = ["v", "e1.1", "e1.2", "e2.1", "e2.2"]
    for gmap in (phi_vw(wmax22), phi1(wmax22)):
        rng = random.Random(11)
        for _ in range(60):
            a = rand_expr(names, rng)
            b = rand_expr(names, rng)
            assert evaluate(a * b, gmap) == \
                nf(evaluate(a, gmap) * evaluate(b, gmap))
            assert evaluate(a.star(), gmap) == nf(evaluate(a, gmap).star())


def test_apply_map_is_multiplicative(e23):
    gmap = phi0(e23)
    src = StarAlgebra(e23)
    rng = random.Random(3)
    words = basis_words(src, 2)
    for _ in range(40):
        a = src.element({w: Fraction(rng.choice([-1, 1, 2]))
                         for w in rng.sample(words, 2)})
        b = src.element({w: Fraction(rng.choice([-1, 1, 2]))
                         for w in rng.sample(words, 2)})
        assert apply_map(gmap, nf(a * b)) == \
            nf(apply_map(gmap, a) * apply_map(gmap, b))
        assert apply_map(gmap, nf(a.star())) == nf(apply_map(gmap, a).star())


def test_evaluate_missing_generator(wmax22):
    gmap = phi1(wmax22)
    with pytest.raises(AlgebraError, match="no image"):
        evaluate(GenExpr.gen("zz"), gmap)


def test_corrupted_image_is_caught(e23):
    gmap = phi0(e23)
    gmap.images["e1"] = gmap.target.zero()
    rep = verify(gmap, relations("separated", e23))
    assert not rep.all_zero
    assert {label for label, _ in rep.failures} == {"gg:e1.e1", "fiber:v.0"}


# --- kernel words -----------------------------------------------------------------

def test_kernel_generator_identity(e23):
    # r-word difference equals the conjugated projection commutator
    alg = StarAlgebra(e23)

    def pp(x):
        return alg.edge(x) * alg.ghost(x)

    fiber = ("e1", "e2", "e3", "f1", "f2")
    for e, f, g2, h in itertools.product(fiber, repeat=4):
        gamma = kernel_generator(e23, e, f, g2, h)
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
        assert apply_map(gmap, el).is_zero, label


def test_kernel_needs_common_source(e23):
    with pytest.raises(GraphError):
        kernel_generator(e23, "e1", "e2", "e3", "nope")


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
        once = apply_map(first, el)
        assert apply_map(second, once).is_zero, label
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


def test_ideal_kind_guards(e23):
    with pytest.raises(GraphError):
        ideal_generators("commutator", e23)
    with pytest.raises(GraphError):
        ideal_generators("mystery", e23)
    with pytest.raises(GraphError):
        ideal_generators("kernel", cons.to_separated(e23))


# --- image separation ----------------------------------------------------------------

def test_phi1_separates_short_pair_words(wmax22):
    gmap = phi1(wmax22)
    slots = ["e1.1", "e1.2", "e2.1", "e2.2"]
    seen: dict = {}
    for a in slots:
        for b in slots:
            for word in (((a, False), (b, True)), ((a, True), (b, False))):
                img = evaluate(GenExpr({word: Fraction(1)}), gmap)
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
        for label, expr in rels.relations:
            assert _in_z(expr.terms), (rels.kind, label)
            # term by term, since every relation evaluates to zero
            for word, c in expr.terms.items():
                img = evaluate(GenExpr({word: c}), gmap)
                assert _in_z(img.terms), (gmap.kind, label, word)
