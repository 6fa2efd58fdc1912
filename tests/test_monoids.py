import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sepal import constructions as cons
from sepal.graphs import GraphError, WeightedGraph, vertex_weight
from sepal.homs import phi1, slot_name
from sepal.monoids import (
    Budget,
    MonoidPresentation,
    class_order,
    congruent,
    eliminate_identifications,
    format_presentation,
    format_vector,
    grothendieck,
    leavitt_type,
    m1_of,
    monoid_of,
    order_ideal_oracle,
    order_ideals,
    parse_vector,
    quotient_presentation,
    smith_normal_form,
)
from sepal.staralg import normal_form
from sepal.sweeps import bipartite_sweep, weighted_sweep


def pres(gens, *rels):
    p = MonoidPresentation(tuple(gens), ())
    out = []
    for l, r in rels:
        out.append((p.vector(l), p.vector(r)))
    return MonoidPresentation(tuple(gens), tuple(out))


# --- presentations from graphs ---------------------------------------------------

def test_monoid_of_e23(e23):
    p = monoid_of(e23)
    assert p.generators == ("v", "w")
    assert format_presentation(p) == ["v = 3 w", "v = 2 w"]
    assert p.labels == ("fiber:v.0", "fiber:v.1")


def test_relation_count_is_group_count():
    for g in bipartite_sweep():
        p = monoid_of(g)
        assert len(p.relations) == sum(len(gs) for _, gs in g.separation)


def test_m1_of_wmax22(wmax22):
    p = m1_of(wmax22)
    assert len(p.generators) == 5
    assert format_presentation(p) == [
        "v = v(e1,1) + v(e2,1)",
        "v = v(e1,2) + v(e2,2)",
        "v = v(e1,1) + v(e1,2)",
        "v = v(e2,1) + v(e2,2)",
    ]


def test_quotient_presentation(wmax22):
    p = m1_of(wmax22)
    q = quotient_presentation(p, ["v(e1,1)"])
    assert "v(e1,1)" not in q.generators
    assert format_presentation(q)[0] == "v = v(e2,1)"
    with pytest.raises(GraphError):
        quotient_presentation(p, ["nope"])


def test_eliminate_identifications(omega0_35):
    slim = eliminate_identifications(m1_of(omega0_35))
    assert slim.generators == ("v", "v(e1,1)")
    assert format_presentation(slim) == [
        "v = 4 v + v(e1,1)",
        "v = 2 v + v(e1,1)",
    ]


def test_eliminate_drops_trivial_relations():
    p = pres(["a", "b"], ({"a": 1}, {"a": 1}), ({"b": 1}, {"a": 2}))
    slim = eliminate_identifications(p)
    assert slim.generators == ("a",)
    assert slim.relations == ()


def eliminate_by_cases(p: MonoidPresentation) -> MonoidPresentation:
    """The Tietze reduction as first written, one case per kind of relation
    (kept as the reference for ``eliminate_identifications``): while some
    relation equates a generator with a vector not using it, substitute and
    drop the generator (the later one when two generators are equated),
    keeping the presented monoid."""
    gens = list(p.generators)
    rels = [(list(l), list(r)) for l, r in p.relations]
    labels = list(p.labels)

    def unit_index(vec: list[int]) -> int | None:
        if sum(vec) == 1:
            return vec.index(1)
        return None

    while True:
        # keep low-index (original) generators alive: of all possible
        # eliminations this pass, take the one removing the largest index
        victim = None
        for k, (l, r) in enumerate(rels):
            il, ir = unit_index(l), unit_index(r)
            if il is not None and ir is not None:
                if il == ir:
                    victim = (len(gens), k, None, None)  # trivial relation
                    break
                i = max(il, ir)
                repl = l if i == ir else r
                cand = (i, k, i, list(repl))
            elif il is not None and r[il] == 0:
                cand = (il, k, il, list(r))
            elif ir is not None and l[ir] == 0:
                cand = (ir, k, ir, list(l))
            else:
                continue
            if victim is None or cand[0] > victim[0]:
                victim = cand
        if victim is None:
            break
        _, k, i, repl = victim
        del rels[k], labels[k]
        if i is None:
            continue
        del gens[i]
        repl_rest = repl[:i] + repl[i + 1:]
        for l, r in rels:
            for vec in (l, r):
                c = vec[i]
                del vec[i]
                if c:
                    for j, x in enumerate(repl_rest):
                        vec[j] += c * x
    out_rels = []
    out_labels = []
    for (l, r), lab in zip(rels, labels):
        if l != r:
            out_rels.append((tuple(l), tuple(r)))
            out_labels.append(lab)
    return MonoidPresentation(tuple(gens), tuple(out_rels),
                              tuple(out_labels))


@st.composite
def unit_heavy_presentations(draw):
    """At most 6 generators and 6 relations with entries 0-2; a side is a
    unit vector half the time and some relations are trivial."""
    n = draw(st.integers(1, 6))
    side = st.one_of(
        st.integers(0, n - 1).map(lambda i: tuple(int(j == i)
                                                  for j in range(n))),
        st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple))
    rel = st.one_of(st.tuples(side, side), side.map(lambda v: (v, v)))
    rels = draw(st.lists(rel, max_size=6))
    return MonoidPresentation(tuple(f"g{i}" for i in range(n)), tuple(rels))


def _same_reduction(p):
    got, want = eliminate_identifications(p), eliminate_by_cases(p)
    assert (got.generators, got.relations, got.labels) == (
        want.generators, want.relations, want.labels)


@settings(max_examples=300, deadline=None)
@given(unit_heavy_presentations())
def test_eliminate_matches_the_case_by_case_reduction(p):
    _same_reduction(p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(weighted_sweep(2, 3, 2)))
def test_eliminate_matches_the_case_by_case_reduction_on_companions(g):
    _same_reduction(m1_of(g))


MISLABELED = (("a", "b", "c"), (((1, 0, 0), (0, 1, 0)),
                                ((0, 1, 0), (0, 0, 2))), ("only",))
SHORT_SIDE = (("a", "b"), (((1,), (0, 1)),))
NEGATIVE = (("a", "b"), (((2, -1), (0, 0)),))


@pytest.mark.parametrize("fields, use, message", [
    (MISLABELED, lambda p: quotient_presentation(p, []),
     "1 labels for 2 relations"),
    (MISLABELED, eliminate_identifications, "1 labels for 2 relations"),
    (SHORT_SIDE, grothendieck, "relation sides must have 2 entries"),
    (SHORT_SIDE, lambda p: congruent(p, (1, 0), (0, 1)),
     "relation sides must have 2 entries"),
    (NEGATIVE, eliminate_identifications,
     "relation entries must be nonnegative"),
    (NEGATIVE, lambda p: congruent(p, (2, 0), (0, 1)),
     "relation entries must be nonnegative"),
], ids=["labels-quotient", "labels-eliminate", "short-grothendieck",
        "short-congruent", "negative-eliminate", "negative-congruent"])
def test_presentation_refuses_a_misshapen_relation_list(fields, use, message):
    # without the check the quotient dropped the unlabeled relation (Z for
    # Z x Z), the reduction and G(M) raised IndexError, and the word
    # problem answered yes through the vector (0,); a negative entry made
    # the reduction raise a bare ValueError, and 2a ~ b answered yes
    with pytest.raises(GraphError) as exc:
        use(MonoidPresentation(*fields))
    assert str(exc.value) == message


# --- vectors ----------------------------------------------------------------------

def test_vector_round_trip(wmax22):
    p = m1_of(wmax22)
    vec = p.vector({"v": 2, "v(e1,1)": 1})
    assert parse_vector(format_vector(p, vec), p) == vec
    zero = tuple(0 for _ in p.generators)
    assert parse_vector("0", p) == zero
    assert format_vector(p, zero) == "0"


def test_parse_vector_errors(e23):
    p = monoid_of(e23)
    with pytest.raises(GraphError, match="unknown generator"):
        parse_vector("q", p)
    with pytest.raises(GraphError, match="bad coefficient"):
        parse_vector("x v", p)
    with pytest.raises(GraphError, match="nonnegative"):
        parse_vector("-1 v", p)


# --- word problem ------------------------------------------------------------------

def test_congruent_basic():
    p = pres(["a"], ({"a": 1}, {"a": 2}))
    assert congruent(p, p.unit("a"), p.unit("a", 3)).answer == "yes"
    assert congruent(p, p.unit("a"), p.vector({})).answer == "no"
    assert congruent(p, p.unit("a"), p.unit("a")).answer == "yes"


def test_congruent_chain_replays():
    p = pres(["a", "b"], ({"a": 1}, {"b": 2}), ({"b": 3}, {"a": 1, "b": 1}))
    x, y = p.unit("a"), p.unit("a", 2)
    ans = congruent(p, x, y, Budget(coord_sum=12, states=10 ** 5))
    if ans.answer == "yes":
        path = ans.path
        assert path[0] == x and path[-1] == y
        moves = [(l, r) for l, r in p.relations]
        moves += [(r, l) for l, r in p.relations]
        for v, w in zip(path, path[1:]):
            assert any(
                all(a >= b for a, b in zip(v, l))
                and w == tuple(a - b + c for a, b, c in zip(v, l, r))
                for l, r in moves), (v, w)


def test_congruent_symmetry_and_transitivity():
    p = pres(["a"], ({"a": 2}, {"a": 5}))
    b = Budget(coord_sum=24, states=10 ** 5)
    pairs = [(2, 5), (5, 8), (2, 8)]
    for m, n in pairs:
        fwd = congruent(p, p.unit("a", m), p.unit("a", n), b)
        bwd = congruent(p, p.unit("a", n), p.unit("a", m), b)
        assert fwd.answer == bwd.answer == "yes"
    assert congruent(p, p.unit("a", 1), p.unit("a", 4), b).answer == "no"


def test_congruent_budget_and_guards():
    p = pres(["a"], ({"a": 1}, {"a": 2}))
    tiny = congruent(p, p.unit("a"), p.unit("a", 9), Budget(states=1))
    assert tiny.answer == "unknown"
    with pytest.raises(GraphError):
        congruent(p, (1, 0), p.unit("a"))


def test_congruent_rejects_negative_vectors():
    # -a is not in the monoid, so there is no word problem to answer
    p = pres(["a"], ({"a": 1}, {"a": 2}))
    for x, y in [((-1,), (0,)), ((0,), (-1,)), ((-1,), (-1,))]:
        with pytest.raises(GraphError, match="nonnegative"):
            congruent(p, x, y)


@pytest.mark.parametrize("field", ["coord_sum", "states"])
@pytest.mark.parametrize("value", [2.5, 3.0, "4", None])
def test_budget_fields_are_integers(field, value):
    with pytest.raises(GraphError, match=f"budget {field} must be an integer"):
        Budget(**{field: value})


# --- abelianization ------------------------------------------------------------------

def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 4], [6, 8]], 2) == [2, 4]
    assert smith_normal_form([], 3) == []
    assert smith_normal_form([[0, 0]], 2) == []
    assert smith_normal_form([[1, 0], [0, 1]], 2) == [1, 1]
    with pytest.raises(GraphError):
        smith_normal_form([[1, 2], [3]], 2)


def _minor_gcd(rows, width, k):
    g = 0
    for ri in itertools.combinations(range(len(rows)), k):
        for ci in itertools.combinations(range(width), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = math.gcd(g, _det(sub))
    return g


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j]
               * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(n))


dense_matrices = st.integers(1, 5).flatmap(lambda width: st.tuples(
    st.lists(st.lists(st.integers(-30, 30), min_size=width, max_size=width),
             min_size=1, max_size=5),
    st.just(width)))


@settings(max_examples=80, deadline=None)
@given(dense_matrices)
def test_smith_diagonal_matches_minor_gcds(matrix):
    rows, width = matrix
    diag = smith_normal_form(rows, width)
    for d1, d2 in zip(diag, diag[1:]):
        assert d2 % d1 == 0
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert prod == _minor_gcd(rows, width, k)
    if len(diag) < min(len(rows), width):
        assert _minor_gcd(rows, width, len(diag) + 1) == 0


# dense matrices whose entries grow past 90 digits under a pivot rule that
# does not restart on the least entry, so that the Smith loop never ends
DENSE_5X5 = [[25, 15, -26, -9, -30], [-15, -30, -4, -14, -18],
             [2, -24, -19, 6, -20], [-17, -12, 20, 8, -22],
             [-25, -7, 11, 29, -11]]
DENSE_6X8 = [[2, -13, 27, -28, 25, -29, -7, -1],
             [29, -10, 28, -6, -3, 27, 26, 3],
             [-20, 5, -19, -15, -16, -29, -19, -10],
             [-19, -22, 2, 2, -7, 2, 13, 5],
             [-19, 27, -2, 20, -4, 17, 3, 28],
             [28, 18, -7, 20, 7, -8, -7, 24]]


def test_smith_normal_form_of_dense_matrices():
    assert smith_normal_form(DENSE_5X5, 5) == [1, 1, 1, 1, 20152068]
    assert smith_normal_form(DENSE_6X8, 8) == [1, 1, 1, 1, 1, 3]
    p = MonoidPresentation(tuple("abcde"), tuple(
        (tuple(max(x, 0) for x in row), tuple(max(-x, 0) for x in row))
        for row in DENSE_5X5))
    assert str(grothendieck(p)) == "Z/20152068"


def test_grothendieck_examples(e23, omega0_35):
    assert str(grothendieck(monoid_of(e23))) == "0"
    assert str(grothendieck(m1_of(omega0_35))) == "Z/2"
    free = MonoidPresentation(("a",), ())
    assert str(grothendieck(free)) == "Z"
    two = pres(["a", "b"], ({"a": 2}, {"a": 0}))
    assert grothendieck(two).rank == 1
    assert grothendieck(two).torsion == (2,)


def test_grothendieck_invariance(omega0_35):
    p = m1_of(omega0_35)
    rng = random.Random(1)
    order = list(range(len(p.relations)))
    rng.shuffle(order)
    shuffled = MonoidPresentation(
        p.generators, tuple(p.relations[i] for i in order))
    assert grothendieck(shuffled) == grothendieck(p)
    renamed = MonoidPresentation(
        tuple(f"g{i}" for i in range(len(p.generators))), p.relations)
    assert grothendieck(renamed) == grothendieck(p)


# --- class order -------------------------------------------------------------------------

def _minor_rank(rows, width):
    return max((k for k in range(1, min(len(rows), width) + 1)
                if _minor_gcd(rows, width, k)), default=0)


def order_by_minors(p, gen):
    """ord([gen]) in G = Z^n / <rows> from determinantal divisors: appending
    the row e_gen presents G/<[gen]>; the class has infinite order when that
    raises the rank r, and otherwise ord = D_r(A) / D_r(A with e_gen)."""
    n = len(p.generators)
    rows = [[a - b for a, b in zip(l, r)] for l, r in p.relations]
    cut = rows + [list(p.unit(gen))]
    r = _minor_rank(rows, n)
    if _minor_rank(cut, n) > r:
        return None
    return _minor_gcd(rows, n, r) // _minor_gcd(cut, n, r)


small_vectors = st.lists(st.integers(0, 3), min_size=3, max_size=3).map(tuple)
small_presentations = st.lists(
    st.tuples(small_vectors, small_vectors), max_size=3).map(
        lambda rels: MonoidPresentation(("a", "b", "c"), tuple(rels)))


@settings(max_examples=80, deadline=None)
@given(small_presentations, st.sampled_from("abc"))
def test_class_order_matches_minor_gcds(p, gen):
    assert class_order(p, gen) == order_by_minors(p, gen)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(weighted_sweep(2, 3, 2)), st.data())
def test_class_order_matches_minor_gcds_on_companions(g, data):
    slim = eliminate_identifications(m1_of(g))
    gen = data.draw(st.sampled_from(slim.generators))
    assert class_order(slim, gen) == order_by_minors(slim, gen)


def test_class_order_examples(omega0_35):
    assert class_order(eliminate_identifications(m1_of(omega0_35)), "v") == 2
    assert class_order(MonoidPresentation(("a",), ()), "a") is None
    two = pres(["a", "b"], ({"a": 2}, {}), ({"b": 3}, {"a": 1}))
    assert str(grothendieck(two)) == "Z/6"
    assert (class_order(two, "a"), class_order(two, "b")) == (2, 6)
    with pytest.raises(GraphError, match="unknown generator"):
        class_order(two, "c")


# --- module type ------------------------------------------------------------------------

def leavitt_type_by_full_scan(p, gen, budget):
    """The unpruned scan: one word problem for every pair with p + q at
    most the coordinate budget, in order of p, then q, up to the first yes.
    Returns the answer, the pair and every (p, q, answer) scanned."""
    scanned = []
    for p_ in range(1, budget.coord_sum):
        for q_ in range(1, budget.coord_sum - p_ + 1):
            ans = congruent(p, p.unit(gen, p_), p.unit(gen, p_ + q_), budget)
            scanned.append((p_, q_, ans.answer))
            if ans.answer == "yes":
                return ("yes", p_, q_), scanned
    return ("unknown", None, None), scanned


def _check_against_full_scan(p, gen, budget):
    want, scanned = leavitt_type_by_full_scan(p, gen, budget)
    got = leavitt_type(p, gen, budget)
    assert (got.answer, got.p, got.q) == want
    assert got.order == class_order(p, gen)
    if got.order is None:
        assert got.scanned == 0 and not got.least
        return
    kept = [ans for _, q_, ans in scanned if q_ % got.order == 0]
    assert got.scanned == len(kept)
    assert got.least == (got.answer == "yes"
                         and all(ans == "no" for ans in kept[:-1]))


@settings(max_examples=80, deadline=None)
@given(small_presentations, st.sampled_from("abc"), st.integers(2, 8))
def test_leavitt_type_matches_full_scan(p, gen, coord_sum):
    _check_against_full_scan(p, gen, Budget(coord_sum=coord_sum, states=500))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(weighted_sweep(2, 3, 2)), st.data())
def test_leavitt_type_matches_full_scan_on_companions(g, data):
    p = m1_of(g)
    gen = data.draw(st.sampled_from(p.generators))
    _check_against_full_scan(p, gen, Budget(coord_sum=7, states=2000))


def test_leavitt_type_of_single_relation_monoids():
    for n in range(2, 7):
        p = pres(["a"], ({"a": 1}, {"a": n}))
        ans = leavitt_type(p, "a")
        assert (ans.answer, ans.p, ans.q) == ("yes", 1, n - 1)
        assert (ans.order, ans.least, ans.scanned) == (n - 1, True, 1)


def test_leavitt_type_unknown_for_free_monoid():
    free = MonoidPresentation(("a",), ())
    ans = leavitt_type(free, "a", Budget(coord_sum=8, states=1000))
    assert ans.answer == "unknown"
    assert (ans.order, ans.least, ans.scanned) == (None, False, 0)


def test_leavitt_type_least_only_after_certified_noes():
    # a = 2a + b, b = 2b: [a] = -[b] and [b] = 0, so every q is tried; the
    # pair (1, 1) is the first yes, and nothing is scanned before it
    p = pres(["a", "b"], ({"a": 1}, {"a": 2, "b": 1}), ({"b": 1}, {"b": 2}))
    ans = leavitt_type(p, "a", Budget(coord_sum=6, states=2000))
    assert ans.order == 1
    assert (ans.answer, ans.p, ans.q, ans.least) == ("yes", 1, 1, True)
    # 0 = b grows every class past the coordinate cap, so no pair with
    # p = 1 is settled; (2, 1) comes back yes but is not certified least
    p = pres(["a", "b"], ({}, {"b": 1}), ({"a": 2}, {"a": 3}))
    ans = leavitt_type(p, "a", Budget(coord_sum=8, states=300))
    assert ans.order == 1
    assert (ans.answer, ans.p, ans.q, ans.least) == ("yes", 2, 1, False)
    assert ans.scanned == 8


def test_omega0_family_values(omega0_35):
    slim = eliminate_identifications(m1_of(omega0_35))
    assert str(grothendieck(slim)) == "Z/2"
    ans = leavitt_type(slim, "v")
    assert (ans.p, ans.q) == (1, 2)
    assert (ans.order, ans.least) == (2, True)


# --- order ideals -------------------------------------------------------------------------

def test_order_ideal_oracle_frozen(e23):
    assert order_ideal_oracle(monoid_of(e23)) == \
        [frozenset(), frozenset({"v", "w"})]


def test_order_ideals_match_oracle_on_bipartite_sweep():
    for g in bipartite_sweep():
        got = [e.vertices for e in order_ideals(g)]
        assert got == order_ideal_oracle(monoid_of(g))


def test_order_ideals_match_oracle_on_weighted(wmax22, omega0_35):
    for g in (wmax22, omega0_35):
        got = [e.vertices for e in order_ideals(g)]
        assert got == order_ideal_oracle(m1_of(g))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(weighted_sweep(2, 3, 2) + bipartite_sweep()))
def test_order_ideals_run_from_nothing_to_everything(g):
    # no group is empty, so the empty set is saturated; example 5.9 reads
    # the proper nonzero ideals off the ends of the list
    ideals = order_ideals(g)
    if isinstance(g, WeightedGraph):
        g = cons.separated_of_weighted(g)
    assert ideals[0].vertices == frozenset()
    assert ideals[-1].vertices == frozenset(g.vertices)
    assert all(0 < len(e.vertices) < len(g.vertices) for e in ideals[1:-1])


def test_omega0_ideals(omega0_35):
    entries = order_ideals(omega0_35)
    assert len(entries) == 3
    assert entries[0].vertices == frozenset()
    assert entries[1].vertices == frozenset({"v(e1,1)"})
    assert sorted(entries[1].vertices) == ["v(e1,1)"]


def ideals_by_box_scan(p, extra=0):
    """Subsets S of generators such that no rewrite takes a vector supported
    in S outside S; every vector supported in S with coordinate sum at most
    the largest relation side plus ``extra`` is tried with every move."""
    k = len(p.generators)
    cap = extra + max((max(sum(l), sum(r)) for l, r in p.relations),
                      default=1)
    moves = [m for l, r in p.relations for m in ((l, r), (r, l))]
    out = []
    for bits in itertools.product((0, 1), repeat=k):
        s = [i for i, b in enumerate(bits) if b]
        ok = True
        for counts in itertools.product(range(cap + 1), repeat=len(s)):
            if sum(counts) > cap:
                continue
            v = [0] * k
            for i, c in zip(s, counts):
                v[i] = c
            for l, r in moves:
                if all(a >= b for a, b in zip(v, l)) and any(
                        v[i] - l[i] + r[i] for i in range(k) if not bits[i]):
                    ok = False
            if not ok:
                break
        if ok:
            out.append(frozenset(p.generators[i] for i in s))
    return sorted(out, key=lambda h: (len(h), tuple(sorted(h))))


def ideals_by_subset_filter(p):
    """Every one of the 2^k generator subsets S, kept when supp(l) ⊆ S
    exactly when supp(r) ⊆ S for every relation l = r."""
    k = len(p.generators)
    supports = [(frozenset(i for i, c in enumerate(l) if c),
                 frozenset(i for i, c in enumerate(r) if c))
                for l, r in p.relations]
    out = []
    for bits in itertools.product((0, 1), repeat=k):
        s = frozenset(i for i, b in enumerate(bits) if b)
        if all((sl <= s) == (sr <= s) for sl, sr in supports):
            out.append(frozenset(p.generators[i] for i in s))
    return sorted(out, key=lambda h: (len(h), tuple(sorted(h))))


def ideals_by_next_closure(p, both_ways=True, lectic=True):
    """NextClosure as in ``order_ideal_oracle``, with switches that drop
    the supp(r) -> supp(l) rules or the lectic check, for the mutant test."""
    k = len(p.generators)
    rules = [(sum(1 << i for i, c in enumerate(l) if c),
              sum(1 << i for i, c in enumerate(r) if c))
             for l, r in p.relations]
    if both_ways:
        rules += [(b, a) for a, b in rules]

    def close(s):
        grown = True
        while grown:
            grown = False
            for a, b in rules:
                if s & a == a and s | b != s:
                    s |= b
                    grown = True
        return s

    found = [close(0)]
    while found[-1] != (1 << k) - 1:
        closed = found[-1]
        for i in reversed(range(k)):
            bit = 1 << i
            if not closed & bit:
                low = closed & (bit - 1)
                nxt = close(low | bit)
                if not lectic or nxt & (bit - 1) == low:
                    break
        found.append(nxt)
    out = [frozenset(g for i, g in enumerate(p.generators) if s >> i & 1)
           for s in found]
    return sorted(out, key=lambda h: (len(h), tuple(sorted(h))))


def test_oracle_tells_the_next_closure_mutants_apart():
    # c = a + b: the ideals are {}, {a}, {b} and {a, b, c}.  One-way rules
    # also admit {a, b}; without the lectic check the walk jumps from {}
    # to the closure of {c}, which is everything
    p = pres("abc", ({"c": 1}, {"a": 1, "b": 1}))
    want = [frozenset(), frozenset("a"), frozenset("b"), frozenset("abc")]
    assert order_ideal_oracle(p) == ideals_by_next_closure(p) == want
    assert ideals_by_next_closure(p, both_ways=False) == \
        want[:3] + [frozenset("ab"), frozenset("abc")]
    assert ideals_by_next_closure(p, lectic=False) == [frozenset(),
                                                       frozenset("abc")]


@st.composite
def ideal_presentations(draw):
    """1-8 generators and at most 6 relations with entries 0-2; a side is
    often zero, and half the right sides take in the left side's support."""
    n = draw(st.integers(1, 8))
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    side = st.one_of(st.just((0,) * n), vec, vec)
    rels = []
    for _ in range(draw(st.integers(0, 6))):
        l, r = draw(side), draw(side)
        if draw(st.booleans()):
            r = tuple(max(a, b) for a, b in zip(l, r))
        rels.append((l, r))
    return MonoidPresentation(tuple(f"g{i}" for i in range(n)), tuple(rels))


@settings(max_examples=300, deadline=None)
@given(ideal_presentations())
def test_order_ideal_oracle_matches_subset_filter(p):
    assert order_ideal_oracle(p) == ideals_by_subset_filter(p)


@functools.cache
def _by_companion_size() -> dict[int, list]:
    """weighted_sweep(3, 4, 3) keyed by the generator count of ``m1_of``:
    one per vertex plus one per weight slot."""
    pools: dict[int, list] = {}
    for g in weighted_sweep(3, 4, 3):
        pools.setdefault(len(g.vertices) + sum(g.w.values()), []).append(g)
    return pools


# sizes first, so the few small companions are drawn as often as the many
# large ones
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12).flatmap(
    lambda size: st.sampled_from(_by_companion_size()[size])))
def test_order_ideal_oracle_matches_subset_filter_on_companions(g):
    p = m1_of(g)
    assert order_ideal_oracle(p) == ideals_by_subset_filter(p)


vectors = st.lists(st.integers(0, 2), min_size=4, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(vectors, vectors), max_size=4), st.integers(0, 2))
def test_order_ideal_oracle_matches_box_scan(rels, extra):
    p = MonoidPresentation(("a", "b", "c", "d"), tuple(rels))
    assert order_ideal_oracle(p) == ideals_by_box_scan(p, extra)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(weighted_sweep(2, 3, 2)))
def test_order_ideal_oracle_matches_box_scan_on_companions(g):
    p = m1_of(g)
    assert order_ideal_oracle(p) == ideals_by_box_scan(p)


def test_oracle_guard():
    big = MonoidPresentation(tuple(f"g{i}" for i in range(17)), ())
    with pytest.raises(cons.ResourceLimitError):
        order_ideal_oracle(big)


def test_oracle_refusal_counts_the_sets_found():
    big = MonoidPresentation(tuple(f"g{i}" for i in range(17)), ())
    with pytest.raises(cons.ResourceLimitError) as info:
        order_ideal_oracle(big)
    assert str(info.value) == "oracle refused after 65537 order ideals"


def test_oracle_answers_a_long_chain():
    # g0 = g1 = ... = g29: thirty generators, but only two ideals
    gens = [f"g{i}" for i in range(30)]
    chain = pres(gens, *(({a: 1}, {b: 1}) for a, b in zip(gens, gens[1:])))
    assert order_ideal_oracle(chain) == [frozenset(), frozenset(gens)]


def test_oracle_never_reads_the_graph_side(monkeypatch):
    # the benchmark checks order_ideals (enumerate_hsat) against the oracle,
    # which means something only while the oracle reads the presentation
    graphs = weighted_sweep(2, 3, 2)[::40]
    cases = [(m1_of(g), [e.vertices for e in order_ideals(g)])
             for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read the graph side")

    for name in ("enumerate_hsat", "hsat_closure", "is_hsat"):
        monkeypatch.setattr(cons, name, refuse)
    for p, want in cases:
        assert order_ideal_oracle(p) == want


# --- idempotent realizations -----------------------------------------------------------------

def gamma_images(g):
    """Idempotent realizations of the monoid generators of ``m1_of``, and
    the labeled checks on them.

    The class of a slot generator v(e,i) is represented on the source side
    by the range projection of the mapped generator and on the range side
    by its support projection; every defining monoid relation is checked
    as an orthogonal decomposition of the vertex idempotent (summands
    multiply pairwise to zero and add up to the vertex).
    """
    gmap = phi1(g)
    alg = gmap.target
    d = g.graph
    images = {v: alg.vertex(v) for v in d.vertices}
    source_side, range_side = {}, {}
    checks = []
    for e, _, _ in d.edges:
        for i in range(1, g.w[e] + 1):
            x = gmap.images[slot_name(e, i)]
            p = normal_form(x * x.star())
            q = normal_form(x.star() * x)
            source_side[e, i], range_side[e, i] = p, q
            images[cons.name_slot_vertex(e, i)] = p
            checks.append((f"idem:{cons.name_slot_vertex(e, i)}",
                           normal_form(p * p - p).is_zero
                           and normal_form(q * q - q).is_zero))

    def decomposition(label, parts, whole):
        total = alg.zero()
        for a in parts:
            total = total + a
        checks.append((label, normal_form(total - whole).is_zero and all(
            normal_form(a * b).is_zero
            for a, b in itertools.combinations(parts, 2))))

    for v in d.vertices:
        fiber = d.out_edges.get(v, ())
        for i in range(1, vertex_weight(g, v) + 1):
            parts = [source_side[e, i] for e in fiber if g.w[e] >= i]
            decomposition(f"slots:{v}.{i}", parts, images[v])
    for e, _, rng in d.edges:
        parts = [range_side[e, i] for i in range(1, g.w[e] + 1)]
        decomposition(f"edge:{e}", parts, images[rng])
    return images, checks


def test_gamma_images(wmax22):
    images, checks = gamma_images(wmax22)
    assert all(ok for _, ok in checks)
    labels = [l for l, _ in checks]
    assert "idem:v(e1,1)" in labels
    assert "slots:v.1" in labels and "slots:v.2" in labels
    assert "edge:e1" in labels and "edge:e2" in labels
    assert set(images) == {
        "v", "v(e1,1)", "v(e1,2)", "v(e2,1)", "v(e2,2)"}


def test_gamma_images_uneven(omega0_35):
    images, checks = gamma_images(omega0_35)
    assert all(ok for _, ok in checks)
    assert len(images) == 8
