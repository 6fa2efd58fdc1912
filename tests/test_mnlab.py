import inspect
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from sepal import constructions as cons
from sepal import mnlab, monoids
from sepal.graphs import GraphError
from sepal.homs import relations, verify
from sepal.mnlab import (
    MnPartition,
    example_58_map,
    example_59_report,
    generator_matrix,
    ideal_matrices,
    minimal_configurations,
    minimal_partition,
    partition_to_weighted,
    partitions,
    refinement_matrix,
    rose_graph,
    shape_matrix,
    weighted_completion_of,
)


def leq(a: MnPartition, b: MnPartition) -> bool:
    return all(x <= y for x, y in zip(a.parts, b.parts))


def meet(a: MnPartition, b: MnPartition) -> MnPartition:
    return MnPartition.make(a.m, a.n, map(min, a.parts, b.parts))


def join(a: MnPartition, b: MnPartition) -> MnPartition:
    return MnPartition.make(a.m, a.n, map(max, a.parts, b.parts))


def matrix_to_hidden(m: int, n: int, mat) -> frozenset[str]:
    """Slot vertices of the completed graph hidden by a matrix: the zeros."""
    return frozenset(cons.name_slot_vertex(f"e{j + 1}", i + 1)
                     for i in range(m) for j in range(n) if not mat[i][j])


def hidden_to_matrix(m: int, n: int, hidden):
    return tuple(
        tuple(0 if cons.name_slot_vertex(f"e{j + 1}", i + 1) in hidden else 1
              for j in range(n))
        for i in range(m))


# --- partitions ---------------------------------------------------------------

def test_partition_counts():
    assert len(partitions(3, 4)) == 10
    assert len(partitions(2, 3)) == 3
    assert [p.parts for p in partitions(2, 2)] == [(2, 2), (2, 1)]
    assert partitions(1, 5) == [MnPartition.make(1, 5, (5,))]


def partitions_by_recursion(m: int, n: int) -> list[MnPartition]:
    """Reference for ``partitions``: extend each prefix by every part from
    its last part down to 1."""
    out: list[MnPartition] = []

    def rec(acc: list[int]):
        if len(acc) == m:
            out.append(MnPartition(m, n, tuple(acc)))
            return
        for val in range(acc[-1], 0, -1):
            rec(acc + [val])

    rec([n])
    return out


def configurations_by_loop(m: int, n: int) -> list:
    """Reference for ``minimal_configurations``: sum the row and the column
    of every 1 again."""
    out = []
    for mat in ideal_matrices(m, n):
        ok = True
        for i in range(m):
            for j in range(n):
                if not mat[i][j]:
                    continue
                row = sum(mat[i])
                col = sum(mat[k][j] for k in range(m))
                if row > 1 and col > 1:
                    ok = False
        if ok:
            out.append(mat)
    return out


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_lab_lists_match_the_references(m, n):
    assert partitions(m, n) == partitions_by_recursion(m, n)
    if m * n <= 12:
        assert minimal_configurations(m, n) == configurations_by_loop(m, n)


def test_configuration_reference_catches_a_mutant():
    # every 1 alone in its row AND its column: a row of ones drops out
    source = textwrap.dedent(inspect.getsource(mnlab.minimal_configurations))
    old = "rows[i] == 1 or cols[j] == 1"
    assert source.count(old) == 1
    names = dict(vars(mnlab))
    exec(source.replace(old, "rows[i] == 1 and cols[j] == 1"), names)
    assert names["minimal_configurations"](1, 2) == []
    assert configurations_by_loop(1, 2) == [((1, 1),)]


def test_partition_make_validation():
    with pytest.raises(GraphError, match="expected 3 parts"):
        MnPartition.make(3, 4, (4, 2))
    with pytest.raises(GraphError, match="first part"):
        MnPartition.make(3, 4, (3, 2, 2))
    with pytest.raises(GraphError, match="weakly decreasing"):
        MnPartition.make(3, 4, (4, 2, 3))
    with pytest.raises(GraphError, match="positive"):
        MnPartition.make(3, 4, (4, 2, 0))
    with pytest.raises(GraphError):
        MnPartition.make(0, 4, ())


def test_extremes_and_lattice_ops():
    lo, hi = minimal_partition(3, 4), MnPartition.make(3, 4, (4, 4, 4))
    assert lo.parts == (4, 1, 1)
    a = MnPartition.make(3, 4, (4, 3, 1))
    b = MnPartition.make(3, 4, (4, 2, 2))
    assert meet(a, b).parts == (4, 2, 1)
    assert join(a, b).parts == (4, 3, 2)
    for p in partitions(3, 4):
        assert leq(lo, p) and leq(p, hi)


def test_partition_weight_dictionary():
    g = partition_to_weighted(MnPartition.make(3, 4, (4, 2, 2)))
    assert dict(g.weights) == {"e1": 3, "e2": 3, "e3": 1, "e4": 1}
    assert g.graph.vertices == ("v",)


def test_partition_round_trip():
    # part i counts the loops of weight at least i
    for m in range(1, 7):
        for n in range(m, 7):
            for p in partitions(m, n):
                weights = dict(partition_to_weighted(p).weights).values()
                assert tuple(sum(w >= i for w in weights)
                             for i in range(1, m + 1)) == p.parts


# --- matrices ------------------------------------------------------------------

def test_shape_and_generator_matrices():
    p = MnPartition.make(3, 4, (4, 2, 2))
    assert shape_matrix(p) == ((1, 1, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0))
    gm = generator_matrix(p)
    assert gm[0] == ("e1.1", "e2.1", "e3.1", "e4.1")
    assert gm[1] == ("e1.2", "e2.2", None, None)
    rm = refinement_matrix(p)
    assert rm[2][1] == "v(e2,3)"
    assert rm[1][3] is None
    # None cells agree across the three matrices
    for i in range(3):
        for j in range(4):
            assert (shape_matrix(p)[i][j] == 0) == (gm[i][j] is None)
            assert (gm[i][j] is None) == (rm[i][j] is None)


def test_row_and_column_sums_meet():
    # slot relations sum to m copies of the vertex, edge relations to n
    for m, n in [(2, 3), (3, 4)]:
        p = monoids.m1_of(weighted_completion_of(m, n))
        ans = monoids.congruent(p, p.unit("v", m), p.unit("v", n))
        assert ans.answer == "yes"


def test_ideal_matrix_counts():
    mats = ideal_matrices(2, 2)
    assert len(mats) == 7
    assert ((1, 1), (1, 1)) in mats
    assert len(ideal_matrices(2, 3)) == 25
    assert len(ideal_matrices(1, 4)) == 1
    with pytest.raises(cons.ResourceLimitError):
        ideal_matrices(5, 5)


def test_ideal_matrices_match_hsat_lattice(wmax22):
    # matrices plus the everything-ideal enumerate the whole lattice
    entries = monoids.order_ideals(wmax22)
    assert len(entries) == len(ideal_matrices(2, 2)) + 1
    hidden_sets = {matrix_to_hidden(2, 2, mat) for mat in ideal_matrices(2, 2)}
    companion = cons.separated_of_weighted(wmax22)
    everything = frozenset(companion.vertices)
    assert {e.vertices for e in entries} == hidden_sets | {everything}


def test_matrix_hidden_round_trip():
    for mat in ideal_matrices(2, 3):
        assert hidden_to_matrix(2, 3, matrix_to_hidden(2, 3, mat)) == mat


def test_minimal_configurations_22():
    mats = minimal_configurations(2, 2)
    assert len(mats) == 2
    assert ((1, 0), (0, 1)) in mats and ((0, 1), (1, 0)) in mats


def _valid(mat, m, n):
    return (all(any(mat[i][j] for j in range(n)) for i in range(m))
            and all(any(mat[i][j] for i in range(m)) for j in range(n)))


def test_minimal_configurations_are_poset_minima():
    # a matrix is minimal under entrywise order exactly when no single 1
    # can be dropped; dropping more only starves the same row or column
    for m in range(1, 5):
        for n in range(1, 5):
            mats = ideal_matrices(m, n)
            minima = set()
            for mat in mats:
                rows = [list(r) for r in mat]
                minimal = True
                for i in range(m):
                    for j in range(n):
                        if not mat[i][j]:
                            continue
                        rows[i][j] = 0
                        if _valid(rows, m, n):
                            minimal = False
                        rows[i][j] = 1
                if minimal:
                    minima.add(mat)
            assert set(minimal_configurations(m, n)) == minima


def test_partition_embedding_into_the_lattice():
    # shapes are ideal matrices; hiding their zeros reverses the order
    m, n = 3, 4
    mats = set(ideal_matrices(m, n))
    companion = cons.separated_of_weighted(weighted_completion_of(m, n))
    hide = {p: matrix_to_hidden(m, n, shape_matrix(p))
            for p in partitions(m, n)}
    for p, h in hide.items():
        assert shape_matrix(p) in mats
        rep = cons.is_hsat(companion, h)
        assert rep.hereditary and rep.saturated
    for a in partitions(m, n):
        for b in partitions(m, n):
            assert leq(a, b) == (hide[a] >= hide[b])
    a = MnPartition.make(3, 4, (4, 3, 1))
    b = MnPartition.make(3, 4, (4, 2, 2))
    assert hide[meet(a, b)] == hide[a] | hide[b]
    assert hide[join(a, b)] == hide[a] & hide[b]


# --- worked examples --------------------------------------------------------------

def test_rose_graph():
    r = rose_graph(3)
    assert len(r.graph.edges) == 3
    assert r.sep["v"] == (("x1", "x2", "x3"),)
    with pytest.raises(GraphError):
        rose_graph(0)


def test_example_58_map_kills_all_relations():
    for m, n in [(1, 1), (2, 3), (3, 5)]:
        gmap = example_58_map(m, n)
        rep = verify(gmap, relations("weighted", weighted_completion_of(m, n)))
        assert rep.all_zero, (m, n, rep.failures[:3])


def test_example_58_images():
    gmap = example_58_map(3, 5)
    alg = gmap.target
    assert gmap.images["e1.1"] == alg.vertex("v")
    assert gmap.images["e2.2"] == alg.vertex("v")
    assert gmap.images["e3.3"] == alg.edge("x1")
    assert gmap.images["e5.3"] == alg.edge("x3")
    assert gmap.images["e1.3"].is_zero
    assert gmap.images["e2.1"].is_zero
    with pytest.raises(GraphError):
        example_58_map(3, 2)


def test_example_59_values_35():
    rep = example_59_report(3, 5)
    assert rep["partition"] == [5, 1, 1]
    assert rep["weights"] == {"e1": 3, "e2": 1, "e3": 1, "e4": 1, "e5": 1}
    assert rep["monoid"]["grothendieck"] == "Z/2"
    assert rep["monoid"]["leavitt_type"] == [1, 2]
    assert rep["monoid"]["reduced_generators"] == ["v", "v(e1,1)"]
    assert rep["ideals"]["count"] == 3
    assert rep["ideals"]["proper_nonzero"] == [["v(e1,1)"]]
    assert rep["quotient"]["killed"] == ["v(e1,1)"]
    assert rep["quotient"]["grothendieck"] == "0"
    assert rep["quotient"]["leavitt_type"] == [1, 1]
    assert rep["generator_matrix"][0][0] == "0"
    assert rep["rose"]["loops"] == 3
    assert rep["rose"]["relations_hold"]


def test_example_59_values_46():
    rep = example_59_report(4, 6)
    assert rep["monoid"]["grothendieck"] == "Z/2"
    assert rep["monoid"]["leavitt_type"] == [1, 2]
    assert rep["quotient"]["grothendieck"] == "Z/2"
    assert rep["quotient"]["leavitt_type"] == [1, 2]
    assert rep["rose"]["relations_hold"]


def test_example_59_values_34():
    rep = example_59_report(3, 4)
    assert rep["monoid"]["grothendieck"] == "0"
    assert rep["monoid"]["leavitt_type"] == [1, 1]
    assert rep["quotient"]["grothendieck"] == "0"
    assert rep["quotient"]["leavitt_type"] == [1, 1]


def test_example_59_guard():
    with pytest.raises(GraphError):
        example_59_report(2, 4)
