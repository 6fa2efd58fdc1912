"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N (...): PASS`` or ``... FAIL`` line
(visible with ``pytest -s`` or ``-rA``) and fails loudly on any violation.
Everything here is exact arithmetic; no tolerances.
"""

import io
import itertools
import json
import math
import random
import time

from sepal import constructions as cons
from sepal import mnlab, monoids
from sepal.cli import main as cli_main
from sepal.graphs import is_vertex_weighted
from sepal.graphio import parse_graph, print_graph
from sepal.homs import (
    apply_map,
    kernel_generator,
    phi0,
    phi1,
    phi_vw,
    relations,
    rho_tau,
    verify,
)
from sepal.staralg import StarAlgebra, basis_words, normal_form
from sepal.sweeps import bipartite_sweep, weighted_sweep
from test_staralg import nf_oracle


def report(number: int, name: str, problems: list, detail: str) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number} ({name}): {status} — {detail}")
    assert not problems, problems[:5]


def test_criterion_1_relation_kill():
    t0 = time.time()
    problems = []
    checked = 0
    for g in weighted_sweep():
        if is_vertex_weighted(g):
            rep = verify(phi_vw(g), relations("weighted", g))
            checked += rep.checked
            problems += [("phi", label) for label, _ in rep.failures]
        rep = verify(phi1(g), relations("weighted-l1", g))
        checked += rep.checked
        problems += [("phi1", label) for label, _ in rep.failures]
    for g in bipartite_sweep():
        rep = verify(phi0(g), relations("separated", g.base))
        checked += rep.checked
        problems += [("phi0", label) for label, _ in rep.failures]
        gmap = rho_tau(g)
        for kind in ("lv", "lw"):
            rep = verify(gmap, relations(kind, g))
            checked += rep.checked
            problems += [("rho-tau", kind, label)
                         for label, _ in rep.failures]
    report(1, "relation kill", problems,
           f"{checked} relation images, {time.time() - t0:.1f}s")


def test_criterion_2_kernel_words():
    problems = []
    total = 0
    for m, n in [(2, 3), (3, 3)]:
        g = cons.build_emn(m, n)
        gmap = phi0(g)
        rmap = rho_tau(g)
        alg = rmap.target

        def proj(x):
            return alg.edge(x) * alg.ghost(x)

        fiber = g.base.graph.out_edges["v"]
        for e, f, g2, h in itertools.product(fiber, repeat=4):
            total += 1
            gamma = kernel_generator(g, e, f, g2, h)
            comm = proj(f) * proj(g2) - proj(g2) * proj(f)
            want = normal_form(alg.ghost(e) * comm * alg.edge(h))
            if gamma != want:
                problems.append(("identity", m, n, e, f, g2, h))
            if not apply_map(gmap, gamma).is_zero:
                problems.append(("image", m, n, e, f, g2, h))
    report(2, "kernel words", problems, f"{total} quadruples")


def test_criterion_3_normal_form_engine():
    t0 = time.time()
    problems = []
    alg = StarAlgebra(cons.build_emn(2, 3))
    words = basis_words(alg, 6)
    rng = random.Random(2024)
    for k in range(1000):
        a = alg.element({rng.choice(words): 1})
        b = alg.element({rng.choice(words): 1})
        c = alg.element({rng.choice(words): 1})
        x = a * b
        left = normal_form(x)
        rand = nf_oracle(x, random.Random(rng.random()))
        if left != rand:
            problems.append(("confluence", k))
        if normal_form(left) != left:
            problems.append(("idempotence", k))
        if normal_form(x.star().star()) != left:
            problems.append(("involution", k))
        if normal_form(x.star()) != normal_form(b.star() * a.star()):
            problems.append(("antihomomorphism", k))
        if normal_form((a * b) * c) != normal_form(a * (b * c)):
            problems.append(("associativity", k))
    elapsed = time.time() - t0
    if elapsed >= 60:
        problems.append(("too slow", elapsed))
    report(3, "normal-form engine", problems,
           f"1000 products over {len(words)} basis words, {elapsed:.1f}s")


def test_criterion_4_resolution_combinatorics():
    problems = []
    for g in bipartite_sweep():
        res = cons.one_step_resolution(g)
        expected = sum(
            math.prod(len(grp) for grp in g.sep[u]) for u in g.upper)
        if len(res.lower) != expected:
            problems.append(("count", expected, len(res.lower)))
    e23 = cons.build_emn(2, 3)
    res = cons.one_step_resolution(e23)
    if len(res.lower) != 6:
        problems.append(("e23 lower", len(res.lower)))
    if len(res.edges) != 12:
        problems.append(("e23 edges", len(res.edges)))
    sizes = sorted(len(grp) for grp in res.sep["w"])
    if sizes != [2, 2, 2, 3, 3]:
        problems.append(("e23 groups", sizes))
    report(4, "resolution combinatorics", problems,
           f"{len(bipartite_sweep())} graphs")


def test_criterion_5_minimal_partition_family():
    t0 = time.time()
    problems = []

    def group_name(k: int) -> str:
        return "0" if k == 1 else f"Z/{k}"

    for m in range(3, 7):
        for n in range(m + 1, 7):
            g = mnlab.partition_to_weighted(mnlab.minimal_partition(m, n))
            pres = monoids.m1_of(g)
            slim = monoids.eliminate_identifications(pres)
            shape = monoids.grothendieck(pres)
            if str(shape) != group_name(n - m):
                problems.append((m, n, "group", str(shape)))
            ans = monoids.leavitt_type(slim, "v")
            if (ans.p, ans.q) != (1, n - m):
                problems.append((m, n, "type", ans.p, ans.q))
            ideals = monoids.order_ideals(g)
            everything = frozenset(cons.separated_of_weighted(g).vertices)
            proper = [e for e in ideals
                      if e.vertices and e.vertices != everything]
            if len(proper) != 1:
                problems.append((m, n, "ideals", len(ideals)))
                continue
            q = monoids.quotient_presentation(pres, proper[0].vertices)
            qshape = monoids.grothendieck(q)
            d = math.gcd(m - 2, n - 2)
            if str(qshape) != group_name(d):
                problems.append((m, n, "quotient group", str(qshape)))
            qans = monoids.leavitt_type(
                monoids.eliminate_identifications(q), "v")
            if (qans.p, qans.q) != (1, d):
                problems.append((m, n, "quotient type", qans.p, qans.q))
    report(5, "minimal partition family", problems,
           f"6 pairs, {time.time() - t0:.1f}s")


def test_criterion_6_lattice_isomorphism():
    t0 = time.time()
    problems = []
    for g in bipartite_sweep():
        got = [e.vertices for e in monoids.order_ideals(g)]
        if got != monoids.order_ideal_oracle(monoids.monoid_of(g)):
            problems.append(("bipartite", len(got)))
    for g in weighted_sweep():
        got = [e.vertices for e in monoids.order_ideals(g)]
        if got != monoids.order_ideal_oracle(monoids.m1_of(g)):
            problems.append(("weighted", len(got)))
    full = mnlab.partition_to_weighted(mnlab.maximal_partition(2, 2))
    if len(monoids.order_ideals(full)) != 8:
        problems.append(("wmax22 ideals", len(monoids.order_ideals(full))))
    if len(mnlab.ideal_matrices(2, 2)) != 7:
        problems.append(("matrices", len(mnlab.ideal_matrices(2, 2))))
    if len(mnlab.minimal_configurations(2, 2)) != 2:
        problems.append(("min configs",
                         len(mnlab.minimal_configurations(2, 2))))
    report(6, "lattice isomorphism", problems,
           f"sweep + maximal (2,2), {time.time() - t0:.1f}s")


def test_criterion_7_quotient_consistency():
    t0 = time.time()
    problems = []
    count = 0
    for g in weighted_sweep():
        count += 1
        full = cons.weighted_completion(g)
        res = cons.one_step_resolution(cons.separated_of_vertex_weighted(full))
        q = cons.quotient_graph(res, cons.thm310_hidden_vertices(g))
        renamed = cons.rename_graph(q, cons.thm310_rename(g))
        if not cons.same_bipartite_structure(
                renamed, cons.separated_of_weighted(g)):
            problems.append(print_graph(g))
    report(7, "quotient consistency", problems,
           f"{count} weighted graphs, {time.time() - t0:.1f}s")


def test_criterion_8_corner_fullness():
    problems = []
    for g in bipartite_sweep():
        alg = StarAlgebra(g)
        d = g.base.graph
        for e, src, rng in d.edges:
            got = normal_form(alg.ghost(e) * alg.edge(e))
            if got != alg.vertex(rng):
                problems.append(("lower", e))
        for v, groups in g.separation:
            for grp in groups:
                acc = alg.zero()
                for e in grp:
                    acc = acc + alg.edge(e) * alg.ghost(e)
                if not normal_form(acc - alg.vertex(v)).is_zero:
                    problems.append(("upper", v, grp))
    report(8, "corner fullness", problems,
           f"{len(bipartite_sweep())} bipartite graphs")


def test_criterion_9_cli_determinism(fixture_dir, e23, wmax22, omega0_35):
    problems = []
    for g in (e23, wmax22, omega0_35):
        if parse_graph(print_graph(g)) != g:
            problems.append(("round trip", type(g).__name__))
    calls = [
        ("validate", "--graph", str(fixture_dir / "e23.txt")),
        ("construct", "resolve", "--graph", str(fixture_dir / "e23.txt")),
        ("nf", "--graph", str(fixture_dir / "e23.txt"), "e3 e3*"),
        ("nf", "--graph", str(fixture_dir / "wmax22.txt"), "e1.1 e1.2*"),
        ("hsat", "enumerate", "--graph", str(fixture_dir / "e23.txt")),
        ("verify", "phi0", "--graph", str(fixture_dir / "e23.txt")),
        ("monoid", "present", "--graph", str(fixture_dir / "omega0_35.txt")),
        ("mnlab", "example59", "--m", "3", "--n", "5"),
    ]
    for argv in calls:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli_main(["--json", *argv], stdout=buf)
            outs.append((code, buf.getvalue()))
        if outs[0] != outs[1]:
            problems.append(("nondeterministic", argv))
        if outs[0][0] != 0:
            problems.append(("exit", argv, outs[0][0]))
        json.loads(outs[0][1])
    report(9, "cli determinism", problems, f"{len(calls)} commands, two runs")
