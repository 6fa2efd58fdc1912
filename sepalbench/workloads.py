"""The benchmark's workloads.

Each workload builds its inputs from the seed (``generate``), runs one job
through the public API of ``sepal`` (``run``, the timed part) and checks
the job's output against the references in ``oracles`` (``check``, not
timed).  Jobs come in rounds of ``round_size``; a run only stops between
rounds, so every run has the same mix of job kinds.

Job inputs are built fresh for every job, so no job can profit from values
the program cached on the input objects of an earlier job.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import oracles

# One family for the theorem-checking traffic: every weighted graph with at
# most 3 vertices, 4 edges and weight 3 (38,268 graphs).
SWEEP = (3, 4, 3)

# Word-problem budget of the monoid workload, passed explicitly so the
# SEPAL_BUDGET_STATES environment variable cannot change the work done.
# A coordinate sum of 12 keeps one leavitt_type scan to 66 word problems;
# at 16 a single presentation could take over a second.
BUDGET = {"coord_sum": 12, "states": 20000}


def _fresh_weighted(S, raw):
    vertices, edges, weights = raw
    return S.graphs.WeightedGraph.make(
        S.graphs.DirectedGraph.make(vertices, edges), weights)


def _raw(g):
    return g.graph.vertices, g.graph.edges, dict(g.weights)


def _describe_weighted(g) -> str:
    w = dict(g.weights)
    return " ".join(f"{e}:{s}->{r}/{w[e]}" for e, s, r in g.graph.edges)


# Rounds of verify-small draw one graph from each of this many equal-size
# slices of the family ordered by (edges, total weight), which sets most of
# a job's cost, so runs on different seeds share one job-size mix.
VERIFY_STRATA = 8


class VerifySmall:
    """Many tiny jobs: the four generator maps of the source paper sent
    through every relation family, seeded draws from the sweep family."""

    name = "verify-small"
    round_size = VERIFY_STRATA

    def generate(self, S, seed: int):
        rng = random.Random(seed)
        family = S.sweeps.weighted_sweep(*SWEEP)
        family.sort(key=lambda g: (len(g.graph.edges),
                                   sum(w for _, w in g.weights)))
        size = len(family) // VERIFY_STRATA
        strata = [family[i * size:(i + 1) * size]
                  for i in range(VERIFY_STRATA)]
        for pool in strata:
            rng.shuffle(pool)

        def stream():
            for r in range(size):
                jobs = [pool[r] for pool in strata]
                rng.shuffle(jobs)
                yield from jobs
        return stream()

    def run(self, S, g):
        H, C = S.homs, S.constructions
        reports = {}
        if S.graphs.is_vertex_weighted(g):
            reports["phi"] = H.verify(H.phi_vw(g), H.relations("weighted", g))
        reports["phi1"] = H.verify(H.phi1(g), H.relations("weighted-l1", g))
        double = C.separated_of_vertex_weighted(C.weighted_completion(g))
        reports["phi0"] = H.verify(H.phi0(double),
                                   H.relations("separated", double.base))
        gmap = H.rho_tau(double)
        for kind in ("lv", "lw"):
            reports[kind] = H.verify(gmap, H.relations(kind, double))
        return double, reports

    def check(self, S, g, out) -> list[str]:
        double, reports = out
        want = oracles.verify_small_counts(g)
        problems = []
        shape = (len(double.upper), len(double.lower), len(double.edges))
        if shape != (want["double_upper"], want["double_lower"],
                     want["double_edges"]):
            problems.append(f"double has shape {shape}")
        families = [k for k in ("phi", "phi1", "phi0", "lv", "lw") if k in want]
        if sorted(reports) != sorted(families):
            problems.append(f"maps run {sorted(reports)}, want {families}")
        for kind in families:
            rep = reports.get(kind)
            if rep is None:
                continue
            if rep.failures or not rep.all_zero:
                problems.append(f"{kind}: nonzero residues at "
                                + ", ".join(l for l, _ in rep.failures[:5]))
            if rep.checked != want[kind]:
                problems.append(f"{kind}: {rep.checked} relations checked, "
                                f"want {want[kind]}")
        return problems

    def describe(self, g) -> str:
        return _describe_weighted(g)


# (m, n, depth, k): build the tower of depth ``depth`` over E(m, n) and
# verify phi0 from layer k into its resolution.  The pool mixes wide phi0
# images (sums over 64 and 72 choice tuples) with towers of thousands of
# edges.  E(2,3) to depth 3 (a 10,368-edge layer and the 72-term images)
# runs twice a round, two ninths of all jobs, so the tail percentile lands
# on it whether a run holds fewer or more than 200 jobs; E(3,3) to depth 2
# is the middle job size, so the median job is that one case.  Short jobs
# (tens of ms) time far less steadily on a shared machine, so the round
# keeps only four of them.  E(2,4) and E(3,3) resolved at layer 1 (3 s and
# 24 s) are left out so one case cannot dominate a run.
RESOLVE_POOL = (
    (2, 3, 3, 1),
    (2, 3, 3, 1),
    (2, 3, 2, 1),
    (2, 2, 3, 2),
    (3, 3, 2, 0),
    (2, 4, 2, 0),
    (2, 2, 2, 1),
    (1, 4, 4, 3),
    (1, 3, 4, 2),
)


class ResolveWide:
    """Few heavy jobs: resolution towers over E(m, n) and phi0 verified on
    wide elements.  Each round runs the whole pool in a seeded order."""

    name = "resolve-wide"
    round_size = len(RESOLVE_POOL)

    def generate(self, S, seed: int):
        rng = random.Random(seed)
        build = S.constructions.build_emn

        def stream():
            while True:
                for case in rng.sample(RESOLVE_POOL, len(RESOLVE_POOL)):
                    yield case, build(case[0], case[1])
        return stream()

    def run(self, S, job):
        (_, _, depth, k), g = job
        tower = S.constructions.bratteli(g, depth)
        layer = tower.layers[k]
        gmap = S.homs.phi0(layer)
        report = S.homs.verify(gmap, S.homs.relations("separated", layer.base))
        return tower, gmap, report

    def check(self, S, job, out) -> list[str]:
        (m, n, depth, k), _ = job
        tower, gmap, report = out
        layers = tower.layers
        problems = []
        if len(layers) != depth + 1 or len(tower.unions) != depth + 1:
            return [f"{len(layers)} layers, want {depth + 1}"]
        if (len(layers[0].vertices), len(layers[0].edges)) != (2, m + n):
            problems.append("layer 0 is not E(m, n)")
        for i in range(depth):
            low, high = layers[i], layers[i + 1]
            up, lo, ne, groups = oracles.resolution_shape(
                low.upper, low.lower, low.edges, low.separation)
            got = (len(high.upper), len(high.lower), len(high.edges))
            if got != (up, lo, ne):
                problems.append(f"layer {i + 1} has (upper, lower, edges) "
                                f"{got}, want {(up, lo, ne)}")
            got_groups = {v: sorted(len(grp) for grp in gs)
                          for v, gs in high.separation}
            if got_groups != groups:
                problems.append(f"layer {i + 1} group sizes differ")
        union = tower.unions[-1].graph
        want_v = len(layers[0].vertices) + sum(len(l.lower) for l in layers[1:])
        want_e = sum(len(l.edges) for l in layers)
        if (len(union.vertices), len(union.edges)) != (want_v, want_e):
            problems.append(f"union has {len(union.vertices)} vertices and "
                            f"{len(union.edges)} edges, want {want_v}, {want_e}")
        layer = layers[k]
        sep = dict(layer.separation)
        for u in layer.upper:
            width = 1
            for grp in sep[u]:
                width *= len(grp)
            if len(gmap.images[u].terms) != width:
                problems.append(f"phi0({u}) has {len(gmap.images[u].terms)} "
                                f"terms, want {width}")
        if k < depth:
            resolved = gmap.meta["resolution"]
            if set(resolved.edges) != set(layers[k + 1].edges):
                problems.append("phi0 resolution differs from the tower layer")
        want = oracles.separated_relation_count(
            layer.vertices, layer.edges, layer.separation)
        if report.failures or not report.all_zero:
            problems.append("phi0: nonzero residues at "
                            + ", ".join(l for l, _ in report.failures[:5]))
        if report.checked != want:
            problems.append(f"phi0: {report.checked} relations checked, "
                            f"want {want}")
        return problems

    def describe(self, job) -> str:
        (m, n, depth, k), _ = job
        return f"E({m},{n}) depth {depth} phi0 at layer {k}"


# Companion sizes drawn once per round; the brute order-ideal scans cost
# 2^size, and sizes 11 and 12 (0.4 and 0.7 s a job, with a wide spread)
# would leave a run too few jobs to average over.  Size 4 has 14 graphs and
# is left out so a round has an odd number of jobs and the median job falls
# inside one size class rather than between two.
MONOID_SIZES = range(5, 11)
MINIMAL_FAMILY = tuple((m, n) for m in range(3, 8) for n in range(m, 8))


class MonoidInvariants:
    """Graph monoids: word problems, Tietze reduction, Smith normal form and
    the order-ideal lattice.  Each round draws one sweep graph per companion
    size and one minimal-partition case of the source paper's example."""

    name = "monoid-invariants"
    round_size = len(MONOID_SIZES) + 1

    def generate(self, S, seed: int):
        rng = random.Random(seed)
        strata = {k: [] for k in MONOID_SIZES}
        for g in S.sweeps.weighted_sweep(*SWEEP):
            k = oracles.companion_size(g)
            if k in strata:
                strata[k].append(_raw(g))
        for pool in strata.values():
            rng.shuffle(pool)
        cases = list(MINIMAL_FAMILY)
        rng.shuffle(cases)

        def stream():
            for r in itertools.count():
                jobs = [("graph", _fresh_weighted(S, pool[r % len(pool)]))
                        for pool in strata.values()]
                jobs.append(("family", cases[r % len(cases)]))
                rng.shuffle(jobs)
                yield from jobs
        return stream()

    def run(self, S, job):
        kind, data = job
        M = S.monoids
        budget = M.Budget(**BUDGET)
        if kind == "family":
            return S.mnlab.example_59_report(*data, budget)
        pres = M.m1_of(data)
        slim = M.eliminate_identifications(pres)
        return {
            "pres": pres,
            "slim": slim,
            "groups": (M.grothendieck(pres), M.grothendieck(slim)),
            "types": {v: M.leavitt_type(slim, v, budget)
                      for v in slim.generators},
            "ideals": M.order_ideals(data),
            "oracle": M.order_ideal_oracle(pres),
        }

    def check(self, S, job, out) -> list[str]:
        kind, data = job
        if kind == "family":
            return self._check_family(S, *data, out)
        problems = []
        vertices, edges, w = oracles.weighted_shape(data)
        outs = oracles.out_edges(vertices, edges)
        indeg = Counter(r for _, _, r in edges)
        groups = sum(max((w[e] for e in outs[v]), default=0) + indeg[v]
                     for v in vertices)
        pres = out["pres"]
        if (len(pres.generators), len(pres.relations)) != (
                oracles.companion_size(data), groups):
            problems.append("m1_of has the wrong generator or relation count")
        g1, g2 = out["groups"]
        if (g1.rank, g1.torsion) != (g2.rank, g2.torsion):
            problems.append(f"grothendieck {g1} becomes {g2} after "
                            "eliminate_identifications")
        from_graph = sorted(sorted(e.vertices) for e in out["ideals"])
        from_pres = sorted(sorted(s) for s in out["oracle"])
        if from_graph != from_pres:
            problems.append(f"order_ideals {from_graph} != oracle {from_pres}")
        slim = out["slim"]
        for v, ans in out["types"].items():
            if ans.answer == "yes":
                problems += _replay_type(S, slim, v, ans.p, ans.q)
            elif ans.answer != "unknown" or ans.p is not None:
                problems.append(f"leavitt_type({v}) answered {ans}")
        return problems

    def _check_family(self, S, m, n, report) -> list[str]:
        want = oracles.minimal_partition_expected(m, n)
        mono, quot = report["monoid"], report["quotient"]
        got = {
            "grothendieck": mono["grothendieck"],
            "leavitt_type": mono["leavitt_type"],
            "quotient_grothendieck": quot and quot["grothendieck"],
            "quotient_leavitt_type": quot and quot["leavitt_type"],
            "ideal_count": report["ideals"]["count"],
            "rose_relations": report["rose"]["relations_checked"],
        }
        problems = [f"{key} is {got[key]}, want {want[key]}"
                    for key in want if got[key] != want[key]]
        if not report["rose"]["relations_hold"]:
            problems.append("rose assignment leaves a nonzero relation")
        if problems:
            return problems
        M = S.monoids
        g = S.mnlab.partition_to_weighted(S.mnlab.minimal_partition(m, n))
        pres = M.m1_of(g)
        if n > m:
            problems += _replay_type(S, M.eliminate_identifications(pres),
                                     "v", 1, n - m)
        q = M.quotient_presentation(pres, quot["killed"])
        problems += _replay_type(S, M.eliminate_identifications(q), "v",
                                 *quot["leavitt_type"])
        return problems

    def describe(self, job) -> str:
        kind, data = job
        if kind == "family":
            return f"minimal partition (m, n) = {data}"
        return _describe_weighted(data)


def _replay_type(S, pres, v: str, p: int, q: int) -> list[str]:
    """Ask for the chain behind p·v ~ (p+q)·v and replay it step by step."""
    def unit(count):
        return tuple(count if g == v else 0 for g in pres.generators)
    x, y = unit(p), unit(p + q)
    ans = S.monoids.congruent(pres, x, y, S.monoids.Budget(**BUDGET))
    if ans.answer != "yes":
        return [f"{p}·{v} ~ {p + q}·{v} has no chain ({ans.answer})"]
    err = oracles.replay(pres.relations, ans.path, x, y)
    return [f"chain for {p}·{v} ~ {p + q}·{v}: {err}"] if err else []


WORKLOADS = {w.name: w for w in (VerifySmall(), ResolveWide(),
                                 MonoidInvariants())}
