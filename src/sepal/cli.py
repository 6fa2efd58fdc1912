"""Command-line front end.

Every command emits a text report by default or a JSON document with
``--json``; the JSON form is byte-stable across runs.  Exit codes: 0 for a
successful (positive) result, 1 when a check ran and failed, 2 on bad
input or resource limits, 3 when a budgeted search was inconclusive.

Each report carries provenance: the sha256 of the canonical print of the
input graph, the designated edge of every separation group of the algebra
that normal forms ran in, and the search budgets in force.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructions as cons
from . import mnlab, monoids, sweeps
from .exprs import ExprError, parse_element, parse_weighted
from .graphio import (
    ParseError,
    graph_payload,
    graph_sha256,
    load_graph,
    print_graph,
)
from .graphs import GraphError, WeightedGraph, is_vertex_weighted, validate
from .homs import MAPS, evaluate, ideal_generators, phi1, relations, verify
from .staralg import AlgebraError, StarAlgebra, format_element, normal_form

_EXIT = {"ok": 0, "fail": 1, "error": 2, "unknown": 3}

_ERRORS = (ParseError, GraphError, ExprError, AlgebraError,
           cons.ResourceLimitError, OSError, ValueError)


def _budget(ns) -> monoids.Budget:
    return monoids.Budget(coord_sum=ns.budget_sum, states=ns.budget_states)


def _prov(graph=None, alg=None, budget=None) -> dict:
    out: dict = {}
    if graph is not None:
        out["graph_sha256"] = graph_sha256(graph)
    if alg is not None:
        out["normal_form_graph_sha256"] = graph_sha256(alg.sep)
        out["designated_edges"] = alg.chosen
    if budget is not None:
        out["budget"] = {"coord_sum": budget.coord_sum,
                         "states": budget.states}
    return out


# ---------------------------------------------------------------------------
# handlers: each returns (status, payload, provenance, text lines)


def _cmd_validate(ns):
    g = load_graph(ns.graph)
    report = validate(g)
    payload = {"violations": report, "kind": graph_payload(g)["kind"]}
    if report:
        return "fail", payload, _prov(g), ["invalid:"] + [
            "  " + line for line in report]
    return "ok", payload, _prov(g), ["valid " + payload["kind"] + " graph"]


def _graph_result(g, note: str):
    text = print_graph(g)
    return "ok", {"graph": graph_payload(g)}, _prov(g), [
        f"# {note}", text.rstrip("\n")]


def _cmd_construct(ns):
    which = ns.what
    if which == "emn":
        return _graph_result(cons.build_emn(ns.m, ns.n),
                             f"two-vertex graph, groups of {ns.n} and {ns.m}")
    g = load_graph(ns.graph)
    if which == "vw2sep":
        return _graph_result(cons.separated_of_vertex_weighted(g),
                             "bipartite double")
    if which == "w2sep":
        return _graph_result(cons.separated_of_weighted(g),
                             "direct companion")
    if which == "resolve":
        return _graph_result(cons.one_step_resolution(g),
                             "one-step resolution")
    if which == "quotient":
        return _graph_result(cons.quotient_graph(g, ns.set.split()),
                             "quotient by hereditary saturated set")
    if which == "bratteli":
        tower = cons.bratteli(g, ns.depth, cap=ns.cap)
        lines = []
        payload = {"layers": [], "unions": []}
        for k, layer in enumerate(tower.layers):
            payload["layers"].append(graph_payload(layer))
            lines += [f"# layer {k}", print_graph(layer).rstrip("\n")]
        for k, union in enumerate(tower.unions):
            payload["unions"].append(graph_payload(union))
            lines += [f"# union 0..{k}", print_graph(union).rstrip("\n")]
        return "ok", payload, _prov(g), lines


def _cmd_hsat(ns):
    g = load_graph(ns.graph)
    if ns.what == "check":
        rep = cons.is_hsat(g, ns.set.split())
        payload = {
            "hereditary": rep.hereditary,
            "saturated": rep.saturated,
            "hereditary_witness": list(rep.hereditary_witness)
            if rep.hereditary_witness else None,
            "saturated_witness":
                [rep.saturated_witness[0], list(rep.saturated_witness[1])]
                if rep.saturated_witness else None,
        }
        ok = rep.hereditary and rep.saturated
        lines = [f"hereditary: {rep.hereditary}",
                 f"saturated: {rep.saturated}"]
        if rep.hereditary_witness:
            e, s, r = rep.hereditary_witness
            lines.append(f"  edge {e} leads from {s} to {r} outside the set")
        if rep.saturated_witness:
            v, grp = rep.saturated_witness
            lines.append(f"  group [{' '.join(grp)}] at {v} forces it in")
        return ("ok" if ok else "fail"), payload, _prov(g), lines
    if ns.what == "closure":
        h = cons.hsat_closure(g, ns.set.split())
        payload = {"closure": sorted(h)}
        return "ok", payload, _prov(g), ["closure: " + " ".join(sorted(h))]
    if ns.what == "enumerate":
        sets = cons.enumerate_hsat(g)
        payload = {"count": len(sets), "sets": [sorted(h) for h in sets]}
        lines = [f"{len(sets)} hereditary saturated sets"] + [
            "  {" + " ".join(sorted(h)) + "}" for h in sets]
        return "ok", payload, _prov(g), lines


def _cmd_nf(ns):
    g = load_graph(ns.graph)
    if isinstance(g, WeightedGraph):
        gmap = phi1(g)
        expr = parse_weighted(ns.expr, g)
        result = evaluate(expr, gmap)
        alg = gmap.target
        note = "weighted input mapped through the direct companion"
    else:
        alg = StarAlgebra(g)
        result = normal_form(parse_element(ns.expr, alg))
        note = "normal form"
    text = format_element(result)
    payload = {"input": ns.expr, "normal_form": text,
               "terms": len(result.terms)}
    return "ok", payload, _prov(g, alg=alg), [f"# {note}", text]


def _verify_single(kind: str, g):
    build, families = MAPS[kind]
    gmap = build(g)
    checked = 0
    failures = []
    for family in families:
        rep = verify(gmap, relations(family, g))
        checked += rep.checked
        failures += [(family, label, format_element(res))
                     for label, res in rep.failures]
    return gmap, checked, failures


def _sweep_graphs(kind: str):
    if kind == "phi":
        return [g for g in sweeps.weighted_sweep() if is_vertex_weighted(g)]
    if kind == "phi1":
        return sweeps.weighted_sweep()
    return sweeps.bipartite_sweep()


def _cmd_verify(ns):
    kind = ns.map
    if ns.sweep:
        entries = []
        bad = 0
        total = 0
        for g in _sweep_graphs(kind):
            _, checked, failures = _verify_single(kind, g)
            total += checked
            bad += len(failures)
            entries.append({
                "graph_sha256": graph_sha256(g),
                "vertices": len(g.vertices),
                "checked": checked,
                "failures": [list(f) for f in failures],
            })
        payload = {"map": kind, "graphs": len(entries),
                   "relations_checked": total, "failures": bad,
                   "entries": entries}
        status = "ok" if bad == 0 else "fail"
        lines = [f"{kind}: {len(entries)} graphs, "
                 f"{total} relations checked, {bad} failures"]
        return status, payload, {}, lines
    if not ns.graph:
        raise GraphError("verify needs --graph FILE or --sweep")
    g = load_graph(ns.graph)
    gmap, checked, failures = _verify_single(kind, g)
    payload = {"map": kind, "checked": checked,
               "failures": [list(f) for f in failures]}
    status = "ok" if not failures else "fail"
    lines = [f"{kind}: {checked} relations checked, "
             f"{len(failures)} failures"]
    for rs_kind, label, res in failures:
        lines.append(f"  {rs_kind} {label}: {res}")
    return status, payload, _prov(g, alg=gmap.target), lines


def _cmd_ideal_gens(ns):
    g = load_graph(ns.graph)
    kind = ns.kind
    if kind == "hsat" and ns.set is None:
        raise GraphError("hsat generators need --set")
    subset = None if ns.set is None else ns.set.split()
    gens = ideal_generators(kind, g, bound=ns.bound, subset=subset)
    payload = {"kind": kind, "count": len(gens),
               "generators": [{"label": lab, "element": format_element(el)}
                              for lab, el in gens]}
    alg = gens[0][1].alg if gens else None
    lines = [f"{len(gens)} generators"] + [
        f"  {lab}: {format_element(el)}" for lab, el in gens]
    return "ok", payload, _prov(g, alg=alg), lines


def _presentation_of(g) -> monoids.MonoidPresentation:
    if isinstance(g, WeightedGraph):
        return monoids.m1_of(g)
    return monoids.monoid_of(g)


def _cmd_monoid(ns):
    g = load_graph(ns.graph)
    pres = _presentation_of(g)
    budget = _budget(ns)
    if ns.what == "present":
        slim = monoids.eliminate_identifications(pres)
        payload = {
            "generators": list(pres.generators),
            "relations": monoids.format_presentation(pres),
            "labels": list(pres.labels),
            "reduced_generators": list(slim.generators),
            "reduced_relations": monoids.format_presentation(slim),
        }
        lines = ["generators: " + " ".join(pres.generators)]
        lines += ["  " + r for r in monoids.format_presentation(pres)]
        lines.append("reduced: " + " ".join(slim.generators))
        lines += ["  " + r for r in monoids.format_presentation(slim)]
        return "ok", payload, _prov(g), lines
    if ns.what == "grothendieck":
        shape = monoids.grothendieck(pres)
        payload = {"rank": shape.rank, "torsion": list(shape.torsion),
                   "group": str(shape)}
        return "ok", payload, _prov(g), [f"group: {shape}"]
    if ns.what == "leavitt-type":
        if not (ns.generator or pres.generators):
            raise GraphError("the presentation has no generators")
        gen = ns.generator or pres.generators[0]
        slim = monoids.eliminate_identifications(pres)
        use = slim if gen in slim.generators else pres
        ans = monoids.leavitt_type(use, gen, budget)
        payload = {"generator": gen, "answer": ans.answer,
                   "p": ans.p, "q": ans.q, "scanned": ans.scanned,
                   "order": ans.order, "least": ans.least}
        if ans.answer == "yes":
            return "ok", payload, _prov(g, budget=budget), [
                f"type ({ans.p}, {ans.q}) at {gen}"]
        if ans.order is None:
            return "unknown", payload, _prov(g, budget=budget), [
                f"[{gen}] has infinite order in G(M), so no (p, q) exists"]
        return "unknown", payload, _prov(g, budget=budget), [
            "no (p, q) within budget"]
    if ns.what == "order-ideals":
        ideals = [sorted(e.vertices) for e in monoids.order_ideals(g)]
        payload = {"count": len(ideals),
                   "ideals": [{"vertices": h, "generators": h}
                              for h in ideals]}
        lines = [f"{len(ideals)} order ideals"] + [
            "  {" + " ".join(h) + "}" for h in ideals]
        return "ok", payload, _prov(g), lines
    if ns.what == "congruent":
        if ns.x is None or ns.y is None:
            raise GraphError("congruent needs --x and --y")
        x = monoids.parse_vector(ns.x, pres)
        y = monoids.parse_vector(ns.y, pres)
        ans = monoids.congruent(pres, x, y, budget)
        payload = {"answer": ans.answer, "explored": ans.explored,
                   "path": [monoids.format_vector(pres, v)
                            for v in ans.path] if ans.path else None}
        status = {"yes": "ok", "no": "fail", "unknown": "unknown"}[ans.answer]
        lines = [f"answer: {ans.answer} ({ans.explored} states)"]
        if ans.path:
            lines += ["  " + monoids.format_vector(pres, v)
                      for v in ans.path]
        return status, payload, _prov(g, budget=budget), lines


_MATRIX_LISTS = {
    "ideal-matrices": (mnlab.ideal_matrices, "matrices"),
    "min-configs": (mnlab.minimal_configurations, "minimal configurations"),
}


def _cmd_mnlab(ns):
    budget = _budget(ns)
    if ns.what == "partitions":
        parts = mnlab.partitions(ns.m, ns.n)
        payload = {"count": len(parts),
                   "partitions": [list(p.parts) for p in parts]}
        lines = [f"{len(parts)} partitions"] + [
            "  " + " ".join(map(str, p.parts)) for p in parts]
        return "ok", payload, {}, lines
    if ns.what == "refinement":
        if ns.partition:
            p = mnlab.MnPartition.make(
                ns.m, ns.n, [int(x) for x in ns.partition.split()])
        else:
            p = mnlab.minimal_partition(ns.m, ns.n)
        g = mnlab.partition_to_weighted(p)
        refinement = [[x or "0" for x in row]
                      for row in mnlab.refinement_matrix(p)]
        gmat = [[x or "0" for x in row] for row in mnlab.generator_matrix(p)]
        payload = {"partition": list(p.parts),
                   "weights": {e: w for e, w in g.weights},
                   "shape": [list(r) for r in mnlab.shape_matrix(p)],
                   "refinement": refinement,
                   "generators": gmat}
        lines = ["shape:"]
        lines += ["  " + " ".join(map(str, r))
                  for r in mnlab.shape_matrix(p)]
        lines.append("refinement:")
        lines += ["  " + "  ".join(row) for row in refinement]
        return "ok", payload, _prov(g), lines
    if ns.what in _MATRIX_LISTS:
        build, label = _MATRIX_LISTS[ns.what]
        mats = build(ns.m, ns.n)
        payload = {"count": len(mats),
                   "matrices": [[list(r) for r in mat] for mat in mats]}
        lines = [f"{len(mats)} {label}"]
        for mat in mats:
            lines += ["  " + " ".join(map(str, r)) for r in mat] + [""]
        return "ok", payload, {}, lines
    if ns.what == "example59":
        report = mnlab.example_59_report(ns.m, ns.n, budget)
        lines = [f"partition: {' '.join(map(str, report['partition']))}",
                 f"group: {report['monoid']['grothendieck']}",
                 f"type: {tuple(report['monoid']['leavitt_type'])}",
                 f"ideals: {report['ideals']['count']}"]
        if report["quotient"]:
            lines.append(
                f"quotient group: {report['quotient']['grothendieck']}, "
                f"type { tuple(report['quotient']['leavitt_type']) }")
        lines.append(f"rose relations hold: {report['rose']['relations_hold']}")
        return "ok", report, _prov(budget=budget), lines


# ---------------------------------------------------------------------------
# parser


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-sum", type=int, dest="budget_sum",
                   default=monoids.Budget.coord_sum)
    p.add_argument("--budget-states", type=int, dest="budget_states",
                   default=monoids.Budget.states)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sepal",
        description="separated-graph algebras: constructions, normal forms, "
                    "monoid invariants")
    top.add_argument("--json", action="store_true",
                     help="emit a JSON report instead of text")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("construct", help="derived graphs")
    p.add_argument("what", choices=("emn", "vw2sep", "w2sep", "resolve",
                                    "bratteli", "quotient"))
    p.add_argument("--graph")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--cap", type=int, default=10 ** 6)
    p.add_argument("--set", default="")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("hsat", help="hereditary saturated vertex sets")
    p.add_argument("what", choices=("check", "closure", "enumerate"),
                   help="test --set, close --set, or list every such set")
    p.add_argument("--graph", required=True)
    p.add_argument("--set", default="")
    p.set_defaults(handler=_cmd_hsat)

    p = sub.add_parser("nf", help="normal form of an element expression")
    p.add_argument("--graph", required=True)
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("verify", help="check a generator map on relations")
    p.add_argument("map", choices=tuple(MAPS))
    p.add_argument("--graph")
    p.add_argument("--sweep", action="store_true",
                   help="run over the built-in family of small graphs")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("ideal-gens", help="labeled ideal generator families")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", required=True,
                   choices=("i0", "kernel", "commutator", "hsat"))
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--set")
    p.set_defaults(handler=_cmd_ideal_gens)

    p = sub.add_parser("monoid", help="vertex monoid invariants")
    p.add_argument("what", choices=("present", "grothendieck",
                                    "leavitt-type", "order-ideals",
                                    "congruent"))
    p.add_argument("--graph", required=True)
    p.add_argument("--generator")
    p.add_argument("--x")
    p.add_argument("--y")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_monoid)

    p = sub.add_parser("mnlab", help="single-vertex partition laboratory")
    p.add_argument("what", choices=("partitions", "refinement",
                                    "ideal-matrices", "min-configs",
                                    "example59"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_mnlab)

    return top


def main(argv=None, stdout=None) -> int:
    out = stdout or sys.stdout
    ns = _build_parser().parse_args(argv)
    try:
        status, payload, prov, lines = ns.handler(ns)
    except _ERRORS as exc:
        status = "error"
        payload = {"message": str(exc)}
        prov = {}
        lines = [f"error: {exc}"]
    if ns.json:
        doc = {"command": ns.verb, "status": status,
               "payload": payload, "provenance": prov}
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        for line in lines:
            out.write(line + "\n")
    return _EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
