"""Layer boundaries of ``sepal`` recorded by the traced run, and the
per-layer metrics computed from their spans and counters.

Counts and self times are reported per traced job, so a faster program
that fits more jobs into a run does not read as doing more work.
"""

from __future__ import annotations

from spans import SpanSummary, Target


def _mul(counts, args, kwargs, result):
    a, b = args
    if hasattr(b, "terms"):
        counts["staralg.mul.pairs"] += len(a.terms) * len(b.terms)
        counts["staralg.mul.terms_out"] += len(result.terms)


def _normal_form(counts, args, kwargs, result):
    counts["staralg.normal_form.terms_in"] += len(args[0].terms)
    counts["staralg.normal_form.terms_out"] += len(result.terms)


def _one_step(counts, args, kwargs, result):
    counts["constructions.one_step_resolution.edges_out"] += len(result.edges)


def _bratteli(counts, args, kwargs, result):
    counts["constructions.bratteli.union_edges"] += \
        len(result.unions[-1].graph.edges)


def _enumerate_hsat(counts, args, kwargs, result):
    counts["constructions.enumerate_hsat.sets_found"] += len(result)


def _relations(counts, args, kwargs, result):
    counts["homs.relations.relations_built"] += len(result.relations)


def _verify(counts, args, kwargs, result):
    counts["homs.verify.residues_nonzero"] += len(result.failures)


def _congruent(counts, args, kwargs, result):
    counts["monoids.congruent.states"] += result.explored
    counts[f"monoids.congruent.answers.{result.answer}"] += 1


def _leavitt(counts, args, kwargs, result):
    counts["monoids.leavitt_type.scanned"] += result.scanned


def _eliminate(counts, args, kwargs, result):
    counts["monoids.eliminate_identifications.generators_removed"] += \
        len(args[0].generators) - len(result.generators)


TARGETS = [
    Target("sepal.graphs", "validate", "graphs.validate"),
    Target("sepal.graphs", "require_valid", "graphs.require_valid"),
    Target("sepal.constructions", "weighted_completion",
           "constructions.companions"),
    Target("sepal.constructions", "separated_of_vertex_weighted",
           "constructions.companions"),
    Target("sepal.constructions", "separated_of_weighted",
           "constructions.companions"),
    Target("sepal.constructions", "one_step_resolution",
           "constructions.one_step_resolution", _one_step),
    Target("sepal.constructions", "bratteli", "constructions.bratteli",
           _bratteli),
    Target("sepal.constructions", "enumerate_hsat",
           "constructions.enumerate_hsat", _enumerate_hsat),
    Target("sepal.constructions", "is_hsat", "constructions.is_hsat"),
    Target("sepal.constructions", "hsat_closure",
           "constructions.hsat_closure"),
    Target("sepal.staralg", "AlgElement.__mul__", "staralg.mul", _mul),
    Target("sepal.staralg", "AlgElement.__add__", "staralg.add"),
    Target("sepal.staralg", "normal_form", "staralg.normal_form",
           _normal_form),
    Target("sepal.homs", "relations", "homs.relations", _relations),
    Target("sepal.homs", "phi_vw", "homs.maps"),
    Target("sepal.homs", "phi1", "homs.maps"),
    Target("sepal.homs", "phi0", "homs.maps"),
    Target("sepal.homs", "rho_tau", "homs.maps"),
    Target("sepal.homs", "evaluate", "homs.evaluate"),
    Target("sepal.homs", "verify", "homs.verify", _verify),
    Target("sepal.monoids", "m1_of", "monoids.presentations"),
    Target("sepal.monoids", "monoid_of", "monoids.presentations"),
    Target("sepal.monoids", "eliminate_identifications",
           "monoids.eliminate_identifications", _eliminate),
    Target("sepal.monoids", "grothendieck", "monoids.grothendieck"),
    Target("sepal.monoids", "congruent", "monoids.congruent", _congruent),
    Target("sepal.monoids", "leavitt_type", "monoids.leavitt_type",
           _leavitt),
    Target("sepal.monoids", "order_ideals", "monoids.order_ideals"),
    Target("sepal.monoids", "order_ideal_oracle",
           "monoids.order_ideal_oracle"),
    Target("sepal.mnlab", "example_59_report", "mnlab.example_59_report"),
    Target("sepal.sweeps", "weighted_sweep", "sweeps.weighted_sweep"),
]

# (name, unit, better) for every per-layer metric, in report order.
CALLS = "count/job"
SELF = "s/job"
METRICS = [
    ("graphs.validate.calls", CALLS, "lower"),
    ("graphs.validate.self_s", SELF, "lower"),
    ("constructions.one_step_resolution.calls", CALLS, "lower"),
    ("constructions.one_step_resolution.self_s", SELF, "lower"),
    ("constructions.one_step_resolution.edges_out", CALLS, "lower"),
    ("constructions.bratteli.self_s", SELF, "lower"),
    ("constructions.bratteli.union_edges", CALLS, "lower"),
    ("constructions.companions.self_s", SELF, "lower"),
    ("constructions.enumerate_hsat.calls", CALLS, "lower"),
    ("constructions.enumerate_hsat.self_s", SELF, "lower"),
    ("constructions.enumerate_hsat.sets_found", CALLS, "higher"),
    ("constructions.enumerate_hsat.found_per_scan", "ratio", "higher"),
    ("constructions.is_hsat.calls", CALLS, "lower"),
    ("staralg.mul.calls", CALLS, "lower"),
    ("staralg.mul.self_s", SELF, "lower"),
    ("staralg.mul.pairs", CALLS, "lower"),
    ("staralg.mul.terms_per_pair", "ratio", "higher"),
    ("staralg.add.calls", CALLS, "lower"),
    ("staralg.add.self_s", SELF, "lower"),
    ("staralg.normal_form.calls", CALLS, "lower"),
    ("staralg.normal_form.self_s", SELF, "lower"),
    ("staralg.normal_form.terms_in", CALLS, "lower"),
    ("staralg.normal_form.terms_out", CALLS, "lower"),
    ("homs.relations.calls", CALLS, "lower"),
    ("homs.relations.self_s", SELF, "lower"),
    ("homs.relations.relations_built", CALLS, "lower"),
    ("homs.maps.calls", CALLS, "lower"),
    ("homs.maps.self_s", SELF, "lower"),
    ("homs.evaluate.calls", CALLS, "lower"),
    ("homs.evaluate.self_s", SELF, "lower"),
    ("homs.verify.residues_nonzero", CALLS, "lower"),
    ("monoids.congruent.calls", CALLS, "lower"),
    ("monoids.congruent.self_s", SELF, "lower"),
    ("monoids.congruent.states", CALLS, "lower"),
    ("monoids.congruent.answers.yes", CALLS, "higher"),
    ("monoids.congruent.answers.no", CALLS, "higher"),
    ("monoids.congruent.answers.unknown", CALLS, "lower"),
    ("monoids.congruent.unknown_ratio", "ratio", "lower"),
    ("monoids.leavitt_type.calls", CALLS, "lower"),
    ("monoids.leavitt_type.self_s", SELF, "lower"),
    ("monoids.leavitt_type.scanned", CALLS, "lower"),
    ("monoids.grothendieck.self_s", SELF, "lower"),
    ("monoids.eliminate_identifications.self_s", SELF, "lower"),
    ("monoids.eliminate_identifications.generators_removed", CALLS, "higher"),
    ("monoids.order_ideal_oracle.calls", CALLS, "lower"),
    ("monoids.order_ideal_oracle.self_s", SELF, "lower"),
    ("mnlab.example_59_report.calls", CALLS, "lower"),
    ("mnlab.example_59_report.self_s", SELF, "lower"),
    ("sweeps.weighted_sweep.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(summary: SpanSummary, counts: dict[str, float], jobs: int,
              overhead_ratio: float) -> dict[str, float]:
    """Every metric of ``METRICS`` from one traced run of ``jobs`` jobs."""
    values: dict[str, float] = {}
    for name, unit, _ in METRICS:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = _ratio(summary.calls.get(span, 0), jobs)
        elif field == "self_s":
            values[name] = _ratio(summary.self_s.get(span, 0.0), jobs)
        elif unit == CALLS:
            values[name] = _ratio(counts.get(name, 0.0), jobs)
    scans = (summary.child_calls.get(("constructions.enumerate_hsat",
                                      "constructions.is_hsat"), 0)
             + summary.child_calls.get(("constructions.enumerate_hsat",
                                        "constructions.hsat_closure"), 0))
    values["constructions.enumerate_hsat.found_per_scan"] = _ratio(
        counts.get("constructions.enumerate_hsat.sets_found", 0.0), scans)
    values["staralg.mul.terms_per_pair"] = _ratio(
        counts.get("staralg.mul.terms_out", 0.0),
        counts.get("staralg.mul.pairs", 0.0))
    values["monoids.congruent.unknown_ratio"] = _ratio(
        counts.get("monoids.congruent.answers.unknown", 0.0),
        summary.calls.get("monoids.congruent", 0))
    values["sweeps.weighted_sweep.s"] = summary.setup_s.get(
        "sweeps.weighted_sweep", 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    return values
