"""Separated-graph algebras: constructions, normal forms, and invariants."""

from .graphs import (
    BipartiteSeparatedGraph,
    DirectedGraph,
    GraphError,
    SeparatedGraph,
    WeightedGraph,
    as_bipartite,
    as_separated,
    as_weighted,
    classify,
    is_vertex_weighted,
    require_valid,
    validate,
    vertex_weight,
)
from .constructions import (
    ResourceLimitError,
    bratteli,
    build_emn,
    enumerate_hsat,
    hsat_closure,
    is_hsat,
    one_step_resolution,
    quotient_graph,
    same_bipartite_structure,
    same_separated_structure,
    separated_of_vertex_weighted,
    separated_of_weighted,
    thm310_hidden_vertices,
    thm310_rename,
    weighted_completion,
)
from .staralg import (
    AlgebraError,
    AlgElement,
    StarAlgebra,
    basis_words,
    corner,
    equals,
    format_element,
    normal_form,
)
from .homs import (
    GeneratorMap,
    RelationSet,
    apply_map,
    evaluate,
    ideal_generators,
    kernel_generator,
    phi0,
    phi1,
    phi_vw,
    relations,
    rho_tau,
    verify,
)
from .exprs import ExprError, parse_element, parse_weighted
from .graphio import ParseError, load_graph, parse_graph, print_graph
from .monoids import (
    Budget,
    MonoidPresentation,
    congruent,
    grothendieck,
    leavitt_type,
    m1_of,
    monoid_of,
    order_ideal_oracle,
    order_ideals,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
