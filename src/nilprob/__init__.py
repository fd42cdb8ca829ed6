"""Exact statistics and structural probes for probabilistically nilpotent
finite groups: a class-4 family built from a graded algebra over F_p,
Cayley-table groups, nilpotency-degree statistics, covering-condition
checks, and bounded-rank multilinear certificates."""

from .algebra import (
    AlgebraElement,
    AlgebraParams,
    alg_add,
    alg_mul,
    alg_neg,
    alg_sub,
    basis_elements,
    lie_bracket,
)
from .fieldlin import (
    BilinearForm,
    FpVector,
    antisymm_part,
    form_eval,
    hyperbolic_form,
    load_form,
    symm_part,
)
from .groups import (
    AlgebraGroup,
    GroupElement,
    TableGroup,
    commutator,
    direct_product,
    load_cayley_table,
    quotient_table,
    subgroup_table,
)
from .stats import (
    CoveringWitness,
    StatReport,
    conjugacy_norm,
    covering_check,
    covering_minimal_S,
    d1_exact,
    d2_exact,
    dk_monte_carlo,
)
from .structure import (
    NeumannReport,
    ProbeWitness,
    SeriesReport,
    baer_indices,
    class3_subspace_probe,
    derived_series,
    engel_degree,
    lower_central_series,
    neumann_extract,
    neumann_pareto,
    power_closure_radius,
    upper_central_series,
)
from .bias import (
    MultilinearMap,
    StructuredExpression,
    Term,
    bias_probability,
    family_quad_expression,
    family_quad_map,
    family_trilinear_expression,
    family_trilinear_map,
    trilinear_lower_bound,
    verify_expression,
)

__version__ = "0.1.0"
