"""What the traced run wraps and counts, and what each workload's stages are.

The names, units and bounds of the reported metrics live in BENCHMARK.json
at the repository root, which run.py reads.  This module imports nothing
from nilprob or numpy, so the orchestrator can use it before any child
starts.
"""

# Each workload runs three timed stages; STAGES names them per workload.
STAGES = {
    "family-mc": ("mc (2,2) 1 thread", "mc (2,2) 2 threads", "mc (3,2) 1 thread"),
    "family-exact": ("exact stats", "norm queries", "certificates"),
    "table-structure": ("table stats", "cli series+neumann", "pareto lattice"),
}

# Traced entry points: (metric prefix, module, class or None, attribute).
# A prefix listed twice sums two implementations of one entry point (the
# family group and the Cayley-table group).
SPANS = (
    ("batch.mul", "nilprob._batch", "BatchAlg", "mul"),
    ("batch.grp_inv", "nilprob._batch", "BatchAlg", "grp_inv"),
    ("batch.grp_mul", "nilprob._batch", "BatchAlg", "grp_mul"),
    ("batch.commutator", "nilprob._batch", "BatchAlg", "commutator"),
    ("batch.random_l1", "nilprob._batch", "BatchAlg", "random_l1"),
    ("batch.is_identity", "nilprob._batch", "BatchAlg", "is_identity"),
    ("batch.lie3", "nilprob._batch", "BatchAlg", "lie3"),
    ("batch.lie4", "nilprob._batch", "BatchAlg", "lie4"),
    ("algebra.alg_mul", "nilprob.algebra", None, "alg_mul"),
    ("groups.class_size", "nilprob.groups", "AlgebraGroup", "class_size"),
    ("groups.class_size", "nilprob.groups", "TableGroup", "class_size"),
    ("groups.conjugacy_classes", "nilprob.groups", "AlgebraGroup", "conjugacy_classes"),
    ("groups.conjugacy_classes", "nilprob.groups", "TableGroup", "conjugacy_classes"),
    ("groups.conjugacy_orbit", "nilprob.groups", "AlgebraGroup", "conjugacy_orbit"),
    ("groups.conjugacy_orbit", "nilprob.groups", "TableGroup", "conjugacy_orbit"),
    ("groups.subgroup_closure", "nilprob.groups", None, "subgroup_closure"),
    ("groups.TableGroup.__init__", "nilprob.groups", "TableGroup", "__init__"),
    ("stats.d1_exact", "nilprob.stats", None, "d1_exact"),
    ("stats.d2_exact", "nilprob.stats", None, "d2_exact"),
    ("stats.dk_monte_carlo", "nilprob.stats", None, "dk_monte_carlo"),
    ("stats.covering_check", "nilprob.stats", None, "covering_check"),
    ("stats.covering_minimal_S", "nilprob.stats", None, "covering_minimal_S"),
    ("stats.commutator_set", "nilprob.stats", None, "commutator_set"),
    ("stats.conjugacy_norm", "nilprob.stats", None, "conjugacy_norm"),
    ("stats.clopper_pearson", "nilprob.stats", None, "clopper_pearson"),
    ("structure.subgroups", "nilprob.structure", None, "subgroups"),
    ("structure.neumann_pareto", "nilprob.structure", None, "neumann_pareto"),
    ("structure.neumann_extract", "nilprob.structure", None, "neumann_extract"),
    ("structure.lower_central_series", "nilprob.structure", None, "lower_central_series"),
    ("structure.upper_central_series", "nilprob.structure", None, "upper_central_series"),
    ("structure.derived_series", "nilprob.structure", None, "derived_series"),
    ("structure.engel_degree", "nilprob.structure", None, "engel_degree"),
    ("structure.class3_subspace_probe", "nilprob.structure", None, "class3_subspace_probe"),
    ("fieldlin.rref", "nilprob.fieldlin", None, "rref"),
    ("fieldlin.matrix_rank", "nilprob.fieldlin", None, "matrix_rank"),
    ("fieldlin.nullspace", "nilprob.fieldlin", None, "nullspace"),
    ("bias.verify_expression", "nilprob.bias", None, "verify_expression"),
    ("bias.bias_probability", "nilprob.bias", None, "bias_probability"),
    ("tables.corpus", "nilprob.tables", None, "corpus_group"),
    ("tables.corpus", "nilprob.tables", None, "corpus"),
    ("cli.main", "nilprob.cli", None, "main"),
)

# Work counters, filled by the wrappers in tracing.py.
COUNTERS = (
    "groups.orbit_elements",
    "stats.mc_chunks",
    "structure.subgroups_found",
    "bias.points_checked",
)


def span_prefixes() -> list[str]:
    return list(dict.fromkeys(prefix for prefix, *_ in SPANS))
