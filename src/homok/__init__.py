"""Exact invariants of homogeneous function groups on finite abelian groups."""

__version__ = "0.1.0"

from .arith import divisors, factorize, is_prime, vp
from .bracket import (
    GradedPresentation,
    Target,
    graded_presentation,
    hom_invariants,
    project_element,
    sylow_decomposition_invariants,
)
from .cocyclic import (
    SK1Report,
    cocyclic_subgroups,
    sk1_invariants,
    sk1_sylow_check,
)
from .functions import (
    FunctionTable,
    from_coordinates,
    from_generator_values,
    is_homogeneous,
    to_coordinates,
)
from .groups import (
    CapExceededError,
    Group,
    GroupSpecError,
    InternalInvariantError,
    RationalResidue,
    all_abelian_groups,
    cyclic_subgroups,
    element_order,
    parse_group_spec,
    sylow_decompose,
)
from .orders import higher_order, higher_order_oracle, vp_factorial
from .snf import cokernel_invariants, smith_normal_form, subgroup_invariants
from .transfer import (
    InducedGradedMap,
    induced_graded_map,
    preimage_sum,
    pullback,
    transfer_apply,
)
from .verify import available_suites, run_suite

__all__ = [
    "__version__",
    "divisors", "factorize", "is_prime", "vp",
    "GradedPresentation", "Target", "graded_presentation", "hom_invariants",
    "project_element", "sylow_decomposition_invariants",
    "SK1Report", "cocyclic_subgroups", "sk1_invariants",
    "sk1_sylow_check",
    "FunctionTable", "from_coordinates", "from_generator_values",
    "is_homogeneous", "to_coordinates",
    "CapExceededError", "Group", "GroupSpecError", "InternalInvariantError",
    "RationalResidue",
    "all_abelian_groups", "cyclic_subgroups", "element_order",
    "parse_group_spec", "sylow_decompose",
    "higher_order", "higher_order_oracle", "vp_factorial",
    "cokernel_invariants", "smith_normal_form", "subgroup_invariants",
    "InducedGradedMap", "induced_graded_map", "preimage_sum", "pullback",
    "transfer_apply",
    "available_suites", "run_suite",
]
