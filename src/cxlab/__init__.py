"""cxlab: a verification laboratory for Carleson embedding lemmas on
dyadic trees and bi-trees — Hardy operators, exact counterexample
generators, and the bi-tree capacity experiment."""

from .trees import (
    BiNode,
    BiTreeDomain,
    DomainError,
    NodeAddress,
    PreconditionError,
    ResourceError,
    SparseFn,
    TreeDomain,
    format_node,
    parse_node,
)
from .hardy import (
    PointMeasure,
    energy,
    eval_hardy_down,
    eval_hardy_up,
    kernel,
    potential,
)
from .structure import (
    ExponentPair,
    check_power_superadditive,
    is_increasing,
    is_superadditive,
    special_form_g,
)
from .lemmas import (
    LemmaReport,
    build_phi,
    verify_I2_positive,
    verify_gest,
    verify_inter,
    verify_linf,
    verify_new23,
    verify_supadditive_l1linf,
)
from .counterexamples import (
    gen_cex_direct,
    gen_cex_increasing,
    gen_cex_new23,
    gen_cex_p_less_2,
    search_new23,
)
from .capacity import (
    BitreeInstance,
    EquilibriumResult,
    build_instance,
    capacity_bruteforce,
    check_lemma_g,
    equilibrium,
    prefix_capacity,
    report_d2,
)

__version__ = "0.1.0"
