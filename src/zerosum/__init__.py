"""Exact computations for product-one (zero-sum) sequences over metacyclic groups."""

from .groups import (
    Element,
    GroupSpec,
    Subgroup,
    factorize,
    mk_cyclic,
    mk_metacyclic,
    parse_group,
    stabilizer,
)
from .sequences import Sequence, parse_sequence_file
from .products import (
    BudgetExceeded,
    ProductWitness,
    SubproductSet,
    find_arrangement,
    has_product_one,
    pi_set,
    subproducts,
    verify_witness,
)
from .bounds import DgmReport, dgm_check
from .constants import (
    ConstantReport,
    check_template,
    classify_extremal,
    davenport_constant,
    gao_constant,
)
from .witnesses import (
    Decomposition,
    WitnessSearchExhausted,
    extract_product_h_blocks,
    find_big_product_one,
    improve_x_coverage,
    singleton_pi_structure,
)

__version__ = "0.1.0"

__all__ = [
    "Element", "GroupSpec", "Subgroup", "factorize", "mk_cyclic",
    "mk_metacyclic", "parse_group", "stabilizer",
    "Sequence", "parse_sequence_file",
    "BudgetExceeded", "ProductWitness", "SubproductSet", "find_arrangement",
    "has_product_one", "pi_set", "subproducts", "verify_witness",
    "DgmReport", "dgm_check",
    "ConstantReport", "check_template", "classify_extremal",
    "davenport_constant", "gao_constant",
    "Decomposition", "WitnessSearchExhausted", "extract_product_h_blocks",
    "find_big_product_one", "improve_x_coverage", "singleton_pi_structure",
]
