"""Exact arithmetic in quandle rings: tables, coverings, idempotents.

The package keeps every computation in integers, residues, or
Fractions; reports state the scope they are exhaustive for and never
claim more.

`import quandlekit` executes only `core` and `errors`.  The other
submodules are registered in `sys.modules` and bound here at import, but
each executes on its first attribute access, so a command that only
checks tables never compiles the ring, search or free-quandle code.  The
public names are served from `_EXPORTS` on first use (PEP 562).
"""

import importlib.util
import sys

from . import core, errors


def _lazy(name: str):
    """The submodule `name`, registered now and executed on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


ring = _lazy("ring")
reports = _lazy("reports")
_search_kernel = _lazy("_search_kernel")
idempotents = _lazy("idempotents")
free = _lazy("free")

# submodule name -> the public names it serves
_EXPORTS = {
    "core": (
        "CocycleData", "CocycleReport", "Covering", "FiniteQuandle", "MagmaTable",
        "QuandleHom", "QuandleProperties", "check_covering", "cocycle_extension",
        "conj_quandle", "core_quandle", "dihedral_quandle", "find_coverings",
        "fixed_points", "from_right_mults", "inner_orbits", "load_quandle", "make",
        "perm_cycles", "perm_inverse", "perm_order", "product_quandle", "properties",
        "quandle_from_json", "trivial_quandle", "trivial_subquandles",
        "twisted_union_quandle", "union_quandle", "validate_cocycle", "validate_table",
    ),
    "errors": (
        "BudgetExceededError", "CarrierMismatchError", "CompositeModulusError",
        "ConstraintViolatedError", "CoveringConditionError", "HypothesisFailedError",
        "IndexOutOfRangeError", "InternalCheckError", "InvalidParamsError",
        "NotIdempotentError", "NotIdempotentInputError", "NotNilpotentError",
        "NotPermutationError", "NotRightDistributiveError", "NotSurjectiveError",
        "QuandleKitError", "RingMismatchError", "SearchBudgetExceededError",
    ),
    "free": (
        "FreeQuandle", "FreeQuandleElement", "LeftAssocExpr", "canonicalize_expr",
        "enumerate_elements", "eval_expr", "fq_idempotent_search", "fq_op", "generator",
        "left_assoc_product", "length", "products_stay_long", "parse_element",
        "parse_expr", "reduce_word", "render_expr", "word_inv", "word_mul",
    ),
    "idempotents": (
        "ClassifyResult", "CoveringFamilyParams", "FamilyVerifyReport",
        "IdempotentSetReport", "SearchSpec", "conjecture_scan",
        "core_three_support_check", "covering_classify", "covering_family_params",
        "covering_family_verify", "covering_idempotent", "dihedral_even_family",
        "enumerate_boxed_Z", "enumerate_mod_p", "family_params_from_json",
        "idempotent_quandle_check", "right_zero_divisor_from_fiber",
        "twisted_union_classify", "union_cross_check", "union_idempotents",
    ),
    "reports": ("IdempotentReport",),
    "ring": (
        "QQ", "ZZ", "CoeffRing", "IntegersMod", "RingElement", "SquareMatrix",
        "augmentation", "basis", "dense_product", "element_from_json", "element_to_json",
        "has_nontrivial_right_annihilator", "is_idempotent", "is_ring_endomorphism",
        "kernel_vector", "mul", "orbit_sum", "right_mult_matrix", "ring_from_tag",
        "scalar_mul", "zero",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = globals()[_SOURCE[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | _SOURCE.keys())
