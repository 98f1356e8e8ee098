"""The package namespace: its public names and where each one lives."""

import sys

import pytest

import quandlekit

# submodule -> the public names `quandlekit` re-exports from it
PUBLIC = {
    "core": """
        CocycleData CocycleReport Covering FiniteQuandle MagmaTable QuandleHom
        QuandleProperties check_covering cocycle_extension conj_quandle core_quandle
        dihedral_quandle find_coverings fixed_points from_right_mults inner_orbits
        load_quandle make perm_cycles perm_inverse perm_order product_quandle properties
        quandle_from_json trivial_quandle trivial_subquandles twisted_union_quandle
        union_quandle validate_cocycle validate_table
    """,
    "errors": """
        BudgetExceededError CarrierMismatchError CompositeModulusError
        ConstraintViolatedError CoveringConditionError HypothesisFailedError
        IndexOutOfRangeError InternalCheckError InvalidParamsError NotIdempotentError
        NotIdempotentInputError NotNilpotentError NotPermutationError
        NotRightDistributiveError NotSurjectiveError QuandleKitError RingMismatchError
        SearchBudgetExceededError
    """,
    "free": """
        FreeQuandle FreeQuandleElement LeftAssocExpr canonicalize_expr enumerate_elements
        eval_expr fq_idempotent_search fq_op generator left_assoc_product length
        products_stay_long parse_element parse_expr reduce_word render_expr word_inv
        word_mul
    """,
    "idempotents": """
        ClassifyResult CoveringFamilyParams FamilyVerifyReport IdempotentSetReport
        SearchSpec conjecture_scan core_three_support_check covering_classify
        covering_family_params covering_family_verify covering_idempotent
        dihedral_even_family enumerate_boxed_Z enumerate_mod_p family_params_from_json
        idempotent_quandle_check right_zero_divisor_from_fiber twisted_union_classify
        union_cross_check union_idempotents
    """,
    "reports": "IdempotentReport",
    "ring": """
        QQ ZZ CoeffRing IntegersMod RingElement SquareMatrix augmentation basis
        dense_product element_from_json element_to_json has_nontrivial_right_annihilator
        is_idempotent is_ring_endomorphism kernel_vector mul orbit_sum right_mult_matrix
        ring_from_tag scalar_mul zero
    """,
}
SOURCE = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_all_lists_the_public_names_once():
    assert len(SOURCE) == 108
    assert sorted(quandlekit.__all__) == sorted(SOURCE)
    assert len(set(quandlekit.__all__)) == len(quandlekit.__all__)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodules_object(module):
    sub = getattr(quandlekit, module)
    assert sub is sys.modules[f"quandlekit.{module}"]
    for name in PUBLIC[module].split():
        assert getattr(quandlekit, name) is getattr(sub, name), name


def test_dir_lists_the_names_and_unknown_names_raise():
    listed = dir(quandlekit)
    assert set(SOURCE) <= set(listed)
    assert {*PUBLIC, "_search_kernel", "__version__"} <= set(listed)
    with pytest.raises(AttributeError, match="no_such_name"):
        quandlekit.no_such_name
    with pytest.raises(ImportError):
        from quandlekit import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from quandlekit import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == SOURCE.keys()
    assert all(namespace[name] is getattr(quandlekit, name) for name in SOURCE)
