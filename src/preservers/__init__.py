"""Linear maps preserving pure states and separable pure states:
construction, application, and classification with certified parameters.
"""

from .errors import ClassificationError, ContractError, NumericError, StructureError
from .linalg import (
    EPS_CLS,
    EPS_HERM,
    PURITY_TOL,
    HermitianOperator,
    PureState,
    basis_state,
    eig_hermitian,
    herm,
    is_product_pure,
    is_pure,
    partial_trace,
    partial_transpose,
    permute_factors,
    pure_state,
    random_hermitian,
    random_pure,
    reduce_to_factor,
    swap_theta,
    tensor,
    tensor_all,
    trace_norm,
    uniform_state,
)
from .pure_analysis import (
    PureClassification,
    classify_pure_preserver,
    mc_verify_pure,
)
from .sep_analysis import (
    MultiClassification,
    SepClassification,
    check_both_directions,
    classify_multi_preserver,
    classify_sep_preserver,
    doubling_obstruction_check,
    mc_verify_product,
    slice_phi,
)
from .states import (
    PptResult,
    SeparableState,
    convex_mix,
    filter_apply,
    ppt_check,
    sample_separable,
    separable_from_mixed,
    separable_state,
)
from .superop import (
    CONJUGATE,
    LINEAR,
    Isometry,
    SEP_SOURCES,
    MultiForm,
    SepForm,
    SuperOperator,
    affine_to_linear,
    apply,
    canonical_multi,
    canonical_sep,
    compose,
    conjugation,
    from_action,
    identity_superop,
    inverse_sep_form,
    isometry,
    make_superop,
    random_isometry,
    random_unitary,
    superop_equal,
    to_choi,
    trace_replacer,
)

__version__ = "0.1.0"
