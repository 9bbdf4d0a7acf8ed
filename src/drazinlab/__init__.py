"""Exact Drazin/group-inverse computation over the Gaussian rationals,
plus verification of the side-condition transfer identities."""

from .errors import (
    ConditionsViolatedError,
    GenerationExhaustedError,
    IdentityFalsifiedError,
    InternalInvariantError,
    NoGroupInverseError,
    ParseError,
    ShapeError,
    SingularMatrixError,
)
from .matrices import (
    GaussianRational,
    Matrix,
    block_diag,
    inverse,
    null_space_basis,
    one_inverse,
    rank,
    rref,
    solve,
)
from .drazin import (
    DrazinData,
    certify_drazin,
    commutant_basis,
    drazin,
    group_inverse,
    in_double_commutant,
    index_of,
    nilpotency_index,
    oracle_drazin,
    random_commutant_element,
)
from .transfer import (
    ConditionReport,
    Quadruple,
    TransferOutcome,
    check_conditions,
    check_strong_conditions,
    check_triple_conditions,
    jacobson_drazin,
    jacobson_inverse,
    power_instance,
    transfer_drazin,
    transfer_gdrazin,
    transfer_group,
)

__version__ = "0.1.0"
