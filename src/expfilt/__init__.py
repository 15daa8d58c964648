"""Degree and exponential-degree filtrations on rational modules over F_p for
the additive group and the upper unitriangular groups U_N, with the supporting
machinery: divided-power distribution families, truncated exponentials of
p-nilpotent matrices, Jordan-type freeness tests at 1-parameter subgroups, and
mock-triviality / Frobenius-kernel freeness checks.
"""

from .coalgebras import CoalgebraId, ga_poly, ga_trunc, mat_poly, un_poly, un_trunc
from .comodule import (
    CoalgebraSubspace,
    Comodule,
    FreenessVerdict,
    JordanType,
    coideal_preimage,
    degree_below,
    degree_filtration,
    dual_action,
    generated_submodule,
    jordan_type,
    local_freeness,
    radical_quotient_dim,
    restrict_frobenius,
    trivial_comodule,
    validate,
)
from .expdeg import (
    NilpotentMatrix,
    SymbolicNilpotentDomain,
    coalg_exp_degree,
    coalg_filtration_piece,
    exp_pullback,
    exponential_degree,
    exponential_height,
    frobenius_twist,
    ga_exp_filtration,
    mock_trivial_check,
    module_exp_filtration,
    relate_inclusions_check,
)
from .fpcomb import PrimeField, binom_mod, digit_dominates
from .ga import (
    GaUFamily,
    carries_basis,
    comodule_to_family,
    degree_filtration_ga,
    derived_v,
    family_to_comodule,
    ga_one_param_theta,
    regular_comodule,
    retract_iso_check,
    y_r_family,
)
from .linalg import Subspace
from .polyring import MultiPoly, format_poly, parse_poly
from .support import (
    OneParamSubgroup,
    frobenius_injectivity_check,
    ga_psg,
    is_free_at,
    pullback_module,
    support_sample,
    theta_operator,
    un_psg,
    validate_1psg,
)
from .un import (
    UNContext,
    degree_filtration_un,
    degree_piece,
    frobenius_kernel_dims,
    natural_rep,
    sym_square_rep,
)

__version__ = "0.1.0"

# The F_p kernels have one implementation, ``_kernels.pure``.
KERNEL_BACKEND = "pure"

__all__ = [name for name in dir() if not name.startswith("_")]
