"""Spectral laboratory for mixed local-nonlocal operators on an interval.

The package assembles the P1 finite element forms of -u'' + alpha (-Delta)^s u
with Dirichlet exterior condition, solves the resulting matrix pencil for any
real coupling alpha through a sharp coercivity shift, and provides the Peetre
K-functional / real-interpolation machinery on finite-dimensional Hilbert
couples together with the inequality checkers the spectral construction
relies on.
"""

from .errors import (
    AccuracyError,
    CoupleError,
    DimensionError,
    DomainError,
    MeasureError,
    MixSpecError,
    NormalizationError,
    OrderingError,
    ParameterError,
    RequestError,
    SizeError,
    UndefinedRatioError,
)
from .fem import (
    DiscreteFunction,
    Kind,
    Mesh1D,
    OperatorMatrix,
    assemble_fractional_stiffness,
    assemble_local_stiffness,
    assemble_mass,
    build_mesh,
    check_lebesgue_interpolation,
    gagliardo_seminorm,
    lp_norm,
)
from .interpolation import (
    HilbertCouple,
    Report,
    check_inclusion_monotonicity,
    check_interpolation_inequality,
    check_operator_interpolation,
    couple_from_grams,
    interpolation_norm,
    k2_functional,
    k_functional,
    operator_norm,
    spectral_s_norm,
    stack_couples,
    symmetry_check,
)
from .spectral import (
    MixedPencil,
    SpectrumResult,
    SweepTable,
    assemble_pencil,
    check_contract,
    embedding_constant,
    gamma_shift,
    locate_threshold,
    monotone_in_alpha,
    solve_spectrum,
    sweep_alpha,
    verify_brezis_inequality,
    verify_variational_characterization,
)

__version__ = "0.1.0"
