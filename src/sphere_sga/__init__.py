"""Spectrum generating algebra of the free particle on the three-sphere.

Quantum side: finite matrix representations of the fifteen generators on
truncated harmonic-polynomial spaces, with a verification battery for the
commutation relations, restrictive tensors, Casimirs, spectrum and ladder
structure.  Classical side: Dirac-bracket dynamics with time-dependent
constants of motion and a finite-difference bracket oracle.
"""

from .algebra import (
    GENERATORS,
    GeneratorIndex,
    LinearCombo,
    Metric,
    SO42_METRIC,
    commutator_rhs,
    defining_representation,
    jacobi_residual,
    metric,
    tensor_R,
    tensor_T,
)
from .classical import (
    AmbientState,
    PhaseState,
    Trajectory,
    ambient_map,
    analytic_solution,
    analytic_trajectory,
    check_motion_constants,
    dirac_bracket_basis,
    generator_array,
    integrate,
    poisson_oracle,
)
from .hilbert import (
    Polynomial4,
    TruncatedSpace,
    harmonic_basis,
    laplacian,
    monomials,
    orthonormalize,
    sphere_inner,
    sphere_integral,
)
from .operators import (
    OperatorRep,
    OperatorSet,
    assemble_so42,
    build_H,
    build_J,
    build_P,
    build_V,
    build_X,
    build_h,
    build_ladder,
)
from .report import CheckResult, VerificationReport
from .verify import (
    build_eigenstates,
    check_casimirs,
    check_commutators,
    check_f_recursion,
    check_restrictive,
    check_spectrum,
    f_scalar,
    run_suite,
    so3_demo,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientState",
    "CheckResult",
    "GENERATORS",
    "GeneratorIndex",
    "LinearCombo",
    "Metric",
    "OperatorRep",
    "OperatorSet",
    "PhaseState",
    "Polynomial4",
    "SO42_METRIC",
    "Trajectory",
    "TruncatedSpace",
    "VerificationReport",
    "ambient_map",
    "analytic_solution",
    "analytic_trajectory",
    "assemble_so42",
    "build_H",
    "build_J",
    "build_P",
    "build_V",
    "build_X",
    "build_eigenstates",
    "build_h",
    "build_ladder",
    "check_casimirs",
    "check_commutators",
    "check_f_recursion",
    "check_motion_constants",
    "check_restrictive",
    "check_spectrum",
    "commutator_rhs",
    "defining_representation",
    "dirac_bracket_basis",
    "f_scalar",
    "generator_array",
    "harmonic_basis",
    "integrate",
    "jacobi_residual",
    "laplacian",
    "metric",
    "monomials",
    "orthonormalize",
    "poisson_oracle",
    "run_suite",
    "so3_demo",
    "sphere_inner",
    "sphere_integral",
    "tensor_R",
    "tensor_T",
]
