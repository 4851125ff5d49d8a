"""Two-precision solvers for Sylvester (AX + XB = C) and Lyapunov
(AX + XA* = C) matrix equations.

The package simulates reduced floating-point precision in software, so
"computing in a low precision" is a contract enforced by rounding every
scalar operation, and builds on it direct solvers, two-precision
refinement solvers, a Schur-preconditioned GMRES refinement, and a
flop-ratio cost model.
"""

from .cli import ProblemGenerator, generate
from .costmodel import (
    ALGORITHMS,
    CostModel,
    Crossover,
    FlopCount,
    crossover_rho,
    flops,
    flops_gmres_ir,
    k_star,
    phi,
)
from .errors import (
    DimensionError,
    Failure,
    FormatOverflowError,
    IterationLimitError,
    MatrixMarketError,
    MpsylvError,
    NonFiniteInputError,
    NotHermitianError,
    NumericBreakdownError,
    PrecisionOverflowWarning,
    RankDeficiencyError,
    SingularEquationError,
    SingularMatrixError,
)
from .gmresir import GmresConfig, GmresIrReport, apply_preconditioner, gmres_ir_sylv
from .linalg import (
    LuFactors,
    QrFactors,
    SchurFactors,
    cond_inf,
    gemm,
    hermitian_eig,
    householder_qr,
    kron_matrix,
    lu,
    lu_solve,
    mgs_qr,
    norm,
    schur,
    sep_f,
    sylvester_kron_operator,
    unvec,
    vec,
)
from .mmio import read_matrix, write_matrix
from .precision import (
    B24,
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    TF32,
    FORMATS,
    FlopCounter,
    FpFormat,
    PrecisionContext,
    fl_add,
    fl_div,
    fl_mul,
    fl_sqrt,
    fl_sub,
    fl_sum,
    format_from_name,
    parse_format,
    round_complex,
    round_matrix,
    round_to,
)
from .refinement import (
    ConvergenceRegime,
    RefinementConfig,
    SolveReport,
    check_convergence_regime,
    ir_linear_system,
    mp_inv,
    mp_orth,
)
from .sylvester import (
    DirectSolveReport,
    SylvesterProblem,
    bartels_stewart,
    residual,
    solution_norm_bound,
    solve_hermitian,
    solve_sylv_tri,
)

__version__ = "0.1.0"
