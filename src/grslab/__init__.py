"""grslab: biorthogonal function systems and their indefinite-metric checks.

The library builds, at finite truncation, dual families

    phi_n = exp(Q/2) e_n,    psi_n = exp(-Q/2) e_n

from a self-adjoint generator Q and an orthonormal basis {e_n}, and measures
every identity such pairs are supposed to satisfy: biorthogonality,
quasi-basis resolutions of the inner product, positivity of the quadratic
form phi_n -> psi_n, orthonormality in the parity-indefinite product,
first-type classification through JQ = -QJ, the C-symmetry operator
C = exp(Q) J with its positive metric, and eigen-residuals of the associated
non-self-adjoint differential operators.
"""

from .basis import (
    BasisSet,
    QuadratureRule,
    anharmonic_eigenbasis,
    gauss_hermite_rule,
    hermite_basis,
    hermite_function,
    hermite_function_table,
    uniform_trapezoid_rule,
)
from .catalog import (
    EXAMPLE_IDS,
    ExampleSpec,
    make_example,
    overlap_closed_form,
    overlap_matrices,
    overlap_quadrature,
)
from .csymmetry import (
    TypeClassification,
    c_tables,
    classify_type,
    expansion_residual,
    j_orthonormality_defect,
    krein_gram,
    krein_rows,
    partner_check,
    sign_sequence,
)
from .errors import (
    DomainError,
    GrammarError,
    GrslabError,
    MagnitudeError,
    NotJOrthonormalError,
    NumericError,
    PoleError,
    ResolutionError,
    StructureError,
)
from .grs import (
    BiorthogonalSystem,
    biorthogonality_defect,
    build_system,
    family_samples,
    g0_quadratic_check,
    gq_basis_defect,
    truncated,
    weighted_gram,
    weighted_inner,
    weighted_product,
)
from .hamiltonian import DifferentialHamiltonian, eigen_residual, fd_apply, fd_matrix
from .krein import (
    CoefficientRep,
    FunctionRep,
    SampleRep,
    apply_parity,
    evaluate,
    gram_matrix,
    inner,
    krein_inner,
    to_samples,
    unit_vector,
)
from .metric_ops import (
    MetricOperatorQ,
    Multiplication,
    ParityAnticommutation,
    TranslationGenerator,
    anticommutes_with_parity,
    apply_exp_q,
    decay_scores,
)
from .specfun import Hyp2F1Terminating, hyp2f1_terminating, log_gamma

__version__ = "0.1.0"
