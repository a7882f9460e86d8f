"""Named numeric defaults.

Every tolerance or size that appears in a verification report is traceable to
one of the names below (or to an explicit CLI flag).  Tests pin against these
values; change them here, nowhere else.
"""

# --- representation limits -------------------------------------------------
HERMITE_MAX_DEGREE = 512        # highest Hermite index the recurrences accept
IM_Z_BOUND = 4.0                # |Im z| cap for analytic Hermite evaluation
SHIFT_CAP = 1.0                 # default |a| cap for translation generators
SHIFT_CAP_MAX = 2.0             # hard cap; conditioning degrades like e^{a^2/2}

# --- discretization heuristics ----------------------------------------------
DEFAULT_N = 16                  # default truncation size
DEFAULT_A = 0.5                 # default shift for the translated-basis example
DEFAULT_BETA = 4.0              # default anharmonic exponent
DEFAULT_NMAX = 12               # default index cap for overlap comparisons
RNG_SEED = 20250809             # seed for every randomized suite (determinism)
GQ_TEST_BASIS = 64              # expansion length of the Gaussian test function
QUAD_ORDER_PAD = 40             # Gauss-Hermite order = 2N + pad
GRID_MARGIN = 6.0               # uniform half-width = sqrt(2N+1) + margin
POINTS_PER_UNIT = 16            # minimum uniform-grid density
FD_HALF_WIDTH = 12.0            # default finite-difference half-width
FD_POINTS = 4000                # default finite-difference point count
FD_MIN_POINTS = 500

# --- tolerances --------------------------------------------------------------
TOL_BIORTH = 1e-8               # biorthogonality defect, analytic bases
TOL_BIORTH_NUMERIC = 1e-7       # same, numerically computed bases
TOL_KREIN = 1e-6                # indefinite-orthonormality defect
TOL_ODDNESS = 1e-12             # max-norm oddness test for multiplication symbols
TOL_PARTNER = 1e-8              # partner identity, analytic bases
TOL_PARTNER_NUMERIC = 1e-7
TOL_C_SQUARED = 1e-8
TOL_SPLIT = 1e-8                # fundamental-split identities
TOL_EXPANSION = 1e-8            # indefinite expansion residual on span functions
TOL_WEIGHTED_ONB = 1e-8         # weighted orthonormality of the dual families
TOL_G0 = 1e-7                   # quadratic-form agreement with sum |c_n|^2
TOL_GQ = 1e-6                   # quasi-basis resolution defect at N >= 32
TOL_EIGEN_RESIDUAL = 5e-3       # FD eigen-residual, analytic eigenfunctions
TOL_EIGEN_RESIDUAL_NUMERIC = 1e-2
TOL_OVERLAP_REL = 1e-8          # closed form vs quadrature, even index sum
TOL_OVERLAP_ODD = 1e-12         # quadrature magnitude, odd index sum
TOL_SPOT = 1e-10                # closed-form spot values (radical-scope pin)
TOL_JITTER = 1e-12              # slack for monotone-decrease assertions
VERDICT_TOL = 0.5               # verdict-match checks encode pass as 0, fail as 1
WITNESS_MARGIN = 0.18           # required | |[phi_0,phi_0]| - 1 | for the negative result
DECAY_THRESHOLD = 0.9           # minimum domain-decay score accepted at build
BOUNDARY_MASS = 1e-8            # relative boundary magnitude allowed in FD checks
PARITY_CHECK_TOL = 1e-8         # numeric-eigenvector parity purity

EXP_ARG_LIMIT = 700.0           # exp() argument beyond which doubles overflow
