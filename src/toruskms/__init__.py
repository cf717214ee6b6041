"""Equilibrium states on rotation-twisted occupation algebras and their towers.

The package computes the closed-form Gibbs-like states of a family of
operator algebras generated by torus rotations and shift isometries, carries
them up a tower of finite-index refinements, and cross-checks every closed
form against independent numerical routes: adaptive quadrature for the
Laplace averages, truncated occupation sums for the states, dense matrix
models for the multiplication engine, and iterated limits for the inverse
transforms.

Modules:
  torus_measure     torus measures as complex moment oracles + positivity
  scenario          tower data (rotation matrices, rates, refinement maps)
  subinvariance     the four moment transforms and their defect measures
  toeplitz_algebra  finite word combinations, multiplication, dynamics, states
  solenoid_limit    measure threads, level embeddings, the limit state
  oracle            independent numerical routes for everything above
  suites            named verification checks and report rendering
  cli               the command line front end
"""

from .torus_measure import (
    AtomicMeasure,
    FourierTableMeasure,
    MappedIndexMeasure,
    MultipliedMeasure,
    OutOfBox,
    PositivityVerdict,
    SingularMatrix,
    TorusMeasure,
    UniformMeasure,
    atomic_from_json,
    atomic_to_json,
    moment,
    moment_table,
    positivity_test,
    pushforward_dual,
    translate,
    write_moment_csv,
)
from .scenario import (
    Dimensions,
    LevelData,
    NonNonnegativeTheta,
    Scenario,
    SingularE,
    derive_levels,
    derive_next_level,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from .subinvariance import (
    BlockParams,
    InvalidBlock,
    MeetNotZero,
    NegativeInput,
    NegativeS,
    NotSubinvariant,
    check_subinvariance,
    defect_measure_cts,
    defect_measure_finite,
    kappa_from_nu,
    mu_from_nu,
    nu_from_kappa,
    nu_from_mu,
    numeric_limit_mu,
)
from .toeplitz_algebra import (
    AlgebraElement,
    LevelMismatch,
    Word,
    WordParseError,
    adjoint,
    apply_dynamics,
    join,
    kms_residual,
    multiply,
    parse_word,
    state_eval,
)
from .solenoid_limit import (
    IncompatibleThread,
    InvalidThread,
    LevelConstants,
    SolenoidMeasureThread,
    TopLevel,
    build_thread,
    consistency_residual,
    embed_element,
    embed_word,
    level_constants,
    normalized_nu,
    preimage_points,
    psi_eval,
    sigma_map,
    thread_from_json,
    validate_thread,
)
from .oracle import (
    FockTruncation,
    QuadratureSpec,
    ThetaZero,
    bhs_reconciliation,
    fock_dense_state,
    fock_element_matrix,
    fock_state_eval,
    fock_tail_bound,
    fock_word_matrix,
    geometric_tail_fraction,
    laplace_quadrature,
    truncated_inverse_moment,
)
from .suites import (
    CHECKS,
    SUITES,
    StateReport,
    SuiteConfig,
    overall_pass,
    render_csv,
    render_json,
    render_text,
    run_checks,
    run_suite,
)

__version__ = "0.1.0"
