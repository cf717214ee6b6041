"""Equilibrium states on rotation-twisted occupation algebras and their towers.

The package computes the closed-form Gibbs-like states of a family of
operator algebras generated by torus rotations and shift isometries, carries
them up a tower of finite-index refinements, and cross-checks every closed
form against independent numerical routes: composite Gauss-Legendre
quadrature for the Laplace averages, with a panel count set from the block
and the index, truncated occupation sums for the states, dense matrix
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

The public API is the union of the submodules' ``__all__`` lists, each
re-exported here; ``toruskms.cli`` is reached as a module.
"""

from . import oracle, scenario, solenoid_limit, subinvariance, suites, toeplitz_algebra
from . import torus_measure
from .oracle import *
from .scenario import *
from .solenoid_limit import *
from .subinvariance import *
from .suites import *
from .toeplitz_algebra import *
from .torus_measure import *

__all__ = [
    name
    for module in (
        torus_measure, scenario, subinvariance, toeplitz_algebra, solenoid_limit, oracle, suites
    )
    for name in module.__all__
]

__version__ = "0.1.0"
