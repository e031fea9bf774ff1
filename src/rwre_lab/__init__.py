"""Simulation and verification lab for walks in random lattice environments.

Modules
-------
environments   environment laws on Z^d and deterministic realizations
walks          path batches, the annealed path moment and the forward evolution
tilting        the drifted auxiliary walk and its change of measure
decomposition  forced-symbol product decomposition and stopping machinery
estimators     rate points and the quenched/annealed gap
cli            command line front end (rwre-lab)
"""

import os

# Every computation here runs on one thread, and numpy's import would otherwise
# start an OpenBLAS worker per core; a value the user sets still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .decomposition import (EpsilonLaw, StoppingConfig, conditional_step_probs,
                            default_kbar, expected_tau, make_epsilon_law, psi_factor,
                            sample_tau_batch, verify_psi_identity)
from .environments import (Box, Environment, IIDProductLaw, MarkovFieldLaw, centered_box,
                           direction_index, direction_vectors, sample_environment)
from .estimators import GapReport, RatePointEstimate, certify_gap, rate_point
from .numutil import BudgetError
from .tilting import (TiltParams, solve_tilt, tilt_invariant_residuals,
                      verify_identity_annealed, verify_identity_quenched)

__version__ = "0.1.0"
