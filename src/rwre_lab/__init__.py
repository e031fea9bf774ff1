"""Simulation and verification lab for walks in random lattice environments.

Modules
-------
environments   environment laws on Z^d and deterministic realizations
tilting        the drifted auxiliary walk and its change of measure
decomposition  forced-symbol product decomposition and stopping machinery
estimators     rate points and the quenched/annealed gap
evolution      the forward evolution: exact point probabilities in one environment
identities     path batches and the exact identity oracles of ``verify``
numutil        exact sums, the site hash, seeds and deferred imports
cli            command line front end (rwre-lab)

Importing the package loads none of them: each subcommand loads only the
modules it runs.
"""

import os

# Every computation here runs on one thread, and numpy's import would otherwise
# start an OpenBLAS worker per core; a value the user sets still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
