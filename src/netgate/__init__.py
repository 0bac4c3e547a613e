"""netgate: simulate cluster-randomized A/B tests on interference networks
and estimate the global average treatment effect.

Submodules: graph (networks and interior/boundary decomposition), community
(Louvain clustering), design (randomization and exposure), outcomes
(potential-outcome models), predictor (counterfactual regression),
estimators (the point-estimator family), harness (Monte Carlo experiments),
sbm (synthetic graphs), oracles (exact enumeration checks).
"""

import os
import sys

__version__ = "0.1.0"

# One BLAS thread per process unless the environment says otherwise: each cell's
# BLAS calls are small, a BLAS thread pool stalls them, and the table runs its own
# worker processes (fork). The variables are read when numpy loads, so set them before.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

# The names the README's library example imports; everything else is
# imported from its submodule.
from .graph import load_edge_list  # noqa: E402,F401
from .community import louvain  # noqa: E402,F401
from .design import draw  # noqa: E402,F401
from .outcomes import linear_two_hop  # noqa: E402,F401
from .estimators import estimate_all  # noqa: E402,F401
