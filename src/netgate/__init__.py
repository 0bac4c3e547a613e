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
# worker threads. The variables are read when numpy loads, so set them before.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .graph import (  # noqa: E402,F401
    Graph,
    Partition,
    decompose,
    load_edge_list,
    read_partition,
    write_partition,
)
from .community import ClusteringStats, louvain, modularity, stats  # noqa: F401
from .design import (  # noqa: F401
    AssignmentAtom,
    TreatmentDraw,
    draw,
    enumerate_assignments,
)
from .outcomes import (  # noqa: F401
    LinearTwoHopModel,
    PartialLinearModel,
    interior_mean_gap,
    linear_two_hop,
    true_gate,
)
from .predictor import (  # noqa: F401
    FeatureMatrix,
    LinearPredictor,
    build_features,
    fit,
)
from .estimators import (  # noqa: F401
    DegenerateArmError,
    EstimateSet,
    amii,
    amii_ppi_form,
    cae,
    dim,
    estimate_all,
    gnn_point,
    hajek,
    ht,
    mii,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    SimulationReport,
    emit_report,
    run,
    verify_theorem2,
)
