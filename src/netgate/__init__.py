"""netgate: simulate cluster-randomized A/B tests on interference networks
and estimate the global average treatment effect.

Submodules: graph (networks and interior/boundary decomposition), community
(Louvain clustering), design (randomization and exposure), outcomes
(potential-outcome models), predictor (counterfactual regression),
estimators (the point-estimator family), harness (Monte Carlo experiments),
sbm (synthetic graphs), oracles (exact enumeration checks).
"""

__version__ = "0.1.0"

from .graph import (  # noqa: E402,F401
    Graph,
    Partition,
    decompose,
    load_edge_list,
    read_partition,
    write_edge_list,
    write_partition,
)
from .community import ClusteringStats, louvain, modularity, stats  # noqa: F401
from .design import (  # noqa: F401
    AssignmentAtom,
    TreatmentDraw,
    draw,
    enumerate_assignments,
    exposure,
    exposure_probability,
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
    predict_counterfactual,
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
