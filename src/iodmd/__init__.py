"""System identification of discrete-time LTI models from trajectory data.

The pipeline: excite a plant to get trajectories, split them into snapshot
pairs, compress states through a POD basis, fit the state-space blocks by
an input-output DMD least-squares solve, and optionally stabilize the
result by constrained optimization.
"""

from .linalg import (
    SpectralRadiusGradient,
    SvdResult,
    machine_rank,
    pinv_apply,
    spectral_radius,
    spectral_radius_gradient,
    truncated_svd,
)
from .snapshot import (
    SnapshotPairs,
    TrajectoryData,
    load_trajectory_csv,
    make_pairs,
    project_pairs,
    save_trajectory_csv,
)
from .pod import PodBasis, pod_basis, pod_sweep
from .identify import (
    StateSpaceModel,
    fit_iodmd,
    fit_reduced_iodmd,
    load_model_json,
    save_model_json,
)
from .plant import (
    build_transport_plant,
    relative_output_error,
    simulate_continuous,
    simulate_discrete,
)
from .excite import (
    ExcitationSpec,
    generate_excitation,
    target_input,
)
from .stabilize import (
    NotStabilizedError,
    StabilizeReport,
    stabilize,
)
from .harness import (
    EXCITATIONS,
    ExperimentConfig,
    ExperimentRow,
    emit_tables,
    run_experiment,
)

__version__ = "0.1.0"
