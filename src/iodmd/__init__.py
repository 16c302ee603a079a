"""System identification of discrete-time LTI models from trajectory data.

The pipeline: excite a plant to get trajectories, split them into snapshot
pairs, compress states through a POD basis, fit the state-space blocks by
an input-output DMD least-squares solve, and optionally stabilize the
result by constrained optimization.
"""

from .linalg import *  # noqa: F401,F403 - each module's __all__ is its public list
from .snapshot import *  # noqa: F401,F403
from .pod import *  # noqa: F401,F403
from .identify import *  # noqa: F401,F403
from .plant import *  # noqa: F401,F403
from .excite import *  # noqa: F401,F403
from .stabilize import *  # noqa: F401,F403 - the function stabilize shadows its module
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"
