"""Communication-constrained distributed sparse linear regression.

Machines fit debiased lasso estimates locally and send a few standardized
index votes (or signs, or dense estimates) to a fusion center, which selects
a support set and coordinates a second round of restricted least squares.
Includes baselines, closed-form feasibility calculators, and a seeded
Monte-Carlo harness with bit-exact communication accounting. Data are
stacked: each design is one (M, n, d) array, one slab per machine.
"""

from .datagen import GroundTruth, ProblemSpec
from .debias import PrecisionEstimate
from .fusion import SupportEstimate, VoteTally
from .harness import ExperimentConfig, ExperimentRecord, run_sweep
from .protocol import Message
from .theory import RegimeReport

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec",
    "GroundTruth",
    "PrecisionEstimate",
    "Message",
    "VoteTally",
    "SupportEstimate",
    "RegimeReport",
    "ExperimentConfig",
    "ExperimentRecord",
    "run_sweep",
    "__version__",
]
