"""Survivable path sets over shared fibers.

Model a logical network routed over physical fibers, ask which sets of
source-sink paths survive every single-fiber failure, and optimize either the
number of paths (MSP) or the number of distinct fibers lit (MFSP).  See the
README for the model, the algorithms, and the CLI.
"""

from .bench import BenchRow, ExperimentResult, run_experiment, solve_named
from .formats import (
    ParallelInstance,
    matrix_to_instance,
    packaged_instance,
    read_lnet,
    read_spn,
    write_lnet,
    write_spn,
)
from .instances import (
    RandomEnsembleConfig,
    decode_gadget_objective,
    gen_from_setcover,
    gen_mfsp_3setcover_gadget,
    gen_random_parallel,
)
from .lp import FractionalSolution, solve_mfsp_relaxation
from .mfsp import (
    RoundingConfig,
    check_lemma7,
    mfsp_acg,
    mfsp_epsnet,
    mfsp_exact,
    mfsp_nacg,
    mfsp_randomized_rounding,
    mfsp_rsg,
)
from .model import (
    InfeasibleInstanceError,
    LayeredNetwork,
    LightpathRouting,
    Limits,
    LogicalPath,
    LogicalTopology,
    PathSet,
    PhysicalTopology,
    PreconditionError,
    RandomizedFailureError,
    RoutingIntegrityError,
    SearchBudgetExceeded,
    SolveReport,
    SurvPathError,
    SurvivalMatrix,
    ValidationError,
    build_survival_matrix,
    require_feasible,
    residual_survivability_check,
)
from .msp import EpsNetState, msp_epsnet, msp_exact, msp_greedy
from .pathing import (
    PathCatalog,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "SurvPathError",
    "ValidationError",
    "RoutingIntegrityError",
    "InfeasibleInstanceError",
    "PreconditionError",
    "RandomizedFailureError",
    "SearchBudgetExceeded",
    "PhysicalTopology",
    "LogicalTopology",
    "LightpathRouting",
    "LayeredNetwork",
    "LogicalPath",
    "SurvivalMatrix",
    "Limits",
    "PathSet",
    "SolveReport",
    "build_survival_matrix",
    "require_feasible",
    "residual_survivability_check",
    # pathing / formats
    "PathCatalog",
    "enumerate_paths_k_restricted",
    "enumerate_paths_unrestricted",
    "ParallelInstance",
    "read_spn",
    "write_spn",
    "read_lnet",
    "write_lnet",
    "matrix_to_instance",
    "packaged_instance",
    # solvers
    "msp_exact",
    "msp_greedy",
    "msp_epsnet",
    "EpsNetState",
    "FractionalSolution",
    "solve_mfsp_relaxation",
    "RoundingConfig",
    "mfsp_exact",
    "mfsp_acg",
    "mfsp_nacg",
    "mfsp_rsg",
    "mfsp_randomized_rounding",
    "mfsp_epsnet",
    "check_lemma7",
    # instances / bench
    "RandomEnsembleConfig",
    "gen_random_parallel",
    "gen_from_setcover",
    "gen_mfsp_3setcover_gadget",
    "decode_gadget_objective",
    "BenchRow",
    "ExperimentResult",
    "run_experiment",
    "solve_named",
]
