"""Stochastic local-hidden-variable simulation and coincidence analysis
for double-channel photonic Bell experiments with imperfect detection."""

__version__ = "0.3.0"

from .model import (  # noqa: F401
    OUTCOME_VALUES,
    AssumptionError,
    AssumptionReport,
    BellSimError,
    DegenerateModelError,
    HiddenVariableSpace,
    NoDataError,
    ResponseFunction,
    SLHVModel,
    TheoremViolationError,
    ValidationError,
    canonical_angle,
    uniform_lambda_grid,
    validate_solution1,
    validate_solution2,
)
from .bounds import (  # noqa: F401
    ChshValues,
    EffectiveCorrelationMode,
    InequalityReport,
    SettingsQuad,
    VertexRow,
    chsh_combination,
    chsh_value,
    coincidence_probability,
    correlation,
    effective_chsh,
    effective_chsh_value,
    effective_chsh_values,
    effective_correlation,
    enumerate_vertices,
    optimal_quad,
    pointwise_bound_check,
)
from .qm import QMModelParams, qm_epsilon_identity, u_eff_cap, violation_lhs  # noqa: F401
from .sampler import ExperimentPlan, ExperimentResult, run_experiment  # noqa: F401
from .estimator import (  # noqa: F401
    CountsRecord,
    EpsilonReport,
    e_eff_from_counts,
    epsilon_decomposition,
    u_eff_from_counts,
)
from .adversary import FAMILIES, SearchConfig, SearchResult, search  # noqa: F401
from .modelio import load_model, model_from_dict, save_model  # noqa: F401
