"""voltmarket: a desk-scale retail electricity market simulator in which a
learning pricing agent shifts simulated customer demand toward periods of
high renewable generation."""

from .agent import (
    FeatureScaling,
    PolicyParams,
    PriceGrid,
    PriceSignal,
    TrainingDivergedError,
    Transition,
    clamp_price,
    featurize,
    n_features,
    q_values,
    random_params,
    select_action,
    td_update,
    window_channels,
    zeros_params,
)
from .customers import (
    Battery,
    CustomerSpec,
    cooperative_adjustment,
    customer_cost,
    dp_schedule,
    elastic_demand,
    storage_demand,
)
from .env import (
    EpisodeLifecycleError,
    GridEnv,
    ResponseTable,
    Scenario,
    ScenarioValidationError,
    StepOutcome,
)
from .meta import (
    AdaptationCurve,
    MetaConfig,
    MetaResult,
    SampleEfficiencyReport,
    adapt,
    evaluate_adaptation,
    meta_train,
)
from .model import (
    Horizon,
    ScenarioTraces,
    StateWindow,
    TemporalFeatures,
    TraceRangeError,
    WeatherSample,
    build_state_window,
    encode_temporal,
    renewable_generation,
    with_demand,
)
from .pool import PoolConfig, PoolConfigError, build_scenario_pool, stratified_midpoints
from .reward import (
    RewardBreakdown,
    RewardWeights,
    breakdown,
    reward_r1,
    reward_r2,
    reward_total,
)
from .telemetry import (
    AlignmentMetrics,
    EpisodeRecord,
    EpisodeStep,
    ViolationLog,
    ViolationSummary,
    alignment_metrics,
    objective_returns,
    summarize_violations,
)
from .training import (
    EpsilonSchedule,
    LearningConfig,
    TradeoffPoint,
    TrainConfig,
    TrainResult,
    episode_return,
    evaluate_price_sequence,
    run_fixed_price_episode,
    run_greedy_episode,
    train_constraint_family,
    train_policy,
    warmup_scaling,
)

__version__ = "0.1.0"
