"""Battery dispatch optimization and storage profitability screening.

Computes optimal battery dispatch for prosumers under time-of-use prices,
zero feed-in, and peak-power contracts, then scores battery candidates by
profit per equivalent full cycle and expected payback, with an optional
friction mechanism that throttles low-margin cycling to a cycle budget.
"""

from .battery import (
    BatterySpec,
    default_catalog,
    load_catalog,
    make_spec,
)
from .cycles import break_even_cycles, count_cycles
from .errors import (
    ConfigError,
    DegenerateScenarioError,
    InfeasibleDispatchError,
    ScenarioError,
)
from .optimizer import (
    DispatchProblem,
    DispatchSolution,
    PpcSelection,
    select_ppc,
    solve_dispatch,
    validate_dispatch,
)
from .profitability import (
    Conventions,
    ProfitabilityReport,
    TuningResult,
    evaluate,
    evaluate_candidate,
    tune_friction,
)
from .timeseries import (
    DEFAULT_PPC_SCHEDULE,
    DEFAULT_TOU_TARIFF,
    BaselineMetrics,
    PpcLevel,
    PpcSchedule,
    ScenarioSeries,
    TariffPeriod,
    TariffSchedule,
    baseline_metrics,
    load_ppc,
    load_scenario,
    load_tariff,
)

__version__ = "0.1.0"
