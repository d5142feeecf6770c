"""Strategic stock dimensioning for distribution depots.

Classify products by importance, forecast monthly need from delivery
history, size strategic stock and order quantities, and convert them to
carton/pallet storage requirements.
"""

from .classification import (
    ClassificationResult,
    CriteriaWeights,
    ScoredProduct,
    rank_and_cut,
    score_products,
)
from .dimensioning import (
    DEFAULT_STOCK_MONTHS,
    EXACT,
    OVERSTOCK,
    UNDERSTOCK,
    StockPlan,
    order_quantity,
    plan_products,
    strategic_stock,
)
from .forecasting import (
    METHOD_NAIVE,
    METHOD_SEASONAL,
    BacktestReport,
    ForecastResult,
    backtest,
    forecast_year,
    monthly_need,
)
from .ingestion import (
    CatalogEntry,
    InputError,
    MonthlySeries,
    parse_inputs,
)
from .reporting import PipelineResult, RunConfig, run_pipeline
from .volumetric import (
    DEFAULT_PALLET,
    PalletSpec,
    UnpalletizableError,
    VolumetricPlan,
    cartons_needed,
    cartons_per_pallet,
    pallets_needed,
    volumetric_plan,
)

__version__ = "0.1.0"
