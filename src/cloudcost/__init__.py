"""Decision-support toolkit for public IaaS deployments.

Models a system's nodes, artifacts, communication paths, and elasticity
patterns; simulates monthly infrastructure costs against provider price
catalogs; renders CSV/HTML reports and scenario comparisons; and scores
migration benefits and risks via Likert category averages.
"""

from importlib import resources
from pathlib import Path

from .assess import (AssessmentItem, CategoryAverage, RadarData, RatingSheet,
                     category_average, important_items, load_items, parse_ratings,
                     radar, validate_sheet)
from .elasticity import (DaySelector, MonthSelector, PatternSpec, UsageSchedule,
                         evaluate_day, matches, monthly_series, parse_pattern,
                         parse_patterns)
from .engine import (ComparisonTable, CostLine, CostReport, PlanChoice, SummaryRow,
                     compare, compare_scenarios, parse_plan, rollup, simulate,
                     summarize)
from .errors import (AssessmentError, CatalogError, CloudCostError, Diagnostic,
                     EmptyCategoryError, EvaluationError, MissingRateError,
                     ModelError, PatternError, PlanError, WindowError)
from .model import DeploymentModel, Node, parse_model, validate
from .money import format_money, to_money
from .months import Month, SimulationWindow
from .pricing import (InstanceSku, PriceCatalog, PurchaseOption, RateEntry, Tier,
                      load_catalog, lookup_rate, reservation_charges)
from .report import to_csv, to_html

__version__ = "0.1.0"


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file (demo model, catalog, items)."""
    return Path(resources.files(__package__) / "data" / name)
