"""Decision-support toolkit for public IaaS deployments.

Models a system's nodes, artifacts, communication paths, and elasticity
patterns; simulates monthly infrastructure costs against provider price
catalogs; renders CSV/HTML reports and scenario comparisons; and scores
migration benefits and risks via Likert category averages.

The package binds only what README's "Library use" shows; every other name
is imported from its module (``cloudcost.engine``, ``cloudcost.pricing``, ...).
"""

from .engine import rollup, simulate, summarize
from .model import parse_model
from .months import Month, SimulationWindow
from .pricing import load_catalog

__version__ = "0.1.0"


def data_path(name: str) -> "Path":
    """Filesystem path of a bundled data file (demo model, catalog, items)."""
    from importlib import resources
    from pathlib import Path

    return Path(resources.files(__package__) / "data" / name)
