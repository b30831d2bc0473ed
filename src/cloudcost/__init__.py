"""Decision-support toolkit for public IaaS deployments.

Models a system's nodes, artifacts, communication paths, and elasticity
patterns; simulates monthly infrastructure costs against provider price
catalogs; renders CSV/HTML reports and scenario comparisons; and scores
migration benefits and risks via Likert category averages.

The package offers only what README's "Library use" shows; every other name
is imported from its module (``cloudcost.engine``, ``cloudcost.pricing``, ...).
Each name imports its module on first access, so ``import cloudcost`` alone
loads no simulation code.
"""

__version__ = "0.1.0"

# name -> the submodule that defines it
_MODULE_OF = {
    "parse_model": "model",
    "load_catalog": "pricing",
    "simulate": "engine",
    "rollup": "engine",
    "summarize": "engine",
    "Month": "months",
    "SimulationWindow": "months",
}

__all__ = [*_MODULE_OF, "data_path"]


def __getattr__(name: str):
    """Import ``name``'s module and bind the name here (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def data_path(name: str) -> "Path":
    """Filesystem path of a bundled data file (demo model, catalog, items)."""
    from importlib import resources
    from pathlib import Path

    return Path(resources.files(__package__) / "data" / name)
