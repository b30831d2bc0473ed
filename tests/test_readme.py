"""README's "Library use" block runs as written, and the package offers
exactly the names it uses, each bound from its module on first access."""

import contextlib
import importlib
import io
import re
import types
from pathlib import Path

import pytest

import cloudcost

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_use_block(), str(README), "exec"), {})
    total, rollup = out.getvalue().splitlines()[0].split(" ", 1)
    assert total == "70507.800000" and rollup.startswith("[('frontend', ")


def test_package_binds_only_the_names_the_block_uses():
    names = set(re.findall(r"\bcc\.(\w+)", library_use_block()))
    assert set(cloudcost.__all__) == names
    assert names <= set(dir(cloudcost))
    for name in names:
        value = getattr(cloudcost, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    bound = {name for name, value in vars(cloudcost).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == names
    with pytest.raises(AttributeError):
        getattr(cloudcost, "load_plan")  # engine's, not the package's
    assert cloudcost.__version__ == "0.1.0"
