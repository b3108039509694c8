"""README's "Concepts to code" table names only members the package has,
and its "Library use" example runs.

Every backticked ``module.name`` (or ``Class.member``) path in the table,
alone or called (``jet.build_jet(op_A)``), is resolved against the
installed ``passivebc``, so a member that is deleted or renamed cannot
stay documented; ``name.py`` names a module.  The example is executed, so
a change to what ``sim.simulate`` returns cannot leave it stale.
"""

import contextlib
import importlib
import io
import math
import re

import pytest

import passivebc

from conftest import ROOT

PATH = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")


def readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def concept_paths() -> list[str]:
    table = readme_section("Concepts to code")
    found = (PATH.fullmatch(span) for span in re.findall(r"`([^`]+)`", table))
    return sorted({m.group(1) for m in found if m})


def resolve(path: str):
    if path.endswith(".py"):
        return importlib.import_module(f"passivebc.{path[:-3]}")
    obj = passivebc
    for part in path.split("."):
        fields = getattr(obj, "__dataclass_fields__", {})
        obj = fields[part] if part in fields else getattr(obj, part)
    return obj


def test_table_names_many_paths():
    assert len(concept_paths()) >= 40


@pytest.mark.parametrize("path", concept_paths())
def test_concept_path_resolves(path):
    resolve(path)


def test_library_use_example_runs():
    code = readme_section("Library use").split("```python\n", 1)[1]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code.split("```", 1)[0], {"__name__": "readme_example"})
    h_last, worst_residual = map(float, printed.getvalue().split())
    assert math.isfinite(h_last)
    assert worst_residual < 1e-10
